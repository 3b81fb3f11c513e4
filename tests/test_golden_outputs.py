"""Golden output digests: sha256 of every file `write_outputs` writes for a
fixed set of runs.

test_golden_traces.py pins the trace entries and test_golden_verdicts.py
the checker's verdicts; these digests pin the bytes the CLI leaves on disk
for each run: the trace file with its header line, the history file and
the report. They were taken before the trace-line writer moved into
`simnet` and began encoding each message's body once, so a change to how
the files are written passes only if every byte stays the same.

The set is the CLI's `--scenario random` at seeds 0-59 (one full period of
random_config's fault plans) and 2333, every other scenario at seed 0, and
three runs of the benchmark's cli-long shape wrapped the way the benchmark
wraps them: 209 files.

`SCRAMBLE_STRESS` pins 24 longer replicated runs with a scrambling
metadata replica, trace fingerprint and files.

`CLI_DIGESTS` pins the CLI's two one-off runs the same way, through
`cli.main`: a run built from sizing and fault flags, and a scenario file
with a workload and a crash, each at seeds 0-2.

Do not regenerate a digest to make a test pass. A mismatch means the bytes
of an output file changed; if that is intended, say so in the change that
updates the digest.
"""
import hashlib
import json

import pytest

from conftest import fingerprint
from splitstore.checker import check_run
from splitstore.cli import main, write_outputs
from splitstore.faults import ByzStrategy
from splitstore.scenarios import SCENARIOS, ScenarioOutcome, run_scenario, scenario_random
from splitstore.simnet import AdversaryAction, Config, run


def cli_long_outcome(seed: int) -> ScenarioOutcome:
    config = Config(seed=seed, t=1, tm=1, writers=4, readers=4, ops=50, mds_mode="oracle")
    result = run(config)
    verdict = check_run(result)
    return ScenarioOutcome(
        name="cli-long", seed=seed, passed=verdict.ok,
        expectation="benchmark run keeps the history clean",
        runs=[("run", result, verdict)],
    )


CASES = {
    **{f"random-{seed}": (scenario_random, seed) for seed in [*range(60), 2333]},
    **{f"{name}-0": (lambda seed, name=name: run_scenario(name, seed), 0)
       for name in SCENARIOS if name != "random"},
    **{f"cli-long-{seed}": (cli_long_outcome, seed) for seed in range(3)},
}


def digests(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


DIGESTS = {
    "cli-long-0": {
        "cli-long-0.history.json":
            "6cbea46f5f740dd5e3248367f0ecb1ba023f61e352fba6bf5c9eb44df05b6a98",
        "cli-long-0.report.json":
            "51589cf4a5e0b65242d81682a2a6c08e4c7ccd617a89ebf60d195c791238f133",
        "cli-long-0.trace.jsonl":
            "1f0f1720d9fd128440ddabb0f7ac8215d16e6350040a74124a10de14321c9a0d",
    },
    "cli-long-1": {
        "cli-long-1.history.json":
            "a7a78b1265265c3286bc89e5fe5b2ccfca2dde28db41ef008eb3f9da93c18573",
        "cli-long-1.report.json":
            "0278de9af18e4fdc74517e095a99a99ca50709ed4bebfac3280c2d9534c434e9",
        "cli-long-1.trace.jsonl":
            "5a1614db40863d31ddc8607f31ead1579c95c925171a83d0fce5ef19accd0991",
    },
    "cli-long-2": {
        "cli-long-2.history.json":
            "214c6674c594d9a6ae322797395ab17f8c2262ff7f29aea267d0a98d5866269b",
        "cli-long-2.report.json":
            "bf0baaef8ca61a388e4f52339a6273daafd6195291527597e332aeec49f3ca6e",
        "cli-long-2.trace.jsonl":
            "b97510fac0cec4552d6650f1cade83414cc0640a6c5159c09909b9e332d154db",
    },
    "control-2t1-0": {
        "control-2t1-0.history.json":
            "8f9d1690abc2c19bd23f4998660aab51e68fac9a0ba120a0752316f0b2e8d700",
        "control-2t1-0.report.json":
            "c098aea88575e09019472f389b2535d6ef620dada867ea4d7c348b67f357a144",
        "control-2t1-0.trace.jsonl":
            "83849887adc854644c69e31f909d2feb902fe467f26a24828050edfc36b77b1b",
    },
    "fig1-0": {
        "fig1-0.history.json":
            "27ea00c675b0078a200b4c064aae65fed26e8e4d10c8dae6d8428d581f2d137d",
        "fig1-0.report.json":
            "1004386d2041348334e69bd306c704e49176f0875fe3c4358213a05c7463e052",
        "fig1-0.trace.jsonl":
            "67a78839790d003f7ee9f75d99b88b9a7a0c7260dc30c9cb22a2566165a8fceb",
    },
    "gc-quiescence-0": {
        "gc-quiescence-0.history.json":
            "05654c39ac158abd64f62a34355ea10778933165e045d577e1129571c783b30c",
        "gc-quiescence-0.report.json":
            "159fe782075d4ce2dec788cf5aa49aa665480ab6b771e619c680b99e93ecf701",
        "gc-quiescence-0.trace.jsonl":
            "6de172d49afe3f221d5c62c77c98f1fcb482d3f06fa45f5104034a0c227040ed",
    },
    "random-0": {
        "random-0.history.json":
            "d7ed2170226ac96ad174359a6c5f1b7d5ff393cc914c3c49c7364c6dfa3d25c3",
        "random-0.report.json":
            "6b0690e0e86334e82bbc7194c73be93e64d89d3619ae940df49a44a0f58163c0",
        "random-0.trace.jsonl":
            "87d22cae7bfff1d9ed5c23895eb1a449f44f7a9ac36d2e877085601545242db0",
    },
    "random-1": {
        "random-1.history.json":
            "9a5e72748d6b18fcdeed46025215ec0de11afb1d272128717bcafc36c7df229e",
        "random-1.report.json":
            "d7f7cdb300060cdb44e4aced0ea3650e58e1104e9325633a0a956dabc2e60471",
        "random-1.trace.jsonl":
            "2ff8fdc26a7d8e8c1c051b40f02b84d2057a2cde184d393e8164b5eac800a785",
    },
    "random-2": {
        "random-2.history.json":
            "207499624e5ed0307f6e256b7858a4439dd9b3ac001e37495560557e52911a48",
        "random-2.report.json":
            "40b6a56af9bfcba47aede6240d30bd4921fbde865ff5bdae1cd78e25c75d5309",
        "random-2.trace.jsonl":
            "f97b34e2fc6541c977d367e9d277610e802ee8025fbd798fbd8ade134b77baae",
    },
    "random-3": {
        "random-3.history.json":
            "068b571e24417c069757a327ed0ef3809674771d48693ea89b08749e6265bd2b",
        "random-3.report.json":
            "fc6f7ed9ce95280b726dd5587d6b7ce6c7d334df13581f55fc74d6e2ff9a53f7",
        "random-3.trace.jsonl":
            "ed3905b38bad9795cefa767848785b480920bcf00d3fd80e55b7d1785b13ee01",
    },
    "random-4": {
        "random-4.history.json":
            "bbb6394f39e1fc00fed35eed989d8cb2aa8eb652fd9c01741a6669577925f539",
        "random-4.report.json":
            "207c4a08f2e1953c8ebc6683222aec1969121a493d9e9d716b79ee0293fba38b",
        "random-4.trace.jsonl":
            "5bd7df5b34a16c4680fc0f5aaf46d6db46f310131f1bb69560050f018035e1fa",
    },
    "random-5": {
        "random-5.history.json":
            "07177e0949ff76c1ba5b9435b6f342ac03a0e742738cb8ee1541f6a460ae1f64",
        "random-5.report.json":
            "6e2819a7fc5c1b91fbec1930f1f7e06965669e75e00ca98aff064d55bd60b95f",
        "random-5.trace.jsonl":
            "37d041d76bfc7316a0d913afa171ec2a3d631684ac074ffc332fe40aa5c6230f",
    },
    "random-6": {
        "random-6.history.json":
            "9717affa6ed9944e673f9e3f76259e623641670c6b87e0169939613dd4fe619a",
        "random-6.report.json":
            "a70d957cd1190c6bd1b4c7a899739aac870752c748835cbd280347961b607dde",
        "random-6.trace.jsonl":
            "e3c0cb5622b7c44127e385f03a160a779677c9b647b239fc8fcd42bdc8f555c3",
    },
    "random-7": {
        "random-7.history.json":
            "20eb4fba349e958e80e9f7e7264240522e2662596629d4af86ece0654603636f",
        "random-7.report.json":
            "dbe22e95b87c54cea9d4a459c88b8d74fcdd6ce30873684b67234e14f43d4063",
        "random-7.trace.jsonl":
            "395217b4031fdd74e430d3fc8145c5ab7717e3692d23957c476512e52517d307",
    },
    "random-8": {
        "random-8.history.json":
            "dd8c5d666ce4f8d9fdf4c0848134035ee97f1f9fb49b0fc5ab2034b5a35dee1f",
        "random-8.report.json":
            "f9c1d08116102be1119ba6c9ad765de0d837f82ccafc2900f976e8efac30db46",
        "random-8.trace.jsonl":
            "1f3c182f6dda798893fd56e5f6b87990feda0444046c95cb5db89a25e619d07f",
    },
    "random-9": {
        "random-9.history.json":
            "8a66b869d32e4e1cabb81da2cac836b5a246dcc067d8aed9d27f6317c88da696",
        "random-9.report.json":
            "34f2b22860b76e0b3a5a4ca2cf876900814fb63e583012b14477860c2ea46384",
        "random-9.trace.jsonl":
            "060f83ae9a12677b46afbd7aade41972c3145e33641f5804498a624deaa564e8",
    },
    "random-10": {
        "random-10.history.json":
            "0eb9263d5c29f3e874e383492f8c2f9ceb09f8d37cd627d5577a381909dfca31",
        "random-10.report.json":
            "b516bba87518a3d68951e62efb9bd238509307789ac0b2234949d47b8baf3e29",
        "random-10.trace.jsonl":
            "5141c55f65eada0290551f1155244a8f82410a14a21dc54d99c46f0c714ac037",
    },
    "random-11": {
        "random-11.history.json":
            "45bf5de6019c53340d71cde9afc9d7df61f3d007c4c059bcd7d7b82e1e6b3d2a",
        "random-11.report.json":
            "7afab7d32890475488944fe5c8e9ad7444b2ffff6a466267b69b7471e0a2fb23",
        "random-11.trace.jsonl":
            "5cae0dc72affe3ff1946da62bfec5bdca092d7e87b7d2543bae714dd23a65e8b",
    },
    "random-12": {
        "random-12.history.json":
            "2078450ee6661ead1ef74d41b13c3d5de7b6cd6a9b84455d045354f5b218902e",
        "random-12.report.json":
            "e598d8a411eb5d353d4625abebc2b5881eaded2e6f68b6b3054eca79a450914e",
        "random-12.trace.jsonl":
            "054b3be352bc8a2517155909e83cca623c171d5ccb96246e1ecd8de606df22d7",
    },
    "random-13": {
        "random-13.history.json":
            "29c55973defc4b34c019e5502d122636e1edaa6b790c9134e91cc474668e783b",
        "random-13.report.json":
            "2a4b6682351c895614cacc837e9a06a5f8e31fe1716f1b6f7a8b6e88bfcf2126",
        "random-13.trace.jsonl":
            "196c88790939d87b368796b6bbed4e2de74a488df5010c96dd4f93215bde0da0",
    },
    "random-14": {
        "random-14.history.json":
            "2b4c491bf1fe2a2971b80f2ee8e3ffb137a0689b2d188ea000dc4cf62383ee9e",
        "random-14.report.json":
            "de2fb25baa1c6517fcc666670635bd694555cf61a202dfdcf2d4be7cb1b29bec",
        "random-14.trace.jsonl":
            "ba473f6545da2694878540ea13431e941a60ab2eabb34c1a099c169db143ea6b",
    },
    "random-15": {
        "random-15.history.json":
            "de9d0c288444e0aeaf15eecf9f1d4f08c401ed17045a5b64ea1613d717ac61c4",
        "random-15.report.json":
            "b59850c88ce4dd903fe3c754818fcb913b821a12eaf6b752481504ada7b1c5f1",
        "random-15.trace.jsonl":
            "2ad46a2e89a3a4951ba9804d5c56f11f1094baea9cdafe04cf61804354a9d382",
    },
    "random-16": {
        "random-16.history.json":
            "572cac2040336ad5b63098b24b0de0323dc8b5679181abd9414526288d6e838c",
        "random-16.report.json":
            "b3f6b476c845bfa971126508e75b6997e02d45618d65fec0175a7428d0990ed3",
        "random-16.trace.jsonl":
            "abbd44066da07389b549c9cf8750069676b3462753cd6fb9f105d45eb5d14f19",
    },
    "random-17": {
        "random-17.history.json":
            "782c7e971d4e57ce73508a278a63e68e711fadb69551ddffdc96edd81e9dc3dc",
        "random-17.report.json":
            "9b80036cd490ef8a6291c721ef1fff3bb826b9b32fbab20133118d5f0e14d163",
        "random-17.trace.jsonl":
            "c344ac0166f43612e37d8c72b62fa6ebb059434d1a45381442f07bd377591bac",
    },
    "random-18": {
        "random-18.history.json":
            "0dae17a633bc8d3bafd3193dcfdf5a260478841508b3af4fa212d12bb8663352",
        "random-18.report.json":
            "a6752a880ed86a869e4911b331403fb1558def50e4a2a165b90fb62f7ca9431d",
        "random-18.trace.jsonl":
            "e2b51ed28ae200702ff75683991a9a5f49a4b8aee00236078818bed8fe19a764",
    },
    "random-19": {
        "random-19.history.json":
            "9c4f52fcf3d93aae5a39620bd739ec52f62efd870c3904e376667f577ea99dfe",
        "random-19.report.json":
            "7b097da23e1a05d7bc71404059ea4f52c8c6812fd669c18cfaf349d1d1488297",
        "random-19.trace.jsonl":
            "2e347202869b1279629aca0992d64a3bbbf3897beae2ede0d51067ea1a038afe",
    },
    "random-20": {
        "random-20.history.json":
            "46cfbc7ee792c4c8ef23975ac106b24a8333c9cabaccd46add08f48990fd82f3",
        "random-20.report.json":
            "9dd1260f7c7eecf5dee9eed98966ffbf540923cf83d6384c3a0cde0eb134b491",
        "random-20.trace.jsonl":
            "1de40985fc355f9bc976a5dd931590b0590301111fab3e72c73133614733dcb1",
    },
    "random-21": {
        "random-21.history.json":
            "1869f094cc04b2c3b5adbb2edff9e759a289d15ef518c7ed62a8f16564ccd089",
        "random-21.report.json":
            "bafd7dc1a24deeb5e2be43cc75fbb9d778ed1a0da34a98170a8bf8e213cf51ba",
        "random-21.trace.jsonl":
            "43a8231da90530bfa24f8c6e6904a11b388e7116e69ff1a168d56158a25a60d3",
    },
    "random-22": {
        "random-22.history.json":
            "dfbc3601b4d3bedb94a09c6770907db5a768914ee668b55ea2712334ed946595",
        "random-22.report.json":
            "2379073efb787cc487ee8da95fbd1b0ec509223d666198ab7c5f434e901eec70",
        "random-22.trace.jsonl":
            "7345f5746e38b48470fa1a64bdaaa05ea643e1e0f6a03d827805bd1c5b09f4f4",
    },
    "random-23": {
        "random-23.history.json":
            "66464edc1c3070d989c0df23401fb6122bc1ff31ba917b3a41234f0cca4111da",
        "random-23.report.json":
            "21e01209204b123f9e90ddad928fd266998df2e3f2a158f105a465f8d14daa45",
        "random-23.trace.jsonl":
            "232ff1477caa56d0b7cc2bb10964b22f4215ae5a414e1a61a846273a588f23c0",
    },
    "random-24": {
        "random-24.history.json":
            "0c17e364cce83694dc6b07d09f7d74e9836b6cd4a1b08cf96f2d6d1619a418d4",
        "random-24.report.json":
            "4a26cf436382bf538fead5335b22cba3fe5e7af6e98d5b24b35c4b352bcf048c",
        "random-24.trace.jsonl":
            "b8d85ee1a3b6925c0820a715d08cf4167f4b6d22603cca7c28a0290600275941",
    },
    "random-25": {
        "random-25.history.json":
            "01619772d2124d9c71702433a10007671a204248b656e7768a3706c8aea851ad",
        "random-25.report.json":
            "b069232398e40e1bb79b6c30179ab8993378125c3a7d5c9ff2688f9b78cd1855",
        "random-25.trace.jsonl":
            "c628dac9a5838e1129bdf1ffda4b375b10417108c117b68af201acc0473a2a6f",
    },
    "random-26": {
        "random-26.history.json":
            "f0a82ad4cb06ba1a8a57e0909230de9b32c754a444a16762a7967a274e59c189",
        "random-26.report.json":
            "7752fc4f0216501936c7ef7dab376ccc4c0ae877390ac7f3e3721350b32107e8",
        "random-26.trace.jsonl":
            "4408db4cf8fe0903ef10e7a52121315a174136afd51773fdcc86bf107837848e",
    },
    "random-27": {
        "random-27.history.json":
            "eea990040f25583504fa022141d742cf2923868b1b44dce4a52878520c1e46d2",
        "random-27.report.json":
            "44b0564daa5c8768efd07b9e5fe1c5b14e90d6c4a65ac14afaefc0557c90f80b",
        "random-27.trace.jsonl":
            "847e533a9aac9be32ab234ff6fcaf9b5c0d00c9ce324d64d553a9b954bad1b6a",
    },
    "random-28": {
        "random-28.history.json":
            "24dcd51f67870e05f8ad2adc0a83caed1a30b16fcd57d7a97ad3388f1a8dc53c",
        "random-28.report.json":
            "8d21acb5322c4e1d59ee4eb17849182519f5e9225c31a9ff7d89513b7bb882e9",
        "random-28.trace.jsonl":
            "535a8798094a9d9f4a789d1fd3d709b21360b4c99a382ee84d22783882ed9efc",
    },
    "random-29": {
        "random-29.history.json":
            "78d775528c0a137b0d65d2da2cb29e5985eca4da86e44531b868296faf016c6a",
        "random-29.report.json":
            "d2194ff339a756f6f83255dd5dd8644e06cfa6b619d29d33db07ba1bb6674d1a",
        "random-29.trace.jsonl":
            "b97237aae49880273ac749a743dccbada73778fbe8e9d0ff881909c16e5df73c",
    },
    "random-30": {
        "random-30.history.json":
            "53c39cdc6f8454b33b48fcc83e5d0d85f1994d9f57a8db1692c59348273b3efb",
        "random-30.report.json":
            "7f8179b1681b788344f8181ca441fd89fbf80d8660a1a526819eb7e3e8aefe13",
        "random-30.trace.jsonl":
            "628aff95228402a31cd46ac29d5d2f13327797147aad51240da147a7ab8039af",
    },
    "random-31": {
        "random-31.history.json":
            "9e74c5a1843843f683609538be0440c7369ebac27d7725e35f037483e0286c6c",
        "random-31.report.json":
            "a2ddc7ffafbe835919b66ef9191b187d29b2e015417008fb38e2ab53197f0eaf",
        "random-31.trace.jsonl":
            "8aaf1dad00c047c3795656b5e2f814adc65fb99df599d9757659256a6942f5c3",
    },
    "random-32": {
        "random-32.history.json":
            "5fe3f86ffcbb04731adfc386a8ee367d7deabf92fa19c184d3aaf9c0096baff3",
        "random-32.report.json":
            "fa2200bf831dd801561b675aed3e20436436494a75695b827a99cad769c4528e",
        "random-32.trace.jsonl":
            "79e9096463cf26c1785fa4e41699dfcea46797892e016893db8dc3a77f50e44d",
    },
    "random-33": {
        "random-33.history.json":
            "bd67b3c92c28de84b41064d0437172f46984df02c7eaa7091ad08b532e411e5b",
        "random-33.report.json":
            "75c3dcc342fde728896123b5e3cd1ebee9fd673498a2d53b887e217e914708ab",
        "random-33.trace.jsonl":
            "ba73b5470ce2b826291ca05d400ac7ee9693ab060faa77007623d1925c4c8335",
    },
    "random-34": {
        "random-34.history.json":
            "cc7f8436568177c485d3ca117567ddaf3e2507c40b70efa14739acb5b00a35e0",
        "random-34.report.json":
            "6cf6495fe830b78cbfc781101deb5ef506e0b5210b2be467373943b01da3b8d2",
        "random-34.trace.jsonl":
            "7441542f50333630e11c5b4607ff5c1d7025200504a36b65ff220f0701696799",
    },
    "random-35": {
        "random-35.history.json":
            "7a6a1cf8242aee9a644efb38b47895286ee2afd897ed50738aacfce366e14c85",
        "random-35.report.json":
            "ecce93657ba64617834906bdc034fa02c662024134aed25103d6b8c02aa6a69a",
        "random-35.trace.jsonl":
            "4af3a5101392a50bb8871157caa70133b7a334e363a7b4712ccfa46ac2d3d578",
    },
    "random-36": {
        "random-36.history.json":
            "19af7017831b0e2810d1f2fc75abb8dbbc495527d6e8302dc46d40687d0b4d0c",
        "random-36.report.json":
            "e5f56bfabff98a2ad9d5d9c5a795a74e83ad008408ef689058d1d3a0f43a1a66",
        "random-36.trace.jsonl":
            "14c3d98fe53577ce57a79f7331095c4afd5e470069ee27d3bd072c70c48c1ca5",
    },
    "random-37": {
        "random-37.history.json":
            "a0b4c691e9bd0ac1d480afdb2a7fa9c69360888b4860be4eb041d6d6e15c7d01",
        "random-37.report.json":
            "b4d2de01763b81ecc36809ffa76a3e22820e5a83059f7c56aa820997628d5f8f",
        "random-37.trace.jsonl":
            "728dc303a88caa8455661a9abc0390fda3e86bde6ff601bfc56a651595f68477",
    },
    "random-38": {
        "random-38.history.json":
            "03c294dfb9344fa4ee4ea9f0e09177e2daac00cdac9456eb44d7a5aaef5088dc",
        "random-38.report.json":
            "6c246547b61ec351580044c7fa0b7ebd8379cb8510bc9cde014800dd4901330d",
        "random-38.trace.jsonl":
            "01d4c617d5ed891bcd0fc3e2273862a9e95a4de4616a239e3ce0bb4899bc7abf",
    },
    "random-39": {
        "random-39.history.json":
            "384eb24fcbe5933ad794bf03256b8f6a19bd0522afbaa4de15377df696b630e9",
        "random-39.report.json":
            "84c7f4db15ff240bc30c92c90052a5bbc94b86bfdb81eee79369f7391c1add86",
        "random-39.trace.jsonl":
            "35988b60fafed2b053f2480fb0adab1f00bc1faad82c8f4ef5f47d8392c62ee2",
    },
    "random-40": {
        "random-40.history.json":
            "d5d7270ff5af756ca8a030a43105a563e6b577f68f2570fb3e9c406be1f6994e",
        "random-40.report.json":
            "d1ebc37d5762851cf4be6c41d0c758f19a7fea0b5652e553fc2dc2d70bba7622",
        "random-40.trace.jsonl":
            "3d59408a1a379e42ad926e0df43724c308f38291f145896f60a90ae55778fce0",
    },
    "random-41": {
        "random-41.history.json":
            "8a104bd7e353616b8f14c884c40efd108888d68d8299258914cd58d690b0e47e",
        "random-41.report.json":
            "2c8fc21992e1d5d1bb4f8b6fce3e0f04161314ff1c4e2ae661ae469932568ecb",
        "random-41.trace.jsonl":
            "f1c08c9665bde579a0cd9c6a62d34d5aae0d755e51cbabd5ae98669a4039cbb5",
    },
    "random-42": {
        "random-42.history.json":
            "e50b5b4babac99a4e66d4810ec4efa248713c623abbd554601948322c94f597f",
        "random-42.report.json":
            "84ae442c765032eee0a87176b897f7c89194b585bc9084c8323c5f3e5ffe38f0",
        "random-42.trace.jsonl":
            "f7f3ba2cb07d30d9ff2f8399514cfda7780a0c67bc9d91b64f2eb35faf949dcd",
    },
    "random-43": {
        "random-43.history.json":
            "dce9c3c9013515b883d2dbd02417b01635d05829e03ba17e2785e8a51734febe",
        "random-43.report.json":
            "41bc695bbd9d70d78c2870a06d61c267ef19d5bd8ca7ee4bf47258c8a93afa8a",
        "random-43.trace.jsonl":
            "0668776cb9932f84f5cb56b6a82b6eb25c13f30d754bc10696c4092612d4b05b",
    },
    "random-44": {
        "random-44.history.json":
            "37c4cff4aab46329461a95fd4999094484080dc7b4db3f6c0206eb9b6ed1eeee",
        "random-44.report.json":
            "006893d553eb63c35989cc812c8542303cb7167310e953d54c812dfc1883c7e8",
        "random-44.trace.jsonl":
            "80caf82f639043350e31744ebc257c92efb04a784b78b52998f0dcc338125a7e",
    },
    "random-45": {
        "random-45.history.json":
            "7a9be436df224afad9ba4ced59b7d58dc6ead0360e7b528b556fc327c4a0b438",
        "random-45.report.json":
            "17175aeda7505e69ea33365a55bdce6184b32a494b96b4b95cb0533e1ff47ba8",
        "random-45.trace.jsonl":
            "2605ba710385feb99a22f2a2fdeaa1efd5276e7f0a2a0d3b6251e35eec909531",
    },
    "random-46": {
        "random-46.history.json":
            "e33e1eedbdbde6cf25d828e5a682951f87c2a8eed5490f47a5b7c07ba1613da1",
        "random-46.report.json":
            "ce116b33d2970669f84ea0873c0f2ac0bd785f40e1d4c9aa9690a71e4d291eb4",
        "random-46.trace.jsonl":
            "5e15338fb7e082d7bc562d7b0fb45d3394649b697493a79640052763b44d37bd",
    },
    "random-47": {
        "random-47.history.json":
            "e404cd418cb4ac81829f76c7196ee4ccf6fc9915b2cf814620c8af9d6dfdd155",
        "random-47.report.json":
            "c0edcd7880188de5bc5286b5af9bc86a4ce37d21c27db600ee0978b8cca48c43",
        "random-47.trace.jsonl":
            "5bcca389f02e0a9c6ec57d1f77ae6fb82bc4a55ff2a590cdb2bd5cbd6abc123d",
    },
    "random-48": {
        "random-48.history.json":
            "986e4f2952626de2b0d485ec5242563b04b2a790b5736dae1696d54cf3970fed",
        "random-48.report.json":
            "c006df324d9cf321eb8db71240b8f532981458103c5999cc2fc39ec448b16558",
        "random-48.trace.jsonl":
            "c1a64abe92744fba4530bcf81278872c5bf38e26f153b8e217ed0547bf10c3a4",
    },
    "random-49": {
        "random-49.history.json":
            "dad745801e5ec1b044cee4bab6441b2ae9a47b92166f0bcebbd99f24eb94af1a",
        "random-49.report.json":
            "3b68a035cafda605cdb9bc42828cdee3ee3d5546ec53a69665d0e04304741694",
        "random-49.trace.jsonl":
            "3b9edf48c5d74ad531f8714eb4e356cf0dfd759306bffee2540b0a09a2a43042",
    },
    "random-50": {
        "random-50.history.json":
            "482a948a4b4e85b5c6d07efe9ec4d68ac4d8383d6a579f9d70e3b74ff5e25ab3",
        "random-50.report.json":
            "af0f8aa1a5db2bdf3139e1aaeab7eba2bdc279527757a51a4623955c1856d5ac",
        "random-50.trace.jsonl":
            "1b3d1caa04ade0662b0b531d4a13b6a954765923ac64a64dd44b59a3e55a2a4b",
    },
    "random-51": {
        "random-51.history.json":
            "64f82b61a1f6beec40678c38801138336f5b27346f4606c37176c7d0253f090e",
        "random-51.report.json":
            "033871235578d694f51a015fdd0d0e94c2f8bcab90ba252381a4a5048f3ba6c6",
        "random-51.trace.jsonl":
            "f261c46c19298de96dc718d50fb0ad2886a9f82eabad59daf931f398bee49d8a",
    },
    "random-52": {
        "random-52.history.json":
            "8cb9b1f46b2e5ce49f7b068df66634c8d21980c81d4e04b11c26fdfdcca5e13a",
        "random-52.report.json":
            "27759889e7367fc7f189cb64407a54d0b025c0e8752e1f4f5296f3c349824d17",
        "random-52.trace.jsonl":
            "78075bc41b94d2631586a17cf490f0c48594d3882450cc5661b193e6e1d9c78b",
    },
    "random-53": {
        "random-53.history.json":
            "f2598ed68003c8838cee1d8f9e057e972d3b9c8d000c9aa312d8a1c20c23b182",
        "random-53.report.json":
            "eb3e2e730ef28e37b595398dc06963fbc60858c918f14be205eb8da18c7b871f",
        "random-53.trace.jsonl":
            "a49d18a9b92c038101e367789264cc1a82432772a99b7a91815890fcfd226cac",
    },
    "random-54": {
        "random-54.history.json":
            "43331c195ebd13c84d434ead2989096ee32af8976e437e60ffa883745e3dcf8f",
        "random-54.report.json":
            "69270c485b1b9df130f88515898e5f67fb518b10276f21d1dc78f917c0565c3f",
        "random-54.trace.jsonl":
            "882c5e79c2575e0818175e713fa32ab1bd6714a40bfd2212f4161d4f7a9624eb",
    },
    "random-55": {
        "random-55.history.json":
            "de8fc68290a2f5ceaec0607022f08f71b9f9e06b94e3df5c826dfbcd4ba949a8",
        "random-55.report.json":
            "579ad389afe2f94dbc8a32780f98ea0fefa350c34b256431ab0347c08cc7319f",
        "random-55.trace.jsonl":
            "b71afe782753056d6f83591f6f26e1f8200cb2bcffb0d3d8926589177019509c",
    },
    "random-56": {
        "random-56.history.json":
            "682751ea0bc8608099535b1006af7a58c185c99696aa28cb414f6d1de8a83ebc",
        "random-56.report.json":
            "257c779bea2be7b742256a7569a645ce9db5b0db1c81afb878a156f79c127c08",
        "random-56.trace.jsonl":
            "297f38ed6cdb9d0c94c3a421c972c6c0340a588cecfee64864687663ec833803",
    },
    "random-57": {
        "random-57.history.json":
            "30834eef6b1e9654ae992f619630f53f1d6073f3f2ee7d3782abb3794352aa93",
        "random-57.report.json":
            "7d6f0c2e170dd98b0523a40687587f0fadd381a1b973064b752aaa50324c83d5",
        "random-57.trace.jsonl":
            "dab172c3ca355695d08886e3f878b7cc3f9b493923adb052181a38acdbfbb768",
    },
    "random-58": {
        "random-58.history.json":
            "977ef82f6fd12d1dfacca2f614c4be0d96e1b5a4a8b86085de2dc5dde13b883a",
        "random-58.report.json":
            "a75304974d3f1fb35bbc862b52b9bcc435ea1761f8d5427448dd42bfab6c409c",
        "random-58.trace.jsonl":
            "6fca1ed2fc6f17a7648e4d52406bf22be96843f96fdbd9cab0f30f5f80c2c594",
    },
    "random-59": {
        "random-59.history.json":
            "20f0c6c8340f235f1321b694382c1ebb0b78723b908dbbb0c4168c3980683dc7",
        "random-59.report.json":
            "afd99aab48c507ee43c42fb3c2b4e1e5ddde6a9381c5090b3da023ec5da3b64d",
        "random-59.trace.jsonl":
            "d578c937630181e25258b50ad31efc518c5f1afddd8b8f522aa427e912470268",
    },
    "random-2333": {
        "random-2333.history.json":
            "5385f3d5c6aeff24574be57b1effc21b0987e64757aa41ee93d2bf379170d096",
        "random-2333.report.json":
            "2f5b0ea596e73945d4e4901a1d4a2c1c1f5593df5308e30692ef5b8c588f641d",
        "random-2333.trace.jsonl":
            "3e3459fa9c0963630d4aebd2e4cf68d4a10f9da0743534a278f24c6702bf77ce",
    },
    "theorem1-byz-0": {
        "theorem1-byz-0-baseline.history.json":
            "f11753616d2a629fd6af3d7281cb046b0b8f5adb148f13023acde96465f87df4",
        "theorem1-byz-0-baseline.trace.jsonl":
            "04377c75d9172494a44adb3b1924396c5e78a45dac684b35bed7050d2d84c46b",
        "theorem1-byz-0-forged.history.json":
            "4278ccf8596a1a145a9d08583a8113732147b5fedbde58b58a9a576ce7f2fb06",
        "theorem1-byz-0-forged.trace.jsonl":
            "e26f3587e74f002f586db425d3eea45a92b3eb7d913e382260c9f7ded6f62809",
        "theorem1-byz-0.report.json":
            "d2fea4f8ccda72046e6ec6bdd4e7e2b417e5826cc1dda28e97481dd013946ccb",
    },
    "theorem1-crash-0": {
        "theorem1-crash-0.history.json":
            "64df7fa69be2d130183a3e6f68414a33e9e899f5bc089826883d6d3ea95daaee",
        "theorem1-crash-0.report.json":
            "230c6807f625c1561acea990b95005d910bc5fbdab8f2bed66277bdbdf0d4669",
        "theorem1-crash-0.trace.jsonl":
            "c1039d3770c4955224236a7bd7a5c55996c4f10da9ca207110c9854983af3905",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_written_files_are_pinned(case, tmp_path):
    make, seed = CASES[case]
    assert digests(write_outputs(tmp_path, make(seed))) == DIGESTS[case]


def test_the_pinned_set_covers_209_files():
    assert sum(len(files) for files in DIGESTS.values()) == 209


# A scenario file with a workload and an after_ops crash, and no "ops".
PINNED_FILE = {
    "writers": 2, "readers": 2, "mds_mode": "oracle",
    "byz_data": {"d2": "fabricate-high-ts"},
    "crashes": [{"process": "w1", "after_ops": 1}],
    "workload": {
        "w1": [{"op": "write", "value": "one"}, {"op": "write", "value": "two"}],
        "w2": [{"op": "write", "value": "three"}],
        "r1": [{"op": "read"}, {"op": "read"}],
        "r2": [{"op": "read"}],
    },
}
CLI_CASES = {
    "flags": ["--random", "--writers", "1", "--readers", "2", "--ops", "3",
              "--mds-mode", "replicated", "--byz", "d3:stale-concurrent",
              "--byz", "m4:equivocate", "--fifo", "--seeds", "0..2"],
    "file": ["--scenario-file", "pinned.json", "--seeds", "0..2"],
}
CLI_DIGESTS = {
    "flags": {
        "random-0.history.json":
            "37f56f0c9e858bfa1129281025564667dfa4a0a06ac199957104802c8cfc7dc7",
        "random-0.report.json":
            "685f1fff5429879ddf06f7e9b06fc35d54e13d12552d5882816798191c7e942e",
        "random-0.trace.jsonl":
            "94ba09877ab4dd4fad97197f58ccd2971d723d20e5e021917d1e75668936ced3",
        "random-1.history.json":
            "11580a8cf0ad4092948bb43d07804e8c01adb9b357d46b072218a00aeab85fb5",
        "random-1.report.json":
            "c84caa3c1fc51935d2f9d26d1a7cd7d619deb66a72750f3c6f45b653d5db40d2",
        "random-1.trace.jsonl":
            "6c9f3d943dc256ffbe214398a811df0287f4729705f5b8b3e8f006f7edbc9be6",
        "random-2.history.json":
            "c5c9ef55d241a35f70dd32f4a9a5af827d05aa8c65c9742e1ec7e91347fc87a6",
        "random-2.report.json":
            "5ce3941e311a61f7f25bb0d3063ffef310afdc94888db45950b85a88fea86869",
        "random-2.trace.jsonl":
            "9c37ed3b202025c6627f46f54a5bd2fc2351704feb30b8a04934d61c77f27bab",
    },
    "file": {
        "pinned-0.history.json":
            "64e6a0da9041495740f9281bb1dd56e2ce455d8e3cfcd7b57712a1a04df7dabf",
        "pinned-0.report.json":
            "d77fcdb2f0cc2ef350b07de4f35ef3d8a242b244f178b5b2ab5c2bea9502148d",
        "pinned-0.trace.jsonl":
            "9c0722f0ac030a40045c078eaf6ec989c8499c51da1232e786144557e9e091ed",
        "pinned-1.history.json":
            "ed07b288f612673fd540d7d67494162ff44344f22723eb3a646cb29c8ff3c844",
        "pinned-1.report.json":
            "17f913a42b561d093e67a76fc44854311c21b19117e40a676837bfdf5c9662e6",
        "pinned-1.trace.jsonl":
            "ef397da97fd13294812529130c311495291a81796a33851c10ec24b4db311385",
        "pinned-2.history.json":
            "da3a6c1fc7a13a4ba3d7f50fa0214229b1bfc5209db662ce0be1ac160c443256",
        "pinned-2.report.json":
            "e83d443a8585b3ebb6a16dff14f7e5950a6e3fb55f1ab5f5b53f398b109021d1",
        "pinned-2.trace.jsonl":
            "da78fca12ed137283f9d8b309cf8d3ab71de491452757e66ab3af15a3682d8ae",
    },
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_one_off_runs_are_pinned(case, tmp_path):
    spec = tmp_path / "pinned.json"
    spec.write_text(json.dumps(PINNED_FILE))
    argv = [str(spec) if arg == "pinned.json" else arg for arg in CLI_CASES[case]]
    out = tmp_path / "out"
    assert main(["run", *argv, "--out-dir", str(out)]) == 0
    assert digests(sorted(out.iterdir())) == CLI_DIGESTS[case]


# A scrambling metadata replica under load: replicated mode, a state-switch
# m4 that scrambles at step 60, 200 or 600, ops 12 and 30, seeds 0-3. Their
# keys pass 9 and the scrambled payloads carry client id 99, which no run
# above reaches, so they pin how pairs order where keys and payloads have
# two or more digits. Each case pins the run's trace fingerprint
# (`conftest.fingerprint`, as in test_golden_traces.py) and the files
# `write_outputs` writes for it.
def scramble_stress_outcome(step: int, ops: int, seed: int) -> ScenarioOutcome:
    config = Config(
        seed=seed, ops=ops, mds_mode="replicated", max_steps=200_000,
        byz_meta={"m4": ByzStrategy.STATE_SWITCH},
        adversary=(AdversaryAction(step=step, process="m4", action="scramble"),),
    )
    result = run(config)
    verdict = check_run(result)
    return ScenarioOutcome(
        name=f"scramble-{step}-ops{ops}", seed=seed, passed=verdict.ok,
        expectation="a scrambling metadata replica is tolerated",
        runs=[("run", result, verdict)],
    )


SCRAMBLE_STRESS = {
    (60, 12, 0): {
        "trace": "f315a487d62e79504affa5fc102fe445065151c920b1a2a969c3af2598fe5caa",
        "history.json":
            "3db3a0d9aed6f2f297b8fa8ff5a8bcba527271f00aea59b23bc5be0b0a202c3c",
        "report.json":
            "31788693339a4131a679c5716f31f76856499003edf7a24a2be69b2536f04c95",
        "trace.jsonl":
            "cf2a277bc40601d68aff8ef5f56ad184f11464f98c155fda983b5583be228d5f",
    },
    (60, 12, 1): {
        "trace": "9585161a164ac4b9a5973880b948980e158257f30be7dd9616b9d557d4b62b26",
        "history.json":
            "8b0d19706a155eff4e0975f51945b487303b4b4102dc486bc6d9774ef00ce5e5",
        "report.json":
            "ee24d9dc0b6592890369044908a4cd8aed9b6e12b4b559f9496e1ffbb6917878",
        "trace.jsonl":
            "aa9a415b0fe9ffc53e56eb24edc7284855945422ad0c3faf4b5ee3ad5f1a3524",
    },
    (60, 12, 2): {
        "trace": "a3b8848e5edab74fd20601436f6b7d9a8247394254b78aa312abf641823564ee",
        "history.json":
            "4a356f550125c381bbb334ebfdca080610035f6a0c225b258f07693d0278957b",
        "report.json":
            "e8a8d9a2bc961da314a7e5f5d094a386528456eaffe8ea2fd6f9d767ec9a2074",
        "trace.jsonl":
            "b71eccb0963d0029f5b85f000d5f77d7a8acc5e58ffef3c2afb7ad8fe394d8c8",
    },
    (60, 12, 3): {
        "trace": "98ffd1af2194be6f1970cb9be5f332d9455be2e0d5729acca75cc8fc8893c124",
        "history.json":
            "56f9097ae2afbf904c42ac8cdb6d32cc7a9e9f36f22768431665c4097cf4a8bc",
        "report.json":
            "8963d5de46d5b4a4d674e5b8881b98f079936e7a1ba36072cc58af827d077a4e",
        "trace.jsonl":
            "00143e836f2e40d4bed0c14372a4475fa7440d7bf6b9791c8f5ca99e2090a483",
    },
    (60, 30, 0): {
        "trace": "91d81ef95b402c3cb90dd061065dcec0b2538bd51934de0d65d0625f320e666a",
        "history.json":
            "c3bee7953ad06a4709dd4e31e6c287a9df47910491369480e9d0ae6c34393ffa",
        "report.json":
            "baed9918ed38265ea0b06b8193cf6ab2589285684221d9a7f0c3679571b220bc",
        "trace.jsonl":
            "c667016fa9a1fcd189beb397866905117bf43e83f96fc91d35b3f7bdb9a104a5",
    },
    (60, 30, 1): {
        "trace": "5776e0de5e2acf0abc621a1d0eb919f97e8e0c94be14457dbe72cd7fbb806df2",
        "history.json":
            "02e599e9774bb87d2a50ee803e1fbadd9b1d41920c7b0f0474d219bb71620ff4",
        "report.json":
            "e2d986c545c3d8580e96fcf5aa6156352497ed06c25707653f7b2bba32f453bf",
        "trace.jsonl":
            "6132fd41bbe62d2f4f56b3c326c15b4905245e4b34c7e5fff84fd111bd71b926",
    },
    (60, 30, 2): {
        "trace": "59610f13a46bf95ba99bbbe1ae3c40f1130c37dc36a2ca710b0aee4a74110299",
        "history.json":
            "f76a6cf5d1cb6750b8c82117f700cbf89561bb9c23db576d52df6852c45215c2",
        "report.json":
            "aaded2be20b1c2d0b4d2d46812eeeb48a1584894ffc5cacf6c4b404d3e242a12",
        "trace.jsonl":
            "2000eb7e896c1447bd2de7f7c270713de5edd62721d12b50edd4929bd81221fe",
    },
    (60, 30, 3): {
        "trace": "0649c2b03dfd792586a6063313d9c07a528f78e5d804f75a50460035f021575f",
        "history.json":
            "c931e64b3e5f5dedfa16268c20a7d4ee914bfe0c10f6a10c56a11bf5a63d6fb1",
        "report.json":
            "b99d22157fad55033dbb6c9b3f2bd7cdcecd9ef4249bc57a823a966301d1b29e",
        "trace.jsonl":
            "40224b1488bb596b528f764f3fc9371eafe075c353c939cdee9464f72e334ace",
    },
    (200, 12, 0): {
        "trace": "25b16b553e68e797aadc8c1fef9ffd020cac1929726fdcbabc2da8886da2659c",
        "history.json":
            "67b74cb752d5dc0422d874431374951604dc6f2014dd400223873afb558112fc",
        "report.json":
            "436c6efc175a16ae6b3c5b25d1c09ae61ee6bd3e6438c91b0494428b8c6bb1ba",
        "trace.jsonl":
            "62f5ad5000f12ab06ce184ebbcb0bf809e09120230c368c4795d3330f7211328",
    },
    (200, 12, 1): {
        "trace": "d39ae760ea5ce82edf14c97d288788954151cc63bf6e0d4e3f75780f038d3bed",
        "history.json":
            "2fdb14bcb83a85fd15bb5d6356e73c0c1e1fb671cd317227e8fdbfe21f3fb437",
        "report.json":
            "9127d56ee7ecd21b04162b491907c7df12bfdc98141cf7186bea96505ce5c487",
        "trace.jsonl":
            "df527cc9ef202122735045b7c4214d1007b36254906a2d2c1039839476ff3bf2",
    },
    (200, 12, 2): {
        "trace": "bc7b86e65affa08ab1e9dd3b8cb89c268865cda1db654b469de6a6731ed95ee8",
        "history.json":
            "09cb01d3a7664f5055db0200db835e5495648c2788775a79978911929806f3fe",
        "report.json":
            "1cea46abdfd220b2e2292c96a3230e023e81eb1998bab00eec332e50db0d748f",
        "trace.jsonl":
            "49fc969f30e6da188b912089295001d4275165811c4d09749b6559a47bf3f039",
    },
    (200, 12, 3): {
        "trace": "24070c62a60ea3380d508f4dc2a282d1f6140714aa3765ed632a178e6ce3335f",
        "history.json":
            "6333c188f56cf2dc1e9da1bd39c208f7f43a2b77e103565049b19260118fb03f",
        "report.json":
            "47d2306765b92bd580912bf3bbc534c39ce1777ba11f62240b0c8bc4f681a4f4",
        "trace.jsonl":
            "52cc8bdcc2b0898d3dd236fd3fcdb0fe084128f0b4d3875751af1ed41b4395af",
    },
    (200, 30, 0): {
        "trace": "9c52b438c98bdcb1b099bae99a07ff467e20c1144d3ee4b45e5116af0ebcf6b8",
        "history.json":
            "ac0136f858861a602ee77cbe236af85d3311cb740164c0f86177cdc8deaac110",
        "report.json":
            "b5feeeb1ba5f296c5bfcb8a50450c9071ee0e9974b6d6b7f581178f30bea2f15",
        "trace.jsonl":
            "8571f8fffdff54a39ee8f69a21f7b321e5d90974571324332e044d3af3cd9523",
    },
    (200, 30, 1): {
        "trace": "7d8df56c03996055cfbd2c35b6c4c9f419882a9ec81a0a88616dc96973e65e8e",
        "history.json":
            "6c6b14652ae03c52fc540a4e406abd8bff236c51a0f6eb952b317163b581459d",
        "report.json":
            "e1d2f816e742edbccf9910b486f22ccf171868d8f92c6ac6cec8dd26ee41e117",
        "trace.jsonl":
            "7a4650d3d5b2fd535c392942d48c7657f44a9bf57b77bf3a7145e061ff5cc2bb",
    },
    (200, 30, 2): {
        "trace": "355a3a8dad89665243ed151ec152ad52ab854210c044a752db7fafc56ede807e",
        "history.json":
            "eaa9763d84fbb290a51c10ba59c010cca1e1865bd524f999a74783a4a8335c2c",
        "report.json":
            "6d29a5e5ceb8d51dbf0a4e9883fe4ad42e68f3a747be0c215be44bba2e54ad6e",
        "trace.jsonl":
            "bd673d6feb3bf3ca834ee1b271b26668141c92497828d9b7702c98ba4baa0ade",
    },
    (200, 30, 3): {
        "trace": "9d421bc05c65a1687fbc789206d5febd36f4deefa71b6c4304377c7aa745db50",
        "history.json":
            "e3fa69fab7f79aa693e977b48332ce0690e5f0e15efe2b67f1f6d73a197a61d4",
        "report.json":
            "27afa12c86ad5f773228629280c579f32f21e28ed4d8a147d33b85e3967418cc",
        "trace.jsonl":
            "855efd29b6801cb0368c8d9d7b69c66fa3060328f0f687ad4a75922c002cf2c0",
    },
    (600, 12, 0): {
        "trace": "a746f63899d39eea928971c8fca85d2b71105476eefe1b1b20a08e12a576488e",
        "history.json":
            "922d6c78b11295410541e4d8556185df80082582dd79a66269303566142c625c",
        "report.json":
            "3fcd4b4bd9fa8f215740a377b23a3f0237dae5e35d79331cfd93db2ea6dfa6fc",
        "trace.jsonl":
            "b5a17da514360c9d2aa6638a4692fc362c843848adab126a6904093e803e2e20",
    },
    (600, 12, 1): {
        "trace": "92875bb72ce7ccf813e9eeba9b2421287aa367d49a75a0f8d5604269f0083575",
        "history.json":
            "5adcd50a739e76afb209699df8f908a2aa0b3aaab730b7cf46a6d940c9542bf2",
        "report.json":
            "bc790ad4e291e249fa2827ca4421e1f6b490d08209998bd42ac5c9e274b6ad38",
        "trace.jsonl":
            "9ceac677d990158856fcedcb13f67644548964e0b9b2fafb652382510db813de",
    },
    (600, 12, 2): {
        "trace": "bf3f188d4f400382a80a088ffda968e64fc4d8dfc229bc34fa56bcc8b8abbda1",
        "history.json":
            "1f411494be5b2f0f3cefc12ad034f6ed89638949a092e1ab0465574d10e2f65a",
        "report.json":
            "860ce8e7f3c8096d1f140516d57a10978650098571fb1d6230ee9197e98b733d",
        "trace.jsonl":
            "47c24c5b15e1d389f5d40b1a4203877cae4fcbcfc2e8fd70ba55a76abaa13e61",
    },
    (600, 12, 3): {
        "trace": "6bdea67ca8ab6d854ec9267aab5257ca32bb27185313708dae345be14ceb3411",
        "history.json":
            "7d2664995d170d8f0dd5ecdb9e900d77ee2f4310419638c2c6decb94ac0b1b1f",
        "report.json":
            "26232e81cf8117ff22456341e3bba61e16f3ee245852e656b428aaf2f041aa20",
        "trace.jsonl":
            "f1cf1fc85c020c7c163aea68ed3f63a890ab22d694be2438d206c5c03c5031c6",
    },
    (600, 30, 0): {
        "trace": "7e9df3db223352fea752be579413bdd76e0277848d59430450b4b94d02045c07",
        "history.json":
            "26d723b34c8bd9fb86297dba210086625ad2b90327f42a7cc92b719876531f02",
        "report.json":
            "4e9429bb0cebcb43c50917a361cdb673e690f7fe7919b12122fa417048b5c19f",
        "trace.jsonl":
            "a43196b37d2c430a7d72ea36dd01f205f4b3cd85520a5ea3846a997a47eda2d2",
    },
    (600, 30, 1): {
        "trace": "e9b787ef682107ffa51d8d51243058622aaf6efcfcfed917bbf159652903b9c7",
        "history.json":
            "482dff973c97aee43b8654482c49774999bd50a0116f6e296c3fbf9a999a4fe2",
        "report.json":
            "5ab68ce26526842ab4f2cc269dcbd287b1dee3925753b6c95a292c046870ec47",
        "trace.jsonl":
            "0e7030bd47c90b39d7ece486720f19f73207dfcaa7e33c41e5f6d4c79161f89c",
    },
    (600, 30, 2): {
        "trace": "9f68666e5bcb537b8d9aaf33d1a15a240ddd577631aafdd8865165543e8295c3",
        "history.json":
            "750aed74a05eb13963df67a405f9f56dc0f74f88fc9d3d2234cf86b0f435a822",
        "report.json":
            "88ccf085b423d7928d965b51d38f423f58e2d8e5d54fe0a2831d8197ac29f2b7",
        "trace.jsonl":
            "9789f74c5d8f7207edc171725ab3515997dde5b633e85789016c3a8b67da9561",
    },
    (600, 30, 3): {
        "trace": "9c7808d74a53a5353a03e9a33b738dd3dd7de09c6078f93f1f7d87041c3ec2b8",
        "history.json":
            "3b15a7e8ed7d64806b873a7e2a0f786d743ddb7ceadd62f216b407c274e3073f",
        "report.json":
            "a8c4a0dc1f6091950d7bb1d6451964ee36b84b66be4d152428b6f05871361b2c",
        "trace.jsonl":
            "f9b161ebd870aae451ab213fa0e9ce31b20b2f32e7cc3bd96215a2accfcccf87",
    },
}


@pytest.mark.parametrize("case", sorted(SCRAMBLE_STRESS))
def test_scramble_stress_runs_are_pinned(case, tmp_path):
    step, ops, seed = case
    outcome = scramble_stress_outcome(step, ops, seed)
    (_, result, verdict), = outcome.runs
    assert verdict.ok and result.quiescent
    written = digests(write_outputs(tmp_path, outcome))
    stem = f"scramble-{step}-ops{ops}-{seed}."
    want = SCRAMBLE_STRESS[case]
    assert fingerprint(result) == want["trace"]
    assert written == {stem + suffix: want[suffix]
                       for suffix in ("history.json", "report.json", "trace.jsonl")}
