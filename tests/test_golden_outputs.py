"""Golden output digests: sha256 of every file `write_outputs` writes for a
fixed set of runs.

test_golden_traces.py pins the trace entries and test_golden_verdicts.py
the checker's verdicts; these digests pin the bytes the CLI leaves on disk
for each run: the trace file with its header line, the history file and
the report. They were taken before the trace-line writer moved into
`simnet` and began encoding each message's body once, so a change to how
the files are written passes only if every byte stays the same.

The set is the CLI's `--scenario random` at seeds 0-59 (one full period of
random_config's fault plans) and 2333 (see test_golden_traces.py), every
other scenario at seed 0, and
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
            "ebd42e7032d76250f76326c95d532f56512f154c9b0557af12276f67c98ff406",
        "fig1-0.report.json":
            "e7e3b8584a2112077a226b66cc770ca4ccaf03f16e2fafd48f7336b527076436",
        "fig1-0.trace.jsonl":
            "7fab18d2698874da0129416ee8d0e8bf31739650dd3b6049b5921aaf9474c751",
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
            "77e3147c094275dc5e7490f3e12eb0fe771d50b2f3eb61710957d69c88e22ad4",
        "random-1.report.json":
            "e79a7b21a7779d27da1a6888d0a420e8f96abaa8bdc819a9084256fc0a3985e8",
        "random-1.trace.jsonl":
            "e82d989df08cf01217600f734a3df734cba25c21dd66a27be8cc0b964fb36632",
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
            "7ab1ac4948a7e1931bc412ce3229257341b2b7a4e9f192be58492fe8798e329a",
        "random-3.report.json":
            "5f92a86c88b7506aa09dbd20255f49888a6d150d2e299544a8aaaf6f7af9f230",
        "random-3.trace.jsonl":
            "44e93125ac274d8edc9889dbe8565eb7cc377f6ad80c5783706e1430a6a43b53",
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
            "f0f1d1c634454ffbccdfae6758ac22c5c48d65609c1facbd2a3ae4866e4ac3d6",
        "random-5.report.json":
            "577ddb0fb6413bc53d74474b1824240fd44c9b7edc5d56adf06119e80bbc3513",
        "random-5.trace.jsonl":
            "1372f157dc2864d982ece29e261d1f16937d916abb6ba3e7b681e70a43b651dd",
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
            "2bda36282f3e63366521dfb3b4ab088ec35913ec8667b6e7052476a374aa26c5",
        "random-7.report.json":
            "546600ba23f3271ed0c63aed1c817d9454bb5c5572ae7f3f55cdf8e2dcda5fcd",
        "random-7.trace.jsonl":
            "099d02ccb96e9ac5df7c49dd06663912bf5771051a2e3cbef3bdea00c69917d2",
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
            "e4771de25e5c88b150975d314acf9bf1edaf51f144b3d3813b18b41545ad63be",
        "random-9.report.json":
            "b8d4df7fd38c6e10b5feb064130f0871096924b11e74334034b89a87107c7ca7",
        "random-9.trace.jsonl":
            "a9110651bea28e6f1dca8c1c7d8124fdc11e1820ee93b5e592348804693b1cc3",
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
            "e8e0f6117f49136fd44f39d2db7a8192656163cb1f06cc9bb3ced52d31befb1b",
        "random-11.report.json":
            "8b2e367ccaeb4f1f5c80f0319f94ee77edafa4d1bfd0592140a3e2c5f0c4cb09",
        "random-11.trace.jsonl":
            "a2b1f4d7662217dd2fff3c60449521bb8d90c97571eab2f462e127410b54b506",
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
            "1c45efec5ea763b6ac67f37001c756d0d63c4df844773ac9a8266f34e60ab797",
        "random-13.report.json":
            "70e07364efd3c06f626057662eb7c5fcdfd10d73edc1c871432cdfcb357cc8ba",
        "random-13.trace.jsonl":
            "0f6b9189fd76a731efce77ea168c3c641ccab466d09d0255f165b25c5b91d8c6",
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
            "c368260dc31b3643086d26f2a94b5b578ec3951d797818f46e6f03918006b0ba",
        "random-15.report.json":
            "9469ba915931a3ad2fdc3e6d818caae5213fdaa5557b4b351eda8ca65efdd776",
        "random-15.trace.jsonl":
            "a82e9e988056282f9c6965a295470455f947d91ad89889469c03bc26961051a7",
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
            "add314793a37de51866a2ea43aa6ead9c19e9acd2a96138e8e3b009ab5ad5552",
        "random-17.report.json":
            "4f4c2be892c71d738eabd034a3838b0a91ba815ff45e414b438ed1f692341191",
        "random-17.trace.jsonl":
            "0e41a1de5d668495616c98eb31f7e9f181752fab297a0881146e6cf82d52366a",
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
            "c567f4a608cf05026d3b06a86dcbe6d8ee30662eeeca3e032c7705c4fa20df82",
        "random-19.report.json":
            "2678ea83ecce46801623ff89ea4a75f16644911713c99e15e721272ea2108080",
        "random-19.trace.jsonl":
            "7dff3a9501640a5b8849555f4f7306808fba0f8069205161eebc9d54d040cb1b",
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
            "044595479ec16c7963a7387a6bb614bd52aa0a21f4ed96618ed8b022afa9e912",
        "random-21.report.json":
            "aded84599d87330c2a035189ab459c6f7660bc05d5bdb001395ca70f0b0e6404",
        "random-21.trace.jsonl":
            "3276d2d6554dc5607733c9273409ee0ad8c8dfe6b3f46dcdadcb249376fc88e6",
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
            "410ac195fd636bc7bae9eb52d633006ed54736d212dc3ef3ea23246fb4924e48",
        "random-23.report.json":
            "c81337d5941adae8772a4aa5c677eca86bb9cd8546ae6dddc512cc306fa3a254",
        "random-23.trace.jsonl":
            "3f9a331faadaf076feaa210a01d6aaa21b138e024fdc2a06a59ca88b11ddf89d",
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
            "695f344b4a2fe3be1fd1841aa12877c3ab1f1b57f15a9d0292996859e7d0d6b9",
        "random-25.report.json":
            "dc6113e83a9be5a92de74ee762b6bf852934de075cb8f1296da4aaede9d646e1",
        "random-25.trace.jsonl":
            "f51bc3ddd57bf80e4acf012f6191af0e139fa27f2dab87806f236904a8bea6ec",
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
            "5cadc24813b478ac2da32032ae7d36e797b814cea5cb4cda4b08ac5524269b48",
        "random-27.report.json":
            "05452db372ab9718e0418efca53ed7428926cff6440a186f55f362a49da5ba12",
        "random-27.trace.jsonl":
            "94ace83af8d1c8ea653609c3c8974cb290b8e462edbb8b1477e7dae328bffae6",
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
            "1255a5850c3f859c3e3c6166a4ccccb3b1c12c4d4281803cfcd95638a55627c1",
        "random-29.report.json":
            "f3105f5f89bc32d9186cad52da82d54ace145bd35a225794ea2f870a7ae0dbe2",
        "random-29.trace.jsonl":
            "1d79e551b5f4d623b63fcfccbf8041e4e3fa73f2b5ee470f550e52872a5f8eba",
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
            "802151160d9f1067c435a8fcf28d42c96af7207a7cd40b8602fd68eaf48378ee",
        "random-31.report.json":
            "e0228fc549fc5db89644b59598e009052cb6f0300c0be6fc0eb0f0aa96878885",
        "random-31.trace.jsonl":
            "a39f5ed0ba5571277df7b2c36e008ed23dde620ca8667d591df048a4eff4ddf8",
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
            "0c394dc3d3f78812b3c9a4938cb6f5aebbba9dbec9a5341c6c0507de9787f446",
        "random-33.report.json":
            "012c674dac6b78715419651b26c64668c5fc35deaf322882c9cbaf7b5d5de6ce",
        "random-33.trace.jsonl":
            "37ea7854f41e7291bdd456e99414ccbdc242ce236922a8d3b9894275522094dd",
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
            "5f5f474a470420dfe9354386f409532a52cc7cd925c370831cb35025b67103fe",
        "random-35.report.json":
            "191e18ba3081aff1081f927182077b222fbe7e3abf06ce1474b6510656ce36f5",
        "random-35.trace.jsonl":
            "6cc9b866e391db4ec5c523ccd21cdd0c5b79e47eebb1ef99f061a452331d56a2",
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
            "ab9dd178ef4cb41fc34130a1cd685676e01b49bf29726885fb15759a4bbd15ee",
        "random-37.report.json":
            "8821b2ef55f79018375d3c1cabaaaab27358b4df373eebb27d8cbc35daf8d335",
        "random-37.trace.jsonl":
            "fa025ab3f1da8307b87642a77a1256dd5cb9892261395840169f8147cc866909",
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
            "2976d97f7feb987e8d536aab32742409c4a48e3dc8b4d8aac3db7cb6ec89d5e0",
        "random-39.report.json":
            "37698fa9ce1e62f28acc142987ae8531b3b62fd37d86bc8f9dd329659596ebf9",
        "random-39.trace.jsonl":
            "aa9514877c186cd90063386f20c433d627b598d55723f0f2c9fa005ddaec8b92",
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
            "ffc7ab6d74df9171c202aabc1a253632448712260333ec60bb53a8cb0672f19b",
        "random-41.report.json":
            "e13ac563b8b80f2f1ecc005990a3494a741922f023cf67c0d30f4bec652be04a",
        "random-41.trace.jsonl":
            "72297dbb0042985df9ad2c9c6ffdd44276f9ad68192b93fedf6e300efde4b7e9",
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
            "9f2458b9c6a89784362aae9b7e02db50768bac09ec67df903ea531db2460651f",
        "random-43.report.json":
            "120efcd28ddcfab9179811673f0a61500cbd10da0d4fda93d7197c83617cfdfb",
        "random-43.trace.jsonl":
            "474e5ca8b65d2ef6dbf134143f30d74886af742611ec669f479e5f38e1481073",
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
            "5d323222d2c5dbb326a777ba6ebff2c9d7f622b73ad1eb864ea09febb006b906",
        "random-45.report.json":
            "3886ba4c3f48d356be753a62f2d00ac3fc6a02a33bec2cce5f2a5a62540bdcc7",
        "random-45.trace.jsonl":
            "2e4c1eebc56f77d1352e5f36bef333d3fca20597720c6d0fea6d5af63e67cc73",
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
            "6cf4fb7e2fd4a8dc256a9faa10c790311b909dc35d2dcd817138184584ddab42",
        "random-47.report.json":
            "d192de9fce8b724c14371ccd33cc233c64b2acf14be05c3bbba229cb7d121a78",
        "random-47.trace.jsonl":
            "e4b1a76e36716867ccecf240267df4dd6b853c6e1f42d4c48dfff52417b0b39c",
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
            "52dcba5180263e53f939f067e3478f7f06f077390728da8a589eae42bd555c2c",
        "random-49.report.json":
            "2d2119534be7d9d17f9a2c74c5858c618f85e8dcb55e22f55e13b876d17a771d",
        "random-49.trace.jsonl":
            "f24fa4853135219aa21c54b1e5bee1e9c1070500f5f5a1247030ed327ef240b5",
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
            "7b547a6021ada6394ef819e8179993dce6858090487109ac4b0e7cd15d5ea915",
        "random-51.report.json":
            "9469bbc07120fade4e71043313013a081f473ddb839f91b54d082f3da710c7c1",
        "random-51.trace.jsonl":
            "f71003ae20c8ed4df31257453981095891ea72deeed6a13409cfd816965d68dc",
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
            "dee810dc31d217b75743ea0f0379a7a7540898fbe352d34a76f14bbfca01aa1b",
        "random-53.report.json":
            "20ecd35adc5f4d96b368f395b25de2c78ae7d72b3d19f135b6c3448c926cc69e",
        "random-53.trace.jsonl":
            "7a9fe39b285739d4b0f95a9dafaae960c5cecc49333fc393598769c5636a5243",
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
            "1c3b333efdbaf8b02a7c279735294e7268bd18f98f4b047fc61f8133d0714297",
        "random-55.report.json":
            "d899b47313865a031fb5baca763f520aef23c2eecece80b28c79c1192fa83db7",
        "random-55.trace.jsonl":
            "9dd169170478397a072f4ffe0685d5ae2e601abe7e7e6e73678148f4096eaf59",
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
            "eb11ee0cb833e23a38e45b43fc91f04a3c25b1bab19b8d217c2a00db11370f01",
        "random-57.report.json":
            "5797892ff2e347bca1ab5f098113f38b0c7c2abed3e282cf7ae809890cc1cd66",
        "random-57.trace.jsonl":
            "e267795e2bb61148834ed8a05fdc9bf030b07a6c6c33328d75bd3692ce5e0d85",
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
            "9acf2c3ccd1a3bebf4b6cd97c7825a60eb5ba4a0b4b1e62ba1e4af9ec5633a5d",
        "random-59.report.json":
            "a3102c0d32e4906878440cdbba87914eba3c810895c0d9b29bce8ba354e0166e",
        "random-59.trace.jsonl":
            "cf227c054dea143cadd0c6095d33de7e56a70feb899dbc58ea38a9fcc0b98a8f",
    },
    "random-2333": {
        "random-2333.history.json":
            "75e6eabb406a7a1eddf2d2431b63e9b9e6e6960dc5d14ee60f6075481cef059d",
        "random-2333.report.json":
            "3ab7a7176ae3221b60fed11a3db802c5fc5733a223fbfe5eb8f9476b2c98e70c",
        "random-2333.trace.jsonl":
            "183e7dbff06f5e259f0c3aadbef6b188be70f6b1d8c5220afc82b33d2af22e34",
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
            "f6304cabf8aff4282f5ac0d4cbb15c1badf9e2112fe55c611c38a992d7212b26",
        "random-0.report.json":
            "ee6e483b45bc20344f8c3d7be76e3953bc7accd280a8545f381c92d6c5b66d07",
        "random-0.trace.jsonl":
            "9b27803028176d0fb6c27f6d34905934ac525069fc72438c3a3f4e9b557afc40",
        "random-1.history.json":
            "32252f3d7c6a40dd16a25e887abc03c6b056bed651623c61f8a722b0486e8908",
        "random-1.report.json":
            "24d65ccf6e77fe9c3ddfeae3cfed0a38fb3d668a27218c0ca272110d34a520c3",
        "random-1.trace.jsonl":
            "eb456384e0deb96a7346ebd73b7294ade7a26c77640d900eba2c413312017457",
        "random-2.history.json":
            "730e372e340b43b0d6e66aeea4278c6c69594ea4c27c26e51b9790bfe6351686",
        "random-2.report.json":
            "d92bfc8458951fe77aa692d7c164a08812ea49b31fdcece494320e54d00d8ada",
        "random-2.trace.jsonl":
            "a6b1d3973dc3b03d9d6bb449aa12a7dcc58a51f749c87c7d265f01b89daa1527",
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
        "trace": "4212f07611c6d0693feba2ade15f62f278e19686e045bb71d29db2e7c6b66c7c",
        "history.json":
            "94f752984d0502b49cefb1e2d3e8ab3f64ec4ed422940a0f435eb0839ec5d3ad",
        "report.json":
            "0e39ddca50b0afcf4a6e6e8a2ea444b20b9d99ba564357f2ed42a17def928a4e",
        "trace.jsonl":
            "c15244729a5d023775a9c599f58d691472932ea680ecd2c3b68edc9d9be5648a",
    },
    (60, 12, 1): {
        "trace": "1ba4ce64b6a7034dc85532b8b40b20beb31743b940170d349076a975d429dddf",
        "history.json":
            "4e0de012927d64e0bb5d5c5c98fe6418ecc3cf7829a3b85b6a704af8119140e3",
        "report.json":
            "e97c115d7ef55631013848c68b90bf24a4703ede50aeb18c93aaa5daf8c19f82",
        "trace.jsonl":
            "04fef2e0f9faee05495659aeb085dd3fe829adb132a8add3b3d4d349a478c790",
    },
    (60, 12, 2): {
        "trace": "f1d5c1c0c2a5566415843ba11d7055a5c62145f67f039a46ed2f7916ada66780",
        "history.json":
            "89584d93c94f766c7dd0f4d7541d60ad2bcddd4ea2c9d21cfca8d8098652809b",
        "report.json":
            "9a1640fea1c786793993a9dc083a6d6bed126d407695d168ecbba502e5fd2a1f",
        "trace.jsonl":
            "f6bac692522a9d94f03934f2ca13780f32b467a7be562adaeba376db9fed23ed",
    },
    (60, 12, 3): {
        "trace": "7d098c1ad67ea38d3716e4e40783f62aa92889c93ed54f88f8a0ff1c3e24544b",
        "history.json":
            "df10220728bc25cfa147bd8f833435d69dea5a3a5c12f559d3008a221622ac15",
        "report.json":
            "cbf51d976753ee4376de8a841d3d7ef27fd13b90c526087bd18b4f147510fd05",
        "trace.jsonl":
            "640754234fbe5b973dd9888f2adf990c3d162df249ae2d0ce8f3d28d17388f04",
    },
    (60, 30, 0): {
        "trace": "069d2e513ea03a06795ab7071166c3ff7aa92f6eee72b472442a9567a3fa3694",
        "history.json":
            "bd717594694249849d15a548d07d54c19a82ffbc20c3668180f1d64687c493a8",
        "report.json":
            "5e1c547ee85d69adb00efd350eaf4d2d389e9364f35077aef0a32027e6ce87d9",
        "trace.jsonl":
            "65d0f9355dfe95e8caea0717d32692112d1af94b712e7683a26add3bcfed6e54",
    },
    (60, 30, 1): {
        "trace": "7f70f5d7d8850a79ea1331ea166957bdb0a122f08e16010268666263bc911584",
        "history.json":
            "e11b5acde44dc3a4fd8a5a3104dd3f0e4dff9b478646b41b60adbf00fc5c60b4",
        "report.json":
            "dbe314491e2496abde80dc46599c696baccfba56de95485836569236c83670e7",
        "trace.jsonl":
            "9ff6926c405da15e62908f0b028da9a2d73d67527c71df082423e39650c4d79d",
    },
    (60, 30, 2): {
        "trace": "dffeff0b48472d9318780e1c822226f3c24f1bfb9c3b0a97d80fc6681d1fc6d5",
        "history.json":
            "469e31b7f108871ec292faaf8836200b707483b2fd47d158759daf00e87278ae",
        "report.json":
            "c07e2789910b5c4fc7ae7d1f1db159ba80b564b2932487507363ed0e91f31dfe",
        "trace.jsonl":
            "89db9808ee60bc362f5c0ac3eabe663148c84bc9a56dc0016395da6955b9074c",
    },
    (60, 30, 3): {
        "trace": "226fcaad56c3b34dc96ad4eda0831aeda7835b7455ba6b318b1b508c666757ef",
        "history.json":
            "388b6b656cf1be4640efe3baf70e5db86ae87814c2021053543d5ea9d924a37b",
        "report.json":
            "cda54c8801173329eeb73b4a7da516edf70b40e262e4fc3f995515d9785740dd",
        "trace.jsonl":
            "6b4f59e6793536f16302c94ef566c177b8f872c4220fab0e17bf7570eb0c8346",
    },
    (200, 12, 0): {
        "trace": "6ea507ca831efa4bddb82b9c061907670380c2ccf68510d9557fc25e6678f050",
        "history.json":
            "32c7c82b9706ba9074f3e85aef1a19bc3db4590116b5fee8962894f597db52e0",
        "report.json":
            "41f14e206f9426ac5a0d4118e86593b30a6a541dd650577dba477f8a19176105",
        "trace.jsonl":
            "4a96ceb9c930c1555226f9a6b2fde06c8f74c479eb91968343f2106848e77df5",
    },
    (200, 12, 1): {
        "trace": "e5510099e2b17f892c5695bb54361a7e550993a3ea2f96635b458a6511bdfefb",
        "history.json":
            "00a1a87968b974145b046d290a694f0b6332a3f453aa5738fd43161e4cdbaa3b",
        "report.json":
            "b5954f1f76b976dfe9a5ff0a8ac91b14fd3d60e7b7933264b9545ae116513c25",
        "trace.jsonl":
            "71726258964797a9fa1cdfd70475abe6677e90132966e64dd5710dfbf0275470",
    },
    (200, 12, 2): {
        "trace": "48414ac92d517cbed829448087f7e3f03a8aeaa2268bed26137eac25739aef01",
        "history.json":
            "cea76e7b2330887e81bcb0a72a56cbe9b77183a412bfa784bf9a301c735225a9",
        "report.json":
            "959fc1a456fd0b3ef3291718615af60331a184d05ea37011c1b011b8f78e389c",
        "trace.jsonl":
            "3515cfe2bc0ed6d7b60463a486f084e2acaa891c18f321100519bab1652e1e57",
    },
    (200, 12, 3): {
        "trace": "4d0f0f4334b2f8c8d1aa8e3a0fee529c08a50ae85efca81931dbf9ecb4957683",
        "history.json":
            "d985315673b386bb56b789a6131cdb6045fe8390e0b9066eb981d1f31489630d",
        "report.json":
            "4c5123d56fca9f8c10d08700b37b8b5d0a0d3b810753ed6814fae4e33213724c",
        "trace.jsonl":
            "a5d6ca3fe2379869c4b45dd95f2be5d5b4a3b74720ccf067d26df17a33a9a013",
    },
    (200, 30, 0): {
        "trace": "e50d557db5f5cf2e9ea5a983ef0d6b427ce3568e590f3434d139a811c7a5283f",
        "history.json":
            "af7943b002b29c3a49d9a32a25568b002008ed7fed7c0fb2b01c5acd139fbe4a",
        "report.json":
            "c4844e7c5d01457d6ecd783f7d660453fbbcce18a86e3f201e5750b85783503f",
        "trace.jsonl":
            "846f90fe066942dfc56d40fe79544c57778b6e30603f838ce80e3bb1c33a0298",
    },
    (200, 30, 1): {
        "trace": "205ba9b3e518f80dc5328e391a59903adaf3cba71b4eae35791cc1037633faa3",
        "history.json":
            "f1b32d0c6d7a6064aa554c0e4b6c68c2289623e1792d2e71e2e8944eddd5d097",
        "report.json":
            "034bda3b42792af653f399d7a3dc84514baf9eb1fee6acee5ac38e397f4fb6b0",
        "trace.jsonl":
            "eb402848c66daa633f86bf341f3aedd31c6ef5a1bc6d21718accb65e7b1935fe",
    },
    (200, 30, 2): {
        "trace": "d52704d2db58b12667022d32d72d18bd513c5fbdc06c7e3de107eb5ad520583e",
        "history.json":
            "405e04844e0b678ccce46b45d8dc591ea5ac5c66c2157d93864d3ab976cbcbf9",
        "report.json":
            "3c19df05f003ca941cc659f59212a2b27c54113882f2b1a9ce96cfae47c18369",
        "trace.jsonl":
            "2872f9f67c94f1420819a30660d2c2128af60dc51302da066f8f1e38f612670b",
    },
    (200, 30, 3): {
        "trace": "4fd973136d54f1e844820cc90aaae64a8c6aa11b8cbdab494943235fcbb34b59",
        "history.json":
            "21293aad0b5bbb0e2b97ac761ef116207123e12bd953c0edab6eb116314e36ad",
        "report.json":
            "b55de0e2eed5d239e1b392e0cf6f19c6a910d3cdb10770c6374e806ff08bddaa",
        "trace.jsonl":
            "d650bdefd039cc8d912b245812f75f1d640335097ecedd3ce3dec20a053a4aa9",
    },
    (600, 12, 0): {
        "trace": "27d6b275b708bf74aa2a9f4249394c12b24620783490e29e7beeba1646581de7",
        "history.json":
            "d7cc564ebcaf85cfbe07d1f3568e8045bc7c794cb39d95914df76c50318b59ca",
        "report.json":
            "2d35e7e6982e578bdcb968f5d4245a52a8eeec45f7af3299639e22378dde5148",
        "trace.jsonl":
            "ff41ad1ad2ad47c8cff54b74bfb3db18f2a4590782d42f7ecf6d22c7506a651d",
    },
    (600, 12, 1): {
        "trace": "6ca6826775152c244e9ba50642e4285ea00d4eb006e223dbde1408d737d8467e",
        "history.json":
            "738988fa99bddd3974478837ec8bf646646ace371e4e41f50dda558766d65a07",
        "report.json":
            "c550f0c45468324b1d0e5cbfbd266616a4edc640a67e544b340178d51247e75b",
        "trace.jsonl":
            "06e96a4657ab26f8e215f9937784865f8176ff7aae5d52b44383fdcf6ce40a56",
    },
    (600, 12, 2): {
        "trace": "34959f5706da4cbe66b20a7364d9da81b7fc68700da5f8afec4c2b8d46b9f75e",
        "history.json":
            "a7a5e20dbfaf208515193f42f767951e285ea6759216a2314934054f76cb3806",
        "report.json":
            "86fa2da0f143bac2b60af891b36eefd0d353b11c1992c905197cf2c6ac223a70",
        "trace.jsonl":
            "3b0010bb7f4ce98a88b35b538dc93cf051578f7b85f49a728b39ae495bf2b952",
    },
    (600, 12, 3): {
        "trace": "488d274c54165a431b58a721a3fad6e377987890d815cf14b14cd2ba5ff61e47",
        "history.json":
            "40ea47df6257a6e6f7c2e65f76527f211bc1bc9a1aadd43847be24ff660da6fa",
        "report.json":
            "d7f09d8e5ecf3264d68050668b3014637649d5c87cc05e83adecb12ea89340c5",
        "trace.jsonl":
            "77fd758bffde7613411d8a1cb421c3d5c55a74cb93fb33000555a1b87820c506",
    },
    (600, 30, 0): {
        "trace": "1ea6d28d1257f95a59dc5827e5237a5d11b21ed117b8a60b9e99408ddf9a7777",
        "history.json":
            "38da1aa34a6e9b440c6dd01907b0135d8df675e0170301274c0f65db2bb868cc",
        "report.json":
            "96178cd4ae894530293a625b910ebfbe83fa49cd3827b0aed6c07f5912c27c95",
        "trace.jsonl":
            "e09fe1ffffa7c002021e1221d47ab87ea8c236d5f08afe260bf2f75b9ec16de4",
    },
    (600, 30, 1): {
        "trace": "749e5d87083a38707d46824823f0804fe4a17da2b2cd857dc8c0b5fe3e7037e3",
        "history.json":
            "c5dbb36af12c4d853bc875cd2d7f4121e0bae4b02655884baadc19c2fc9360ca",
        "report.json":
            "d78db40cadcfee7339563584356d7592497cca5e10f8a667bba84a557055c5d7",
        "trace.jsonl":
            "b69fc72e3710d5841d66a3a1a25df24cee0ef25198b83f8addd828a1c7a67233",
    },
    (600, 30, 2): {
        "trace": "a66ec0affe843d9de5ab66d3ddf15548d753dd597af3fcb62212b9af1f112dfd",
        "history.json":
            "976578811729163481be973d9832af22e4eec997d893089e55c8f692846fed83",
        "report.json":
            "4fde9c814f706c33b697936989cf956e47908d723cd1e4f23d05ea58264111cf",
        "trace.jsonl":
            "eb226f94f15e8416815e491175b75054dff26212916d7ac7dd86a7523ada6ba8",
    },
    (600, 30, 3): {
        "trace": "489ab5e583da31b6862901797d903e30eecb79ccfc54391cf231b6a4f97e05e8",
        "history.json":
            "0387bc0f681c797d96b4125e6dffcc5ca8b9c4799a2ce528f83c3ccc5e9da393",
        "report.json":
            "2562c420829b65cfba3f250b651e600e50ae367a5da4ac5183d05bd68dbf8a13",
        "trace.jsonl":
            "e17507b6e2a308f1c35646b1ba5ed39479711eacfb7aac824d0d50b32ca1312c",
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
