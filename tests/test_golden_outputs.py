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
            "9587b7c5414a24c2ef0f7f64d92a1e8a3b476a56b4f80b0f2a4ab5d8eeee7ee9",
        "cli-long-0.report.json":
            "9e0c7899268fdf7f2d9bb2cf142dd0c89974714f0cd1a21cb1d9323acebc5d2c",
        "cli-long-0.trace.jsonl":
            "00de96f3e80c889382290a1863e372409777c732bd660f8f495fc4c2af3fa27b",
    },
    "cli-long-1": {
        "cli-long-1.history.json":
            "7ca1e83b1c51b536d3f9394d68ce0572fbf35b68d5e2e8e03b28ddfdecd413f5",
        "cli-long-1.report.json":
            "fdc517d06cb1250fe8c265943a5fa401148960f74287a046fb232142632ce9c9",
        "cli-long-1.trace.jsonl":
            "1b299f2483c82ca116d3594448913a00bc43ec1485c195c6ed6579453df534a8",
    },
    "cli-long-2": {
        "cli-long-2.history.json":
            "6ffacebc523f61f226b9b0de54e2baa20190d4e0f2037fca6a67d5a2e3ddbe71",
        "cli-long-2.report.json":
            "9b048bf6609cdc65e16c42cec999f63e4137ccc20951a6303849ccaa45ecf501",
        "cli-long-2.trace.jsonl":
            "e60fc7b2b27616e123da6f6a2f1ceac4f13571956c6ea9a160614df151234061",
    },
    "control-2t1-0": {
        "control-2t1-0.history.json":
            "734cc4b512431e482d51eae8bfd1ff8b620a32b8b2432d5d0779e44897709ad5",
        "control-2t1-0.report.json":
            "8d0df57c82baea5171cf38c4f8b008cfe7d14308ea5f4193eaeb9be403f38250",
        "control-2t1-0.trace.jsonl":
            "a8263e4a9de559de14486311b61b3ca9bd947efed635c2b746011e66d1e6a44c",
    },
    "fig1-0": {
        "fig1-0.history.json":
            "d7923a286bafa11ecf7597ba5abdad9e2522d6f8ae05c5d215a4e656a7085c37",
        "fig1-0.report.json":
            "666edca8754148485885c99d8bea2f94b8a1cfa89eab149d8500186390c65691",
        "fig1-0.trace.jsonl":
            "e39522a827d3836202748c3766a540aa8fb95e555d08cfa02641a3274197a26c",
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
            "1a8dfbc53160af54dc1258499fee31736bf484e24db3ca878c460f7707102fdb",
        "random-0.report.json":
            "b4488e931aeaedb152b3f49bd0b3559cc45af611c9387b7a8b23a572cb2914d3",
        "random-0.trace.jsonl":
            "514c61c3acc694871eabd743dcb27c1a47f607b70296c2e8e6b2e2fc3c4fa4f7",
    },
    "random-1": {
        "random-1.history.json":
            "b7623c1601c9c1d48c3033660e0afdb3beb3f19f32ddd67502b594122e73c998",
        "random-1.report.json":
            "50fa5a73775827f92d0050fe0f7ca68677b0b476ebb38581ef51dd557ce6e9e8",
        "random-1.trace.jsonl":
            "571239417c0e3c40c6b591c8dd1513d092c2165fd1adfb4f477ae6d394ac20f3",
    },
    "random-2": {
        "random-2.history.json":
            "9ec9634284b08094e473edca0e375226e66cf4424452a45e286bbc3db80d8d05",
        "random-2.report.json":
            "e608d516744775622927a4c6d0ecbe378cee40e3ab5994fc4841f23b208da0fa",
        "random-2.trace.jsonl":
            "b9d77cbfa9b070d8ed7c4d04fdb436e765177d92332dc2f6435e21f29e543c48",
    },
    "random-3": {
        "random-3.history.json":
            "cf232e71f79e1e7f4ad6d7b0245d91fc851fec5d03da806e2775a65b527efe9e",
        "random-3.report.json":
            "8f0384ea1f7a88f2b42805254112ff36414cda4fe15c59cf4dc5c0fba4592c74",
        "random-3.trace.jsonl":
            "d8bd34bc79fe4b9952729db4a211e32a7d481e84d01d93fa70b2ec5cfb20b209",
    },
    "random-4": {
        "random-4.history.json":
            "ef9c97d1b3dccc4bbed5eb15ed6f695e73e486eff1d67df91948b5c9545718c1",
        "random-4.report.json":
            "c15928b3eb75e7991e36c2f15fe9281ee73e4d0ebd75beae8f00d7c65cf79ed5",
        "random-4.trace.jsonl":
            "6b4f9aa14afff2b9aaabbba854cf3f6014bbd5c6cd6b40af6f05ea53ad26b522",
    },
    "random-5": {
        "random-5.history.json":
            "f003a0b1f865e54b6128506ff0d280c9e0f3c07dd06ccd14317d761994511752",
        "random-5.report.json":
            "e183559e0af4599216e65660b228d2158bbdbebde6ccc7293ac25225c59d44a9",
        "random-5.trace.jsonl":
            "68ac6bd23a8a85c2eb31a39c278f568692a988648792e9e020b06ea88e05d065",
    },
    "random-6": {
        "random-6.history.json":
            "6033fcc695d83c55799538db832ea8bd90e3b8d2f7fb992c78fe6e080bccd675",
        "random-6.report.json":
            "3b06b9c9d747fb8fdb6746b52dddaf654231fa8449950e7ea989966538105376",
        "random-6.trace.jsonl":
            "7e0d2ad49e8c7e7a8afd3a0be8fa883806e4e72fdfa7a88818dbd6af77953b1a",
    },
    "random-7": {
        "random-7.history.json":
            "5dabcf8d34618a0f0c9d168acc1d735923748b8288c46b82e4a2d7f5667a070e",
        "random-7.report.json":
            "70b4caca407388760ea566d98223878cb522c344c720bc695c0073bc5463144b",
        "random-7.trace.jsonl":
            "f91b25a7bf4b54de43b9a599169bbd96b0ab0f00d0ab0ceb3d7621b0cbf6fdc1",
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
            "466b7169e3e5b6cfc5ec03cbcc649014239902f192742333a52457017b6fdab6",
        "random-9.report.json":
            "536a765a073e62f3757f58e1430a5ef0f6ccf122e317df754d3162f1693be311",
        "random-9.trace.jsonl":
            "b970c1de0514406df5c1f87c75c1e6ededde8f9966ea9356b7df4a57fa541a31",
    },
    "random-10": {
        "random-10.history.json":
            "8d4b06af22acb2be3be81a1e4e69a58c929936b827b55addff1a38c863513b9e",
        "random-10.report.json":
            "f55ef7e3bb68d351ab601988181a061e05022a82219918b09544189d203cb435",
        "random-10.trace.jsonl":
            "4cedab42b9497604b8869864be7e4b3b35dba571feaa95e16aab194bb937ca94",
    },
    "random-11": {
        "random-11.history.json":
            "4840612353a6a52f8ff1445f9f09b4b70d3a7ec8244f641ad9ece580d8ab00c0",
        "random-11.report.json":
            "c5c6ef1ca25c0fa37856c0c9311fe42aecdec66c41f1f2dd6473aae6a48ea07f",
        "random-11.trace.jsonl":
            "5020aa3832d3709a3a7d747086a991a1226edb7ed1e3e890d8cc488ebe71c389",
    },
    "random-12": {
        "random-12.history.json":
            "738e6036b675813259b17fb8d09e1b47d2bd4fe1d1fef5f1d2773a7222e0d3b6",
        "random-12.report.json":
            "aa445c8403b0b9b7c080671d63d28febb10277a931eb7ec1e4a8283152762692",
        "random-12.trace.jsonl":
            "acf30c4a251308479843802c478acc1c944ef7c4578eccb35dc8f43fa45206ad",
    },
    "random-13": {
        "random-13.history.json":
            "024fa733358fefec9c809c5e79423bbe39dd5148b282d8cf681d2e0c002bf832",
        "random-13.report.json":
            "7bf89a14a31d1f680a94e8321340aa92757526e7d2af341766d9c3ce03284634",
        "random-13.trace.jsonl":
            "5885dfde44dd2035e098efa419a358ea8c75ca1d4d558013ecdfe2b4e1555efe",
    },
    "random-14": {
        "random-14.history.json":
            "0d7686520ce54b1bd5ffdac140d43eb70f1e23458192c81d6016d713f45e747e",
        "random-14.report.json":
            "21a6ace4a399eed5a9290cf88bda23647f902f7dc8c936a9dc2f06eea600f68f",
        "random-14.trace.jsonl":
            "67f8e94c51c3d669c36560829f9fafe9508e3249e1e9184b569e9dc9c82ec162",
    },
    "random-15": {
        "random-15.history.json":
            "7d8f926be2858fdda3d64a7e230bbd96d5c866ed6785990fc4e990960185dc57",
        "random-15.report.json":
            "5078070c52a280b96fcc97afda896e42ca0249e37f77acf92ecd21b3a3555fc8",
        "random-15.trace.jsonl":
            "5cfec905c9dc3992428930cee8ea8edc52f06e0226bddc1f23d5ad2cac7a399c",
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
            "f58901d53727972e971522221ced97a28dba6913ea536aae9faf5396bbeaa783",
        "random-17.report.json":
            "63249f2b8270d4acacc0a9e540a194f68ab7ab7cda508b18b25594cdf9a91ebf",
        "random-17.trace.jsonl":
            "3e1cd1ca22cb9d4c1861b0fc54e62ed53bd7aafcbd5284350e643f5ec7eef0f9",
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
            "a74d942868afa178676acf340728766dcfd1977dda1bce459c7e7b1d7f840f12",
        "random-19.report.json":
            "941b407d6546ac4a6693eb88e281a8cda4f88a6fc731764c2e6040fbbc2697e6",
        "random-19.trace.jsonl":
            "5533559f203d3f3787a898f260cf8b171e12b3b3eaf01bfe1649c23df2676fef",
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
            "560b4fba0b9bfae671cde905f63bf68c47dab098f290fac2f558b077340bd6de",
        "random-21.report.json":
            "e3cf9393f04d6632887d44658a9b3ba239cef0c6ddda00294885c55640590d41",
        "random-21.trace.jsonl":
            "d729525404d679f904de0f388beef201204671cdbfe26f26f9a948b59cf128d8",
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
            "dba1e5271bca7734462dd0b3fcab22eb1e7d6794bb2438dddbfa48bd08478c86",
        "random-23.report.json":
            "32f39cb942ca55a75ebb8bfbc6fb3c9162faae7d2eb54dea3ec4b102907f82ec",
        "random-23.trace.jsonl":
            "a79efaf2624b9100505d0a2d2c57927a70017db09c5bde7536b078a93038d441",
    },
    "random-24": {
        "random-24.history.json":
            "bc569fb9689c517dd41195865cb9012cc54702c9107a4790334b608835f68c97",
        "random-24.report.json":
            "05a598bad22d5e6394d893c5600fe3f70382a53387c607218a45137f7a4c24ef",
        "random-24.trace.jsonl":
            "ff6e7456f3bd0efc28b918e57ba053c055fb11288a556cb91a1eb98047e46494",
    },
    "random-25": {
        "random-25.history.json":
            "7e5391f63633b56c59bc38f2caadad10fd75e8e670a0dc887aed8410dea81a97",
        "random-25.report.json":
            "835376eb6f7739b8c8c1e56ead58d62fa2fa2f1bee8b84cc7d71df3489d08c70",
        "random-25.trace.jsonl":
            "fddade2b25f60d10687962ff3dbec0a1dcd205234c1c023bcb6b1e093253bf88",
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
            "7616e2a2b2888c513ff21d9f470f9b10d9bc492e9f7c3c3ec12c7a749577e0e1",
        "random-27.report.json":
            "a587fa064b17bc14497356e29f7c31885b3a13eabbd4c95a240fee440815b54f",
        "random-27.trace.jsonl":
            "013e69f40e6a14c397f444e9e8d6372e233cf02693ca971cc4d477ead43128d4",
    },
    "random-28": {
        "random-28.history.json":
            "96385b7a376ba5815d604c7d358cffbf7f2a51a7ea0c1b106d5eeb132ebb955e",
        "random-28.report.json":
            "2c8c5365f22a1a08207c133c23fe4df9a1e17e441d440bf3a7b811d82901d90c",
        "random-28.trace.jsonl":
            "878c20202c87cea63ff5588f2de5960793d3855acc4aa25619a5767ff6c7ac09",
    },
    "random-29": {
        "random-29.history.json":
            "3f8b2204a11c33c15369ff78f3916a271a636587fc7034d1b7b999ee81d2ef32",
        "random-29.report.json":
            "6a605f051dd8b65cfb67e25ad1436b07f8bcd86b36592264641a264d72e683d9",
        "random-29.trace.jsonl":
            "dda5f7bd961e6390d5438e715d231b02a0ce1b2e328c7a9de3bee7ca1bc6bab7",
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
            "fa9415d0221d842e16a1f73f3169bcfc75244e378424ab8cd0197219b95c9e24",
        "random-31.report.json":
            "84ca882b223546c90413fb8dfba2f188eb12a68c13838f7e12f0a2b5c995224f",
        "random-31.trace.jsonl":
            "9aee542cf44c9b6d10eb82710e031c98a165b0a18027a9e8ee27c05c7a7e430a",
    },
    "random-32": {
        "random-32.history.json":
            "f74cf01f6781802fc1f02356103fa8e85364d91d37c2baa0770bc90818fa8bfc",
        "random-32.report.json":
            "c64104619fa74d5e462dcf0be4bea41e85a5c3cb8373bbac9056c041c19b6049",
        "random-32.trace.jsonl":
            "1d1599159e0cf58a3ff882ebd5d16e71e62d36e09814b86a1652c2b0318f18a0",
    },
    "random-33": {
        "random-33.history.json":
            "116f606681baa67727512e98c6fea9262b271838d03da318e56300e7e56654c6",
        "random-33.report.json":
            "fd6c855acad061ec4ba4d6ef7c1852c3aa8290950d74403a5dbfd8a342a35eb3",
        "random-33.trace.jsonl":
            "e4fdbe43414120bfac44bc956b56f78ae02a5ee4e05dbd949122f33b7b08c5b2",
    },
    "random-34": {
        "random-34.history.json":
            "d023b9ec9992e1faf30654e46db487bf28623cfbf58b1809fac5ee6bd776cd47",
        "random-34.report.json":
            "6f8634ed5cc313dd567641e6169bcba6ba4f7f0f16cce75349351bfc66ec259d",
        "random-34.trace.jsonl":
            "62515a8c4cc16d9b51754904aee3140217da2c3934c84a420f760388ce7c7c54",
    },
    "random-35": {
        "random-35.history.json":
            "84da872bfd79cfa988c0913f742f3a6d62f5b9ee458a4e625902819593643e9e",
        "random-35.report.json":
            "21906466c6fa445a6f80f58269b90086a8eb914a70c6a397b07412696d5fba25",
        "random-35.trace.jsonl":
            "2576bf23b226b07e06b404880c2d3deb8bc7f4fbce16a5ef8530ec4dd0618d20",
    },
    "random-36": {
        "random-36.history.json":
            "6027ad232d1ae8993e626f1000238fdd1e9993ba3c1abaa20ecb9ca98e8e58f8",
        "random-36.report.json":
            "667258bd3aaaa55d046f0743c2604bae69ed30f676af60e5eb00a709d262418e",
        "random-36.trace.jsonl":
            "c6b6487f8157a646aef9f804c4959b94634ff0653a49a6964432d1fe0ef8f27c",
    },
    "random-37": {
        "random-37.history.json":
            "eaae9f0aca9575cda464d4c36909ef43230960b56719158a427c1e104f63e240",
        "random-37.report.json":
            "a2565ed23c7394101f2d352d75eb65307e228c44097384a606fcdb766aa82816",
        "random-37.trace.jsonl":
            "18b25513386406b5dc79d02769e843a8eab5822e13620d0510dc3a98b20ae89b",
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
            "08a657d3ee90c0fec58ad2c442bca511f7180d3b703f0a27f29692c68e40f9ab",
        "random-39.report.json":
            "179d2b05128ee66ce71888ed0ae1ba361ff1dd90be1ce5a923940f8c565077ca",
        "random-39.trace.jsonl":
            "5e247a4b383988bba823291c0d7aa2c898b3d2eb5d76fdeba37d996aa63eab51",
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
            "4255c59e47e5278921157e952b9d53c2ad5d24d5e463ffa68579fa7e8e2d5e72",
        "random-41.report.json":
            "ea93ded99146be608bcfc263728a74a087e5438ff16e3056d836cd376ac9c045",
        "random-41.trace.jsonl":
            "d581d9e4a2e48af781564d5391ba5ad32a4a92afb991eb9fa40ead55b9962f2a",
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
            "bd12affa52effbf63641a53f425aa338a491930bd5393efe1d345474b346aedc",
        "random-43.report.json":
            "eac7bf12d765913d0371f92551522b9870d0bbbc66f0c65313cc8112c4455178",
        "random-43.trace.jsonl":
            "4772e3b55a2a6c9db154d633a14b194ccc91b594540117070e624ba1f8436b6a",
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
            "df324dd064d3ac00ef65525b66e78698f114a646f8126c41e2afa0c4d6a48531",
        "random-45.report.json":
            "153e4059099ac14dc154e519731ec9973936115abc3c3f8650f4c72e79175e9f",
        "random-45.trace.jsonl":
            "c6e04927e2a110f13e6105f266cb256a389d1eb809a29751ef24f5bc6d37d332",
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
            "96b9bc983a50d9f08a202f7337914ff1dd0d2ab39e8fa48ba6236d05cd37028f",
        "random-47.report.json":
            "07ae026a6a51e040a96fc441a1671e8bd4547da023497792a7e30fed91d07cd2",
        "random-47.trace.jsonl":
            "4e2c34cdfcfa1c86891d85e84a819a707e99151b1e58457924931197f202d212",
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
            "b9d84bf93717abb3b1375270fdc3bf8bf35b875a17e639594367feb322528112",
        "random-49.report.json":
            "57d347e595557d6013a5f7efe02e5280dec032227a7fa8f924212b2fe747151e",
        "random-49.trace.jsonl":
            "07bb9b78bd3aff81f40ef237a6acae5f9c12861cb9fd0d375f80aadbd1ad3667",
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
            "7b7859e5f362104a8fe8b8d3dd1ca0ec66a090b834b1a9365f53442555d702ca",
        "random-51.report.json":
            "5311813b9f4c1bea96604414f04c515149ed4e13209bd0b868074f3292c00d29",
        "random-51.trace.jsonl":
            "479863655be91e52bebb7dc12bd89adb7f244f53ce74a31f2b30266cacbcd52e",
    },
    "random-52": {
        "random-52.history.json":
            "d1ef35f71fbc82c384d916c7d1e347c07cf07abc2f5310c7968356a672755ec3",
        "random-52.report.json":
            "60f143eb7a0d3c82c339b124d62dfbdb21c98c0394165ea17f29903c3215a73a",
        "random-52.trace.jsonl":
            "9726389e472ffa883215bd5c3f181676d8ef239895b71ebfa677fafccc0ba682",
    },
    "random-53": {
        "random-53.history.json":
            "c632da562f4634dd0c95a22c993b9c699a12c19ca70803e69a167293fbcaa5be",
        "random-53.report.json":
            "128f6fbf6f9ce10bf7f08c6dda187c5eb9b3746ac89fc3dddcc54bea516a0274",
        "random-53.trace.jsonl":
            "ca2009e5528623c776ec60e78729fd24e95d1dc51b6c481f50274b42eaa64a83",
    },
    "random-54": {
        "random-54.history.json":
            "5f03422a4b6b27b2a2354cc415b64eb838ed0aeab4f15957be923844273e1c3a",
        "random-54.report.json":
            "bfe97f1d54e2b45d8fb68347a65eb601f6240747cf7e9f21ddf0c6476b907541",
        "random-54.trace.jsonl":
            "f35aad4ab20de716f1aa3e6fcd3e7ce384981589b49073ec90297d475eed3b37",
    },
    "random-55": {
        "random-55.history.json":
            "f172dfae4e78b8bc1c5324fa130f1ae5c3e10a42cdcce54f1349f0dff5ff3e88",
        "random-55.report.json":
            "892f4ff38d8d11f4e0dd2945b4875faa7b8ec76c2190993bd4459cea3926bf54",
        "random-55.trace.jsonl":
            "bfd0911e65e5a1d8f0f50749c7ba84adedbc611d1f7490e9979bf3c48953fed1",
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
            "a7fb69f94a024c81afc62d27c623d9a839ffeae4116fe66b36b6f794639df619",
        "random-57.report.json":
            "27767d7a57284e35f3c3c44deb200dff893748b7d68f721da4543bd0bf80fce0",
        "random-57.trace.jsonl":
            "aa0104c8e2e091b1da7e2f00ff54dffb4da87fbf0a1fecf78ed2b67fb1b846bc",
    },
    "random-58": {
        "random-58.history.json":
            "de48b08bfc393da85227585f3d73e671e07225813278725234dc05bfba55f69f",
        "random-58.report.json":
            "afa308b2ad35d2877dfa60747ec1966cfff6c677d81dc3df14a0aa4852ffc4b3",
        "random-58.trace.jsonl":
            "71627f7bd8bcd5c500a45aa64ba5b4220759275e8b2cb66d2d83efa7f846e2c1",
    },
    "random-59": {
        "random-59.history.json":
            "86f1de056400ad69fad3630a7772d7d611bc3db1179b6a0a9336bbad32bdebad",
        "random-59.report.json":
            "edf3e762296104d063388068b47e0612e6d945f2c2f7675a8f7a03d0d7e557dc",
        "random-59.trace.jsonl":
            "7ef33f51503f1e0159fb181e115c734560433b2d9677f4f3043af2ebb112b13d",
    },
    "random-2333": {
        "random-2333.history.json":
            "a4696780f57ec4e59f6e378221cdb9ef848273e4ad6a057f071464d8c3b2091b",
        "random-2333.report.json":
            "96c1cc654c68def2b958277721b21099019389e9978594d0d6266c66c0f7b21a",
        "random-2333.trace.jsonl":
            "b06ce99b032321ef30ec6ee133c4ffcab11522dc9eb86dada4826d5bc1e17c3f",
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
            "2cd2d2d9badb3570fe53ccddf2938e7418465ee9ace4e4badd857153eaaef183",
        "random-0.report.json":
            "4ded4c066338c82adc63920dfcb30b61a169dc970866dcb8ca92750be18bcc97",
        "random-0.trace.jsonl":
            "1ff12369148c787496e5eb2057780b166e6e7b2cdcdd8d215c93fbd0a795d96e",
        "random-1.history.json":
            "5f2398a2adc8441a1ddedd19b6933aeae91b0d7bc26bf27fa14eafde6ef430b5",
        "random-1.report.json":
            "1c2e4117460f997c64c8f1752315d1ef5f860074c484f0caccb6d77c2f8f2f97",
        "random-1.trace.jsonl":
            "3e62ffaf56e0ef79bf5a23bd6a14306b9fc0a6013deed8e131ec4c47e41729da",
        "random-2.history.json":
            "06b438b87b51b9c2e27402d56091e2efff7fb2df1e6658dcc32995875570e5a8",
        "random-2.report.json":
            "e670a3f9c49f5950023cad0bf431fc27956c6af0215c7abb99e30471fa0f5fc2",
        "random-2.trace.jsonl":
            "4310b7dea57e0282384a19d8cb5a5bea7590a04fe6013497e621b0ca50853b2d",
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
        "trace": "c19a4f6d0ed428ed978b6ac32f11d5c981abc0b29fdc0df7643df0e01b599f54",
        "history.json":
            "86b127276afe842e28e3d7096ee18a287674135cda62dc8b19856b54325c1c3f",
        "report.json":
            "97b137f2c1beeb1833896754927404931246c0bc71a6ae48dfd8ce0361f25001",
        "trace.jsonl":
            "3372bed41c8ddd1e93d319a85cbc1d1f629d5c55d246c15f07ed8e49e0437dc2",
    },
    (60, 12, 1): {
        "trace": "a36be58a315ed219e8979cc1856f8ac10cb4a87f3f8e4e4b8327462d5b85e5df",
        "history.json":
            "c8f8bc9283ea1f682d260fb625b619077d706136ee617d3e09e2e7f48223e3ce",
        "report.json":
            "b8444cb5bc17866ae9dd66520c734aba741b46707b01dc2296b857053ad5216b",
        "trace.jsonl":
            "c24803f9d936e3eca4408877c753179ee4c5356348447aed37e39c5cd986a4a3",
    },
    (60, 12, 2): {
        "trace": "eeba7642c03e7f232df5811ede2b8b161fb54fc00af77fcd10b19b843f04ffde",
        "history.json":
            "24a9e0422ce873fe96cfd84bafc72c8c833b9067fa26cf9f9095e0e6b366ad09",
        "report.json":
            "6f65feca7ac88bc8b94c3039b48d2c172199f7f810004fc99cd990db6dc95cf6",
        "trace.jsonl":
            "0b416104a067ec7c7351269636b8c139d88bea0bb51760a1b7bd458567ba1559",
    },
    (60, 12, 3): {
        "trace": "66dbae9ce5934803c054fd123e0840591712051d4ec011267ac7454b378a6d71",
        "history.json":
            "64df0e78c9f4b51e7e8cb81b1a6c9d8ee533d4db73bafbbbaa6fa814823273bd",
        "report.json":
            "81aa930bbfc0ec2ffa8a0118e3b55824419d9bd09a7053e3482147182aa4ba53",
        "trace.jsonl":
            "c3fa60c5a6ad13323a87f146e06a308552d599ebf71e6731b06b9988c5b57815",
    },
    (60, 30, 0): {
        "trace": "21c15b15db5bd4505c7e038905f1d6ed386c1fc73a210a3e41ce4fc2099d930d",
        "history.json":
            "d21758f21da9b56d724ad04372cd7281e44dbfa4f87158c3dabe327a9cd2471c",
        "report.json":
            "72c9162266a5eedf1ad6b5d1e2e907fbe4f6bfb9048ec2c4cf2503e3d5a64e73",
        "trace.jsonl":
            "3c2f661a5016d415b649a08efbb4dfe24d8ca49de00b60b3615e45e598ff0222",
    },
    (60, 30, 1): {
        "trace": "ccdf73948be4a5fa3ccca1e42404b9a7177e5a75b9aacd7c14f74e59db463f69",
        "history.json":
            "c98cb167c9ec4a9ad1eda1f5561143173ad2657cac8bd0e5ce926037fe8bbf7c",
        "report.json":
            "d9afd43164122d247d7a0dd0ed862021a1b6230c47a0c01df0d05577bd980a08",
        "trace.jsonl":
            "b363751d72387cb4f9f8f52cb0fb8b7126a0728ca08de7529aa85e95c6e7d68d",
    },
    (60, 30, 2): {
        "trace": "34df36ca5186779810e7fc8879e9369d3af0da333466c53eb69423d8b4c986c5",
        "history.json":
            "acfc5e07ac270c9b2b0ca08b72e863eb156b7dbb03469783676085f1c1832e68",
        "report.json":
            "0a9b96dd8327fe5a7aa0d3508a9fd13c7d417ff901df2676100229bc19de67e5",
        "trace.jsonl":
            "90e3accdf9fc6c99ed8acfa75921b86fbbf55ca141814308c9ed97a3ecaf4a27",
    },
    (60, 30, 3): {
        "trace": "1865924ee9fa56b5d7a919e9f3d128f18e257f871d13df626363992d9ca1f604",
        "history.json":
            "b185dbeeeb82acbd5fa67116f561aae0d91fc1690208f1257e1d49827930a8ee",
        "report.json":
            "e8101d9732ddc9774616f95cca0ed16d709ae34212bbd52af06a5c7bf7ca8cf7",
        "trace.jsonl":
            "788228fa95ea1e64c69c91bf29280e6af02d85a801cfe50d88cbe26faaedc0d6",
    },
    (200, 12, 0): {
        "trace": "a789f87470d7658abe1cdd8222a2b93f3a33b6f829ef85047380ebcdcd3ef063",
        "history.json":
            "0e8415025919082638a19575cc9892a8f0a986c60cd43198ba3ae55d6e73de46",
        "report.json":
            "77db46270c1afb3754c961d2e2111f56cb1ceef1d332d06e1fdeafb75548a644",
        "trace.jsonl":
            "d777fc60cb3bd6ab814db6d050c67ecfc5faeda8928ab1e95571fb533747739e",
    },
    (200, 12, 1): {
        "trace": "7a212880aa7675f660a18aa764102a2cc2db856ac20d0dfb58ba3a1e02dbc93b",
        "history.json":
            "14a79ab68f84138df46541707920fd3f7d1acbdc5668aeb50e1fd18f603086a5",
        "report.json":
            "8a6d685c743204aa7219e618d6cf45f9c471c1095037f2e63a87063e2a42d7d7",
        "trace.jsonl":
            "022c846fd02935a83dae864ea66369b38d684a67952d02e5549c483faea48dcf",
    },
    (200, 12, 2): {
        "trace": "cef401eea7f317a4410e49f0c453bf0a27ae4a62f3fa0cfcae00a2136ed19377",
        "history.json":
            "df250c83949330c02e86d3f8f4246cbba08a17bbb74815b90c4e921ac75819f1",
        "report.json":
            "a539a5cae9951cfd5143880e9d9061413e3970db78921f2428db3d6c162e9e7e",
        "trace.jsonl":
            "ee88155b0a3e4fe60e4477beea775bee889341e9763e60e82ad89a354ae6e485",
    },
    (200, 12, 3): {
        "trace": "59145c1d07a06e6d3a4cefeda9dcc1b9c9b5d4780ab0a8a6e76043b81cd03bde",
        "history.json":
            "469c170e050b2c92116943d64f374816ecbdd5b6df670e595cf1fd3314a84c64",
        "report.json":
            "7f166d0931c2e345330687830ee2132458b32e790615c4c24ece60483014dc4a",
        "trace.jsonl":
            "bf8b551459fb84fabf5b3b1e7e118f1a4c2e8d3b333c71821e3952dfa90399d1",
    },
    (200, 30, 0): {
        "trace": "7a3333629a2febe5ae26279f701a75889bd1ab8a13c12b9b3259874142e27486",
        "history.json":
            "a75fc6812b8c496664af4371901ca473ecc7223d8d10b892f9a49efa083a9f87",
        "report.json":
            "b940bab46344b3687aa7a37a6256481cb4ace088da0e1dfe8d04c9300ae3900f",
        "trace.jsonl":
            "4f8e38f1a06259b6f440739ac7cdae246fffa49b6070eba1816054f53a3f9277",
    },
    (200, 30, 1): {
        "trace": "22e77f13f404db892b92aaace1fb6d3e5fa3133afb659f0d57e49a9b02362694",
        "history.json":
            "6ae0196e5fc902fd1b68b820c76c9c6a724a927d9daa92f48bdae3a6046e0bc3",
        "report.json":
            "44ca8478d7f45752cc522c96d56165e246f068b8bb6cae9857f0d55700dea50a",
        "trace.jsonl":
            "b710c1217a5c7eef0264d5144f7d2a5109cde7729aaa0fea2eeb6f56da9a0f70",
    },
    (200, 30, 2): {
        "trace": "604c102670ab84f9b43d16de92907f47438a148b2d39f132e54df9f65f6907fe",
        "history.json":
            "b8a3baf3a34b8b3f390b5d097ddf47841768000a4ab21b627652bd73e8cb44e6",
        "report.json":
            "d1daf5c5f9d67ca04097601719280d76f93b29066a814821fd2ee8ddbee1a73f",
        "trace.jsonl":
            "c3b1d67dde3151f3b184a71e495738a871494dcc10b083c09106e108daf6ce4a",
    },
    (200, 30, 3): {
        "trace": "e7e726020940abff77ba451a435617590c988790b15678026fb1822c145755c5",
        "history.json":
            "eacda822dbe06932c7073c1279fbbed650ddab58d491f32e81df42e9ce998d31",
        "report.json":
            "326e57eff10f58c5de026a90253aa2d9e9f891efd001459b7f3929212bee0d7b",
        "trace.jsonl":
            "712d53ad690c5b676706261ee370829463f6c6b98008d7c6b33c2df035a63b7d",
    },
    (600, 12, 0): {
        "trace": "574e23d898f76baabb057abde8005d97d79fe3fac2f9285f9ec3c5f2d1954305",
        "history.json":
            "98c4e5dfef63e4941fa1c156f44aefe2df1a2a8aad0eab9b0312f49ecbf0385c",
        "report.json":
            "ca1593f4e89b042b5072c64a520a6a4e2305dcb4612f886b00bad0bf709503b4",
        "trace.jsonl":
            "7c2a03e146cce957450d4611434ec7f040a8bce58ae778534a6397be12b53dc4",
    },
    (600, 12, 1): {
        "trace": "543f58b858f60b51c822e4f605ff0bba1404dcb4dd2e7fdc15dc42ed4e62d387",
        "history.json":
            "311246889a22641a796412fc5c23862a2b3461b351fa700c582ddf8c1bd2f16e",
        "report.json":
            "cc1639cbf0848042b882533885ce4de08c6197e748f39963014371cd3df20152",
        "trace.jsonl":
            "f20f2902b27d2cfbc7b2524ca03860867c14198ebbf76e6560aca434cc2f9130",
    },
    (600, 12, 2): {
        "trace": "cfa58c1466a1024abd1134977dad486067b009b0c0e90b0f65aa3ada1a993ffe",
        "history.json":
            "c028e8bf5ebbeda276b58e75508d520c0e865fa3806696049440c727dbce1c85",
        "report.json":
            "45c0bfce98c3257c41c6af48f68a8ae64a6623f44a08539da3f13547274d524e",
        "trace.jsonl":
            "cbe6b1ba97a31960cc73643bbe30147b6173fe436101cb42a297bbad2956a433",
    },
    (600, 12, 3): {
        "trace": "d7e583683c613bf3e453374c44255e17b6a1a9078c7fa76fa78ba6ad29de8694",
        "history.json":
            "6a60a371673b8d64521411e0350cdcaea413fb15690b82e9aaca02e3d7944d19",
        "report.json":
            "4ade724cf13604ab28f91d74ebd62169206af5a864148adc9e6df9d22be778d7",
        "trace.jsonl":
            "73b850b8696c5302a2bd92ed6e5571c0bee8af01642e77b5073cb3aff8707ff1",
    },
    (600, 30, 0): {
        "trace": "38306df493e579f9700e9f7f6bf9b66dacd7cc57cce5ceab14a1d9885a5673bb",
        "history.json":
            "7d0fcb1b32ec3fc97766f59d4e5f772435308b282bccf219b5e7255dab7c8d17",
        "report.json":
            "62a83b1e24f0f4f79aa7e732f42c5b066e0c97a18921414a9830175b9a03e571",
        "trace.jsonl":
            "820c72642fcffd5a3887b1256fa2a46f71fea283bfe7b3b8f248fe427b88401d",
    },
    (600, 30, 1): {
        "trace": "daf5dbb8cdd86948e490028d9e97612f9257acaa428ba9a3e4e484fdc0e65a3f",
        "history.json":
            "6848fba203fb49c81b5a04c16d6c8c5a2ef07f53e0cdd733d0e898c8c3366ce9",
        "report.json":
            "2026ae05e05f178f0104d0f6076a45a6779c524f80e115a9aef792d78efc7e29",
        "trace.jsonl":
            "d706eb4c2edd1379a29c9bcb2637bcf21bddd70da37d07bfbb2aaec34dbba6ed",
    },
    (600, 30, 2): {
        "trace": "33246a8e31281498677586a63de0d21249783219800f7f1b98c7394625ab3cd6",
        "history.json":
            "30f14ebf09f09984c076e53d84844ea3ab65990d09fb5ab3c0483de233b23f6c",
        "report.json":
            "8eabba42072c91682f529b4d037f168b8a96df0526352fdfc5e9fbdb9cc4a92d",
        "trace.jsonl":
            "a7c0662aa3f9639fd78055a00c6fe310178be817d3d7fb4e80ffa58d542c20dd",
    },
    (600, 30, 3): {
        "trace": "a89cf5d2758493bbf6a422013079f5c8b25c63d5f812e9b57dc53e096c53e3d0",
        "history.json":
            "070a6e77638397614a276831c6c763219c09a8894ff1e4014fc91d6212f454d3",
        "report.json":
            "b0478f22b092280cece70132006a6e54ccf7bacaac6ee49121c2da61d06450f1",
        "trace.jsonl":
            "6363629b91e21051e70309f8a3cea58d5851350e390d913440dc292a02dd00f5",
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
