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
            "73d38fe21c83b9aedfa2da273007b9d1ed46451c408acd0a3ae5636985d54377",
        "fig1-0.report.json":
            "9e1f2c04f9215ccd681c3b257366d9b78d10dd6ed8d73fe68e464f36d1661f87",
        "fig1-0.trace.jsonl":
            "d0cedfd601d4b45476c42bded979797b5559e2b80329ac30abe8fc9af9d92e8a",
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
            "33942447a87de0dbba24b87a58f45ff1930867a1defdff141d16b5b361031dcc",
        "random-1.report.json":
            "01ffb630f6c3e95c039a68e1307ccb3d6096038c3d5a29d653e817b9ee49b806",
        "random-1.trace.jsonl":
            "3666e990ecf61579e07b76ce6d076fdfc1d417425e7e3b69eba24e1eb2f0306a",
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
            "9418ac182147c59ee0061a9a90dacdd7aadd9e4dc08081c94a93234d0f1b6221",
        "random-3.report.json":
            "2bcdd3bf0ed6bb30c34317cf810b6c0f68f6a14790dccd852d047f75828aae62",
        "random-3.trace.jsonl":
            "4ec09510919d932ecf8923b0d1ceb5d0844cab07d10aae3abe64efc35f0a778d",
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
            "f0f1d1c634454ffbccdfae6758ac22c5c48d65609c1facbd2a3ae4866e4ac3d6",
        "random-5.report.json":
            "577ddb0fb6413bc53d74474b1824240fd44c9b7edc5d56adf06119e80bbc3513",
        "random-5.trace.jsonl":
            "1372f157dc2864d982ece29e261d1f16937d916abb6ba3e7b681e70a43b651dd",
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
            "93cdaa4e89038b7d54774df27364af2476fc4466d3360acf348f40de8f4644cf",
        "random-7.report.json":
            "546600ba23f3271ed0c63aed1c817d9454bb5c5572ae7f3f55cdf8e2dcda5fcd",
        "random-7.trace.jsonl":
            "f5a81522626a9fbca40ca9b625e4f9137006b0f2d2efa9886bcfb64d9051aa28",
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
            "e6acd409fc53be459e3f3650cfd1efccd29afafdbd90b62ca6c1a5a0706691a8",
        "random-9.report.json":
            "059fed36668dfb3459877cbada4125b44e3118a21914b42ae69318e68cd034b1",
        "random-9.trace.jsonl":
            "2f7676ca88c8a6e5f8fdc6988b8e82f429fb7b921c2c1ced88c8416016b1c302",
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
            "ab82eca0a9fda227e4f9a648c08db94f6e83476078fc3a82bf03fc3b2a7cbfd0",
        "random-11.report.json":
            "402d47f5c13ab951781985eab0e909db2d2e76e553024b26fe99dcdc3ab06625",
        "random-11.trace.jsonl":
            "a41fbd3620195d2454e1ca66bb3bc0f0fb2c234cdd751ef827f30b67acd06014",
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
            "1c45efec5ea763b6ac67f37001c756d0d63c4df844773ac9a8266f34e60ab797",
        "random-13.report.json":
            "70e07364efd3c06f626057662eb7c5fcdfd10d73edc1c871432cdfcb357cc8ba",
        "random-13.trace.jsonl":
            "0f6b9189fd76a731efce77ea168c3c641ccab466d09d0255f165b25c5b91d8c6",
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
            "2d47c423b5ada61828463905c3663246dcd8a4784c9fa1c80cbadb87fc25a2ad",
        "random-15.report.json":
            "d6f9cecbce28e6a4e3d06805355c008f45a4f8ff40c737a91c05c43f7c276e1e",
        "random-15.trace.jsonl":
            "43b1a9b06fedbcdab3dbfd97d1753e6fd49839ce61b0245bc73392e138da65b7",
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
            "a6d1d5a90587eba4b70ca2e73fa8c21e973144333087bef39a157cfae82fb972",
        "random-17.report.json":
            "b8358a67e022a8f3735f7da99ff8f118e18279c4919186669f2bc7c455729cf2",
        "random-17.trace.jsonl":
            "50a81e2169c0c1027aa96ee55d5cfe81c09c126db2b0e7806a4eff8a9fe4f406",
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
            "adf08178615d3d4cdd6f41c5732a110c7e50cd72f959e9f5d12af7a322e1f652",
        "random-19.report.json":
            "af6b1d2cebae3750054df9eae6d3e74b4a767e97e5dd51a928367ae70624f176",
        "random-19.trace.jsonl":
            "9774be9aa68a18c843687287a9c15c37394f4772bfd0a760e73f5ad9f23ef7fa",
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
            "11f1f74227ae425b8a43d13529503ec93a107720937ed1ce8fae795c18b622f4",
        "random-21.report.json":
            "92d1e6e88563c97a3938052706e7942d9fb6a3415e9c8b37be1d1847137fcf9b",
        "random-21.trace.jsonl":
            "9c386b5111e44339c21518845722ebbc9fb2fa0759b5fb92bc08c7bedd921b35",
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
            "b5488305626600b465d5dbadad8f9f27a2289b7c272c38d7363141dfcc35c69c",
        "random-23.report.json":
            "15647da853ab225fad26a79dcd87b69032816f23ccbf6c916162593fd61f59f7",
        "random-23.trace.jsonl":
            "2815bc65a2d6874d7faa1f0e1b07627d800bc1a76ae45bfd5f2d762498deedb4",
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
            "f529385f9b49699cab7f636f8195fe5bfc9797d2d114d5c8b34ba3e640ad71e2",
        "random-25.report.json":
            "07ba22331f9e29f075169bd393dee8684e5df001ddd1f83fea40ecc54016901e",
        "random-25.trace.jsonl":
            "094521c002ebbf0d389928ae0056e661eba20166348c557903943c0560c129b4",
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
            "510c95ba4171f3917cbe131b152691876b391b07fbc1c9926bb2b447a84dc13a",
        "random-27.report.json":
            "21510f635f4594592f009fcf9c20bab28ac5d620f2e4362a612bbe3ac8cce49c",
        "random-27.trace.jsonl":
            "4582ca09bd70b6486b320c90458e25de3dad1e363e138137e50f139dfe84b289",
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
            "1f38c6736c606bb744263140942a173a578d5a2998371f1cbeab761d558e2364",
        "random-31.report.json":
            "c56a349d4433f0361a9b871bcc52c5ee2a08eae5818378f8115bfde49b14023c",
        "random-31.trace.jsonl":
            "9eb332498d411d0e61b844fb9261b33182ee6efde3a14029e2e7315b3f9bdda3",
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
            "f2c820e139c861d0988963807e0c984c498a6f770d270151eef64895186edea8",
        "random-33.report.json":
            "b389320d4d49cd6236b1fbc06cfc75cf2312507bff05f9cca9054fe5d54e8643",
        "random-33.trace.jsonl":
            "05b88c4961ee830d54e4819f000331f4c1c935948c2bdf99f804df5c848f3096",
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
            "cc447c86a6dc527a96cd3fba3c735c2cf2d145f948df9ba63a912f6a456857e4",
        "random-35.report.json":
            "9427d80444489567c12c4cf1ab63d8c1c8315376940db1a5628e627298d6d567",
        "random-35.trace.jsonl":
            "c5fd0c5192bd99e64bd79a9b6b1b69ece70d8a6ec2de7c630e6ab78f447f70f6",
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
            "ece8b200788b68876704b6c8f130cb25cfb5fe83a9289971892dfde5a754ea0d",
        "random-37.report.json":
            "b91624ade2f30c22735ccf27e1d2e4c14a26dd9ffa8947a0d7067a51ac06f7b2",
        "random-37.trace.jsonl":
            "82240c66b790cbdfc1e1fe1ae4fb199eae29dbdc88a8e4393b1b922b2dfbda4f",
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
            "e73c596a05229990b58dda36acc3347ebdaab88c269a7c823ff20bbc17ae6ef7",
        "random-39.report.json":
            "c26c45022b3f0e616a59b527b5eb2b2a13e7fe9235d9565135ae25e20a5a58e4",
        "random-39.trace.jsonl":
            "31d243de37f72cc37c6dcca8a18bba0b12720e17b7f0338026fe7fedf0bc259d",
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
            "3b9cbc691509dc89745130bde12eaf832e0d6a47637b0cfad17a4a3d5f94227c",
        "random-41.report.json":
            "96f17b2b544f6e8784de42334315b171cd4b4df0222286be0081232243514474",
        "random-41.trace.jsonl":
            "8e9eb50fedd25f8d67dcbed0711d5d0bd4651f404b29e98a1f1a3df514fea392",
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
            "04955f8ffc1371bc17e97c02f5c4376d3b820810e84880ca17d37c2490fc2c9b",
        "random-47.report.json":
            "432ee8ec562ca8924f3d0e374e398519a8d63bd22e2d35957cb0fc57925323c4",
        "random-47.trace.jsonl":
            "680e6700e0365c2519548daf05bca9602ce138731a75c804b2e7f27c44e26b6e",
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
            "446dfff1e8dcfa16148325ddb91f129185e3cca23d080801be668087237ce7d3",
        "random-49.report.json":
            "fb0129364c06ef7cd7160d62625eb8b98437cc570b5f7bc08db691eb808aad9e",
        "random-49.trace.jsonl":
            "a2c95664a5638ee4d1ee8a7d0ddcecf5900ac178a130ca2033e7398094c1c0b2",
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
            "37bb0f9e1a2fb927822655c94a539297e19856d6d3aa9dc59d080a9737ed9c93",
        "random-51.report.json":
            "e41c9df37a70236c3fe47ae1e3a0b4300b5fb3bedc0597a5c864e4b47831e1ac",
        "random-51.trace.jsonl":
            "ec38b7db8695b2931c94bbb1576ee16bb50ffcac60341017a3ff5c1fd43c0af1",
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
            "dee810dc31d217b75743ea0f0379a7a7540898fbe352d34a76f14bbfca01aa1b",
        "random-53.report.json":
            "20ecd35adc5f4d96b368f395b25de2c78ae7d72b3d19f135b6c3448c926cc69e",
        "random-53.trace.jsonl":
            "7a9fe39b285739d4b0f95a9dafaae960c5cecc49333fc393598769c5636a5243",
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
            "ec225c8fc83ceb282065d8b18343931354fc2047a26d787545f3824fb2fa8ce7",
        "random-55.report.json":
            "f22706592826d2d365f7c5c562162ff1327c0ed4e70310509be887313d737156",
        "random-55.trace.jsonl":
            "de8b474169a8952bed2f3f16ddab8359dc8d8e5fd3b4621674a9207f406e8b85",
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
            "fc2b32ae944bdb8fe8e462cddd052991749744620f292ccc0870711ef83dfd5b",
        "random-57.report.json":
            "4e3ccac1dbdc4319d5b0bf6cc68073003c779548d5e58784c5d9d6d3ac4862f6",
        "random-57.trace.jsonl":
            "669f9946b16dbc4f821f37d4793ec72825c15a35d4c5eacdd34980772d9b218f",
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
            "1f10ee0f44376fccf87f525498a2c4f790700fb1198b85bd8cb84bba78d097f7",
        "random-59.report.json":
            "4452f27e6b04eb5b53bc6e6a5c7226ab4194756c6e4f6e7858eaa55eb1d7527c",
        "random-59.trace.jsonl":
            "2246df3d15d11fdce56ac75c338142eac9e2af4c31f9886a6f032d4ea80dce62",
    },
    "random-2333": {
        "random-2333.history.json":
            "f70b13de34db127f2dfa6ad32128fbcf5f42942b52ccafe44d8d28673fb03856",
        "random-2333.report.json":
            "8c1d1108ba932577f9d3fd6b6226936b9c2b89c7ea3fda7674ab49f5ef1c6bcf",
        "random-2333.trace.jsonl":
            "167280c1b4ceb1e9b2b09f3b2a77c5061a8b89e197a52c91bd8484c19aa57f83",
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
            "a71d39b8f9a4d9f441ca181f02b8db2855e07b9dfc116de734d30deb080e46f0",
        "random-0.report.json":
            "29d7e9f3701812379f589859e47ef0f0727f2a2d08c8a559afd923433c227265",
        "random-0.trace.jsonl":
            "ee480188565696a38cee8f821f8986ecf153b3388fa80c3267a0b286e3035701",
        "random-1.history.json":
            "5b9182db5b812608aa408bd62a0f83071e8ce3654a2fe8fda43038187aca8176",
        "random-1.report.json":
            "37f6d531e76a497c5ffb7df3244654c61e112c13da73177d5b396941fb7bb7b4",
        "random-1.trace.jsonl":
            "b0b1ebcc18e176ee353fa81205088146f47a26aa359ecdbd1970adf1c837c1f4",
        "random-2.history.json":
            "2b99d9cec40ef52c64895d8cb93ed725e8ef96d26cadfcfc36b402f69adb5697",
        "random-2.report.json":
            "c7894736462fc6ea3de5f68effea11b2f38c4d88698a19379a9a71f039ec1c9b",
        "random-2.trace.jsonl":
            "194cfab1a532175261880708928378f4eb67117101b38a96b40bf894ac33a024",
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
        "trace": "5118d41489ae631757cbb0f0594339200681e8ea74c2d08852e417829084ceaa",
        "history.json":
            "ec4b71d0b476db27dab06a0ebd5e8754280777072f17123c097e54ff3a9921eb",
        "report.json":
            "d49d734c72da835d8b90ad149b69ef3607222c340e550582edfb45df9086a732",
        "trace.jsonl":
            "3b5139e22939ef5b799f81c9eb7bc5610ed03c5c6579f988be9f2fd6d284eb76",
    },
    (60, 12, 1): {
        "trace": "19a2c11eb013c0e43913692e43a1a9139626d652f4b63f7369d20c506bb25a67",
        "history.json":
            "93d9fcf9892d8a5fab67b8ed8a501b1302622fe09ec4e87f1dfb16bf1b57429c",
        "report.json":
            "45ad0e28512a60c5c9f82110a31a55ed0023ae3caf8f5b2bd24aacf3a72976c2",
        "trace.jsonl":
            "2271dc3d770ce05651ec736a677db9684e18d7324b1957d3b7169d0081e74954",
    },
    (60, 12, 2): {
        "trace": "ef548f33170d22c04af76353337dbcd4278f36e6c6ea3fdfbe65baa8bc399d99",
        "history.json":
            "c3b15d0984178d50f6e2c781e911812073d488c25b9e9c7caa5d1504311217be",
        "report.json":
            "f131a0da68c42173027451573e86ff3ae2e887085e259626c7fb17103c9e8dff",
        "trace.jsonl":
            "1a6e9ec3636e8f1af5a55de356b74051b0b4b750d6b196b9c79d94ff4111d7c4",
    },
    (60, 12, 3): {
        "trace": "8fd61bbcb3a833901213030178656e93fc5178a30ece28eddf6bfb05703f28c4",
        "history.json":
            "69cd0cacab17e42c69f8a423d0ea366c0d38dfd5582178e76e839e6d1a063694",
        "report.json":
            "ed41b1f5ab18efdfe5f9195cb2cf966877de8a8e8a0711becdf6f948fcaae5a3",
        "trace.jsonl":
            "fa60f3b1d5b718b728a500f60d7d80ed68fb7eb9e1ec442cd90c6677a12a5b20",
    },
    (60, 30, 0): {
        "trace": "8b84405bea4d06c82aa80dadc25eb4d907b5cf8cf7a85ca9e8fbefb516b856ce",
        "history.json":
            "a711a4c440c3e4a8b8bd6382de56544c3fc994dbda1ae3ede908d610382a3387",
        "report.json":
            "3ea75422d3830703fe8054b3ece327e6be4ce0f7da0da9c14644081e4e07f7ed",
        "trace.jsonl":
            "ad207b39dbb7d2767016a156b72383ba51f65ac05a75713b3ca808a2f00ff512",
    },
    (60, 30, 1): {
        "trace": "2a5fd8662cf209b1117f426ab2119da441e7cbe72dd0d14c04b0e1e5d6d68273",
        "history.json":
            "db9abe53112cfdc990d25b2492ad31ed1b61adbdee446eb29566a1199c38d9db",
        "report.json":
            "480743e653c168c5a20ba0ed04bf649b95a4bd3bd9da41510430c0cc81d64994",
        "trace.jsonl":
            "f824e03a2c9a8beea9d29dc4879771644331161ce61db9b51acf1d36a378164c",
    },
    (60, 30, 2): {
        "trace": "298a7859904611f6d584d68ceb44b011a395e466522a978310c059cb0673fa2c",
        "history.json":
            "ca73f5addf91d0fe7305aa0ec5fe0de1bab73dcf5feabbcb5e55bdd0f18d2ab1",
        "report.json":
            "ce1c4679522ed3d43965abdd83fd1d14a7b177d4ba248a5ad934f6dc7a02ea42",
        "trace.jsonl":
            "59168ef0bb9f9888ef7713ba6a1cd5e713db0a17efd36a9e9165215770bf5826",
    },
    (60, 30, 3): {
        "trace": "61789995dd1684e239c4cb1e7b01484afd416095788e19804f6e52b2a4fc4a85",
        "history.json":
            "d3e8af790d36886bfaddef8dab51833c26d6d181bbc9ffbfd96c00780406d77e",
        "report.json":
            "09a5d54d31256c35e3376eac834fc7138a18151db222c7765d3db1918f070e1a",
        "trace.jsonl":
            "66130f7c1654ffbb1ab7891691ff76fd20dd3140fec44df0cf169a256e80721b",
    },
    (200, 12, 0): {
        "trace": "f34413f3aa2cb77af3241fb0916fe555495253e735c3cc514f478125b5de6e8b",
        "history.json":
            "be22166d8e19c9dc790b8a74c3dc33797026201e70cdf97561d8694cf6c792a4",
        "report.json":
            "1f4ff37e7b24458e4b02f214aa1294d5b6b33982edb980cb5be10eaea237db88",
        "trace.jsonl":
            "902c011aa10d571053521a2541945d979e4f8a9fd096483e0278e9a41a9ddea3",
    },
    (200, 12, 1): {
        "trace": "c318c94397f5669a1cb41b0d034bd3c5bbb20ea60366e6e751d45ff5d1cbfc75",
        "history.json":
            "7163aebd21c5b6ce78d086da124d651606a37f1462064ca610b31cc0427fe50d",
        "report.json":
            "0720abfa0dba9286bd9d01e743fc4331656443e34a8db7aa853831f9a3f59b4b",
        "trace.jsonl":
            "cd7339e3d99950409a75df1bda36b703ce9bfbdff916b76c77c716e812426720",
    },
    (200, 12, 2): {
        "trace": "bf2657fcb6861379599337e4b8e161c51fa39993c798cf770f2f7fe78e59b103",
        "history.json":
            "b2e4e0d98c1ab575c7fbc43134135ab0c786d9584e6dbe3710eae74db9eac47f",
        "report.json":
            "c95c6ecce3430948f23b07031438060470e44ee0bb6e3707b2e13b34cd36d7ec",
        "trace.jsonl":
            "5b9c63039fc5b5ea7bb308fbd8d6746aabeb286b3453ee85a604239caf85ee05",
    },
    (200, 12, 3): {
        "trace": "957c18c96215b912ec678e1c1ad7dbc0ce7e6e49fb11746bef2cdcbe0886b471",
        "history.json":
            "96fe30d2f6d56eb4defde2f4338da046b002e5a1a2eb4d6aadc003e1cf8ffe0e",
        "report.json":
            "ee155188a503e4b3a08fceb2fc2aed6355fdaf5bec33686d5eac8ee09aba7edd",
        "trace.jsonl":
            "ba198fb6bf0cfa1ee165d3ca211896e1e423efc3f17d2344db8924055dc1d1e0",
    },
    (200, 30, 0): {
        "trace": "679a29544a8048c4c32f046ed506831af26f57a36e514cfab690bb0524aa64ea",
        "history.json":
            "7cc278fa8a39e0ef0a13dee4a841d499ab48dda665f239602badd1a422202298",
        "report.json":
            "94dcec7457a76ba6e7bf4cf14ca73cae36c1ca10f1eea05eb1123fca612b0a51",
        "trace.jsonl":
            "b055110758cce981e469991adc6e920dc372f452ffcd07a648562c07dd6cec03",
    },
    (200, 30, 1): {
        "trace": "a724135a5f65a7fe4775decd29bab1208ef908b5bcccffc7ef37ca17e3ffe36e",
        "history.json":
            "a45deae22988300f602b2a5692099f32a99239f762afe7e5fc2a63799c20191d",
        "report.json":
            "ec597afd546fdc7f33efd17ef50d5994b31dce75c6b5826e308c541ef1e202d8",
        "trace.jsonl":
            "5ce88571fced8ab09658167d486371ea24e87f4228bdff4a399ad9e372131490",
    },
    (200, 30, 2): {
        "trace": "b207cf7fe49161b8cd9f3fd30bfa4198ea3a0ce80488858671bc72a1f2c63e22",
        "history.json":
            "92509667aac6fb60a6183ec07ddd8fd7a0d48b556c5c07184e4ec49d65ea4258",
        "report.json":
            "94aabd4594587b8664ca4117f57bba27285a03aadb7ef8831edf26372f7d8d24",
        "trace.jsonl":
            "cb1bf5ae73e608f5974d81e40f8baf5f5386d60a885e23f908d1cdc43e940927",
    },
    (200, 30, 3): {
        "trace": "b457c59989b01fe17dc7afe3ab15747bb732b425fb68f0c77d5a27ee0b5713d5",
        "history.json":
            "4b78476811976ea7ff81ec5a355ee78e8fc5ce37b01c8909f094d54832388c6a",
        "report.json":
            "954916fe6cd69711aa00627091102ada4383bd5155a7187f74e66922434b877e",
        "trace.jsonl":
            "72297dc47092f7137430599c4d475c5f63cf4b3ec1e02597400ae62a58f4eeb1",
    },
    (600, 12, 0): {
        "trace": "979fa7667653e9dd3b2f6fd4d7694ab8a379b91f51c357f6c190cf899fd9202d",
        "history.json":
            "bab91da6cb977f92813af9ad76cd237f17b765c38baf5d31192f546418f0fcd4",
        "report.json":
            "2ef3ad2809f9c58ebe6b7584706f5cec8e584ad320eabd27420da4ff33abdb42",
        "trace.jsonl":
            "80d74dd8cbeb601b617751b1cda9029918ba9b5d332b7ed901682c21cb66e53e",
    },
    (600, 12, 1): {
        "trace": "541441523cc11f4a6540dc716fa90bfbfa944b314bef50c07d235eda0eaeac9d",
        "history.json":
            "e5786ad5c0f604af7f97006aacfd871f0a0596e992b965eb36cd61742b970497",
        "report.json":
            "bf6038567b7b0ec962629a52807e293adcc36c81625fbd120964b0d7efb06f7b",
        "trace.jsonl":
            "0612753bbe2726d27500e6ee4e1daad9e34f0e75e153709fa68060539358c653",
    },
    (600, 12, 2): {
        "trace": "f552f1269bc04adbdcb7ccd6e4f4f63d5e68489b04e37b3be875cc8f1384000e",
        "history.json":
            "a5a3f1942e0ad190e7b28b351388f708eb075472c4ff8dd2045548d56e13758d",
        "report.json":
            "b86e292a6769c6486def1d4d5320e66c3d11330d6af803757e5c059c0c363f2b",
        "trace.jsonl":
            "93106efd134f74632640dbc3f417fe035e90d1c421f653419540c297eac6fbb5",
    },
    (600, 12, 3): {
        "trace": "89f78fa46521f5296c0813f4de2b53f7f24948b618991ac6a43510b2cc2b59f0",
        "history.json":
            "85dd2d089c88cdc5058c0f24e3e52c0f016e38d00853eb2c939f95ff1ee8c5c8",
        "report.json":
            "97a9e5682398b556e677e71819fe74b194442e7203ee6dd42567dca235dde43f",
        "trace.jsonl":
            "411bbd8df132aeaef270fceeeee73f0250c281bc8c61537202be0b0ed06dbea7",
    },
    (600, 30, 0): {
        "trace": "6e4d0417b20b3690dc947de60b7c8f7f52f314665aed1a6a54e3859df8a19806",
        "history.json":
            "601643cf360693373d460078703551aa04f71472b208f17e71707468fba1b7b6",
        "report.json":
            "286a421a75809df107c94291d6772a24c0f931676c056e4f04f0d72df60d0d26",
        "trace.jsonl":
            "4c9e40c36ef4ef369e84688f3b7a5186cc7a57eb697d87ef0762f7388eeae4bb",
    },
    (600, 30, 1): {
        "trace": "88cabed63f0d5ff6214175d4bb1aa9c7be8a152faa0fb760e88e9c90fa463f5c",
        "history.json":
            "06a0319e2486fe031338fb600bfff911b1e80e107cc0e047de3973ed0f3c56a3",
        "report.json":
            "bd376a962b14e3f09439934ab54c35ee5b949c470d9f00c32d22146a073b8daf",
        "trace.jsonl":
            "8be68b112282d0c8888cbf38e13d8f40f752768247803ecae3b121e08f30df90",
    },
    (600, 30, 2): {
        "trace": "c546c0a0087696c073c6bdeb9bb2602a80aa9eb3300f58118c5ddfe78fc8bbf9",
        "history.json":
            "f0a437aee6c33f039e102bf7aacf73952d27d219f2fc1c5d439ed628209b1efd",
        "report.json":
            "b43e6109d8cd616bd04e25a1c87f5b57af711bc88db84d6ba9d3abdbd1dc34c7",
        "trace.jsonl":
            "d09fec28f757c9a0f41cce5a31a9aecc355de7a470afcd77682c061ca011ae89",
    },
    (600, 30, 3): {
        "trace": "52c0fbb6af82f8a8162eaf007f83894d657c840821a60e43c5d4982c11517e1c",
        "history.json":
            "96727dbd28267ed7278145b9effee7773c8f17e013c7a501f0a6d2ac88be50a7",
        "report.json":
            "d84b13d929f0c43cd8d00f15e39f5d3f702a0104d199982983c3f524c3ba508a",
        "trace.jsonl":
            "93888abee620f7f0a584a3576327e4f71aeb0f95eec95a1e6a10ca4a67a7d18a",
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
