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
            "616de44c4beb42469b31f5f24ba5a50cc5b8e281256809c1bb5f2023ef533e7f",
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
            "0563683c08fbf6d2704af26be4c2221fbf658b1d166c8f4f2d0f3bd9a6f444f1",
        "random-1.report.json":
            "5172af95fc8d552f08d4d60d830c9381b0dc7a14045290672490d3654372105b",
        "random-1.trace.jsonl":
            "1df897a5be8554e47a951dcc7d733ff60fb9cf51d129465b57c51774119d85b0",
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
            "af023ed6051254309a56fc36605e6de82b4ebdac8d207407a0397cdd712f8283",
        "random-3.report.json":
            "e94568486425d27a782f7ecc720997fa8b47f8e0362c0a482be2d775a894453e",
        "random-3.trace.jsonl":
            "1f2a4c55cdc0d7838b41658e0150c4d07336f11a6fb14f351a11d43fd301d156",
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
            "1759637d274f755481349f38299f7019b4d0cc075cff286aeb105ebe1bdff0dc",
        "random-5.report.json":
            "07b703a5b86eca1253ff1a92c74176fda0fa18fab0e39e8f09fde3e825ffae53",
        "random-5.trace.jsonl":
            "8e73edab4b367805575dd05faa91bba934bafd9506362fe8df46a94c816f1606",
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
            "a9567350a7a175ae239543f69048d091b2f12770440ce0add477ec3c1674cfe1",
        "random-7.report.json":
            "e374d74a4974ad8bd5b058c86ba28601a8a897df207862eba3046a9034c662cc",
        "random-7.trace.jsonl":
            "162ebe5659fec4ad356261fa55f5817efcecb1a2803da645fe048bef785b2f78",
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
            "a5c2db61cfa3b0e9a49fab412b0201549cfbdc8f354545eb796d64a23b2ef7e5",
        "random-9.report.json":
            "aac8bb9a3244905fb40a898f39f053932709921e8b738cf9fadbdf6d4110bb26",
        "random-9.trace.jsonl":
            "8f23a3f8379f9d308ab4a9cbcd7469865acc87239148a7e7b14a0b7cbc6e91e8",
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
            "848a5060ff7300af7c4066ef0186c9306053f62b52a1fe2ed6a36c619b823bb1",
        "random-11.report.json":
            "e99011837a9a648653afa411490e8b4abc0c1f21e733d187953f405d66ac8967",
        "random-11.trace.jsonl":
            "9ea8013ad8ef98d536178ba430d735bbcdcedb05944bcc1624a52b5f109a5b5c",
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
            "448af6d94fefa469005f0de0a6a2411a35f2f248b501cdc5b0a317b5a442d182",
        "random-13.report.json":
            "b28632f05db230b7b463b84f857d54f6d8c6160b190439d27545b1989486b829",
        "random-13.trace.jsonl":
            "0a5461c8d39ff7d8b432048c51c63f6924a3ff81c4d30d692835bf91e6c80319",
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
            "fc61ae1ed1a6111521250b4d137dc79e8cc55315a4e01665684db3406fef8934",
        "random-15.report.json":
            "b59297549f1a1a2d54d3a9c1a0db705ed608d2056637353b766cc952c8198160",
        "random-15.trace.jsonl":
            "08cb290a10782ab5a4d5f7b75b33ecfde1d121a4c286fe798bfe473f8e423f3a",
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
            "e421efce459536e79ba45072fe48f21059ba041a81ef7ba17e4f6858f1400193",
        "random-17.report.json":
            "7d00276f32b6d5b029ec8f3a405192fe7ff6b2c7363b45280667e25d859ce504",
        "random-17.trace.jsonl":
            "babb89c6ac3b42c0d18f9bc7fc997af0bfbfc23b156f05203121bc780e907298",
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
            "0e4cbb27743188fdd56dd5f9e58eb07c9cb00230f6d3983a60b2c79bee10bf8a",
        "random-19.report.json":
            "d8fb9e608de51a33d950fa75cd8f49802b632d0dfc969b0464bee15d6d53315d",
        "random-19.trace.jsonl":
            "4322bc2fda7c8877b6963d8f5906ed1912b3031f918df1616d5a46a371cc5f51",
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
            "f328483d98bcb022b2d7aa62cbf6c6743ee3eb9c307813fd93ab1a2c4bef9081",
        "random-21.report.json":
            "b7d9e2a3abae521d5e2cc4f7e9f5692a06a2b88e0b9ec9676c0d1707d4845b3a",
        "random-21.trace.jsonl":
            "37479ad925865868c6a2edfea88b589f6b0adf6c504b32c5f815cb3812b5aeab",
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
            "9d21e63876c1b5c84775a2b4b4d65370b3fbdc6d79992755129a099ddca9c03a",
        "random-23.report.json":
            "ffae4d3237b3deb73342dda35f07414053bbff7b33af97ccc20ab3c5b0b36590",
        "random-23.trace.jsonl":
            "16c97c40980064d07a6afe7b3825cbda89b23f7cf06562f80f06049b181925ec",
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
            "3fca88c0a8768b74e95e080946ea7c3732a64a90e72d1621882eedaafd03bb68",
        "random-25.report.json":
            "c565a4e506ee8389b47c843733eed0ce512f7aee534f70442f7e6669420108ad",
        "random-25.trace.jsonl":
            "d99c620d60a569cda4e60e0b08a695b158c6967c7c69ca842b0b91215fde8cb0",
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
            "09d7e5af3a3e0f055115df48e75018e887a431cc94d9275b5ab29805132f771d",
        "random-27.report.json":
            "58ea815e195d6161b5dc62f525817b8d3fffe9c46de55234650014d1e81c06c6",
        "random-27.trace.jsonl":
            "b90918542041de7846de24d849106ff0191942b0f53cf4cb22209080e686e184",
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
            "764f99a1a4f3d7c8a247708a4003853488bb6bf873a72f59f3a9f6b1bb0f0de5",
        "random-29.report.json":
            "21400c10c32ca2a650a1cf2477a7e0dafdaeae85c89e8692398ce6f9b2b2d4ac",
        "random-29.trace.jsonl":
            "7f0d7d1ed6ad0d8f8e5e4eeb514a006b4ecb90f31b970d71ef096e9e39128544",
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
            "07254b2eadd68ebf6fd1312555647899e067c15e3a4bd0e4d22694bf5cf1a5dd",
        "random-31.report.json":
            "f073499640384fbe232f902cbc14ee69223ed97ab745162677f5c2875bfafe8a",
        "random-31.trace.jsonl":
            "d9fb8e621e6714492abe2916754b85f4b17f0cce5dc95f2cc5e15a98247351b8",
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
            "be858710bf835ccce45b608ebc794b4e5f887dcd6d8912a836661159f6623bc8",
        "random-33.report.json":
            "cce6e8b34c15667741dc6f0ac590c8de92c9d84c171684808fb68a3530f0b389",
        "random-33.trace.jsonl":
            "60b66a1be93cd3ba42748adfa5cf0c0a64800fd0d41e5c67e1be6c8002d07712",
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
            "d128f82ac79a0b649dd1922c71046281c96271431dd3b2e6a1203203fddf740f",
        "random-35.report.json":
            "63e3c5b326e2dd797245a620db1fc3cfd6cf142d21569cf169b332f8935d73ed",
        "random-35.trace.jsonl":
            "24067761b309b6067b2bdc80f2628cfd00cf34db51852bc07addb201d7669219",
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
            "76e0e55350d720c705e87a46b65e66e18203b2c5872eeaa3c283bbd015c55325",
        "random-37.report.json":
            "0f6f6b680e6f4caa5e03ef15248d3165ae536baa24d0de45eb8e12cb066385f0",
        "random-37.trace.jsonl":
            "98e826d54fbdd9020c112c347b40b84e1446aac8ffc78aa120785f43599690f9",
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
            "42c906781e6f66652b0ec72ba97ce06b2884c2d135a196e213280449753246ce",
        "random-39.report.json":
            "fcd59fe74077e4ff43b2236b567b8a8e539fca127bf3602ef12e5ea6b056d2a6",
        "random-39.trace.jsonl":
            "0d0adc337b5b6db886f07138bfc5bbb2fe7997b2c168997c51d4c416ff34864d",
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
            "c766b9b9356aa936b85e13309cd11bc3c68a54cf8334c0ab852672ca63d24010",
        "random-41.report.json":
            "c7d7a0854a4d4671f7cef2eba2ed34429d07944bc2f5d5a4ac0b4f458ca25412",
        "random-41.trace.jsonl":
            "157379f84cdc46ee117cc2c9d8cd753cfa4793ce7b78f517abb6507b1eb3a56e",
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
            "c3682d5893175594950f364fcb9a3548084907eee51706e76da594b663453619",
        "random-43.report.json":
            "765a6184f8b081459a48a4fdc69147ed13925f20918b11bf3e24e879bef60423",
        "random-43.trace.jsonl":
            "9e3639ab89c078aa7e5b4dc6e39c1eedd458ac0b83ec3cfc1f04dbc72f8da0fc",
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
            "c380edb98c54554481d9cdf611f483a021657d685d6a9c41a5f64e2d3ee4674f",
        "random-45.report.json":
            "5c0f46821b03c33d5b763a8c705e8a52da828824c3b69dfc4888321cba6c8b82",
        "random-45.trace.jsonl":
            "7f77b7a0cfc6b1006f2e6c2b4788fb7146c0c75e12a2e88b6d95cf0c68c471c7",
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
            "57c365f822c9889c22c65fd578a632f124e19304b9a3d26a1752bcc85a961558",
        "random-47.report.json":
            "6525ba782df142ada8b80bc2333b2c51319514151b09f74adcdde08a7e757ad4",
        "random-47.trace.jsonl":
            "426f3860c87d8fcff96d04177ad4d111875ed3e25324a843b42a03c03dbcb639",
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
            "9787f9d825c271863b1f3ee5f58ce7966b18c9cb257518546cd1cb4cf0644be7",
        "random-49.report.json":
            "50f181360bd8f0f448078bb9b27cf54ce4cb65acd0b9b6949e7ce8f7d3ce0b95",
        "random-49.trace.jsonl":
            "26139fb3754aea78c63494d9de7f5714d3092c383784741e26bf3a106ac7b965",
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
            "d2c4190f7bbdc4ede4a47c670535a03182ddb20a9bde120f8bf3045ffa02508d",
        "random-51.report.json":
            "3e4bad39cd045071178685c3c7086159554caece6e2e8bc4bb398918e364b767",
        "random-51.trace.jsonl":
            "97cb317e112eac02b1af5826d01e755d7fe7c5128efc1c51d66bedee0856ca3e",
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
            "d6dcba6569a431c1aa57c5d82e2e7da25c33402f370a10d156ca95c416659d4d",
        "random-53.report.json":
            "959fc0edffa0a73ee4452ffe502611320a7756e967d1c173904e7d7607736a5b",
        "random-53.trace.jsonl":
            "3e5154a6fc4eaca713cbfdd2e14a4a85d7634bdf870393bc5eff7d6d461bfd41",
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
            "ad4cc202e56a11c3a5ec8fb8630d63bedc00cbf6f371ddfd7fd261fa539e3066",
        "random-55.report.json":
            "7d7a56309558a22af1f175455304a02e163df3b351d2d9bb1ab2a00eb99d60f0",
        "random-55.trace.jsonl":
            "bf1816831d62f02eac3e91347235b6bbed8c52e5e5f85ac15ecfb2cd31c5c335",
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
            "4e27cd47bde5dfd42312c32b1cf0c050313760626b0fe8e02780e33334101372",
        "random-57.report.json":
            "4d6366e821d007637dd2d9126651997e6ba643a4611d0bc8132b1917f1a284c3",
        "random-57.trace.jsonl":
            "0ad7fb61c2811693728c8a1601f71bb10ea44db1a345a4912c38e8edff0e19ac",
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
            "71fd188d0469f2f2e7f447be747490396f55264ccc16e6898896533baac600af",
        "random-59.report.json":
            "ae32eb259959bd343c2c705d9fe26e64658b227a1a22db9ee09408ecb086effe",
        "random-59.trace.jsonl":
            "7467934d266ca76f2fa9a2df3fad8866f74bb695e3fa8cc7bcaa70d350cb3538",
    },
    "random-2333": {
        "random-2333.history.json":
            "b5d6071cab213ca09702ece15bb046358f1dda340e647c589c0eace1bb3f6141",
        "random-2333.report.json":
            "03acbc7d9ad6da48a1fc979c1f38f414d4715fb733300f6b2f4fc2181d8c6d1d",
        "random-2333.trace.jsonl":
            "6037be8267652ca6c9d74275298b01cfa851403539b1abc3e9545acc34c17a1a",
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
            "e389cc205a423b5f8840f422d06cc65a75c540589394c06c9e614f921e075fbd",
        "random-0.report.json":
            "b391553ba1cfe3e6a01efa659467ed750afc5ea0f131f9797267ead6455bd18e",
        "random-0.trace.jsonl":
            "c697b0f434a4c9820a3818e94fbdf922918c30a4fe2b17f661dd7c20fffc7f80",
        "random-1.history.json":
            "9a2969453c6ded16481c50406ed20a4cb4a27f3ded7942f74f9dab4416a607f0",
        "random-1.report.json":
            "6664251ca0a680652bbb04755f46d62c9b4c50ca921f850d776e04ed74a6526a",
        "random-1.trace.jsonl":
            "11c94419397ebedadeb4f675727eaf1760fa7cbcfd742cd8481bcfb8b23ee579",
        "random-2.history.json":
            "07b634cd71d9a967d7a86a55f6e8b08878d906b7841ac4c0fddc283c8e96e9ae",
        "random-2.report.json":
            "876f12ac70d27cafb39c133b5bc1a90d3150571c17f71ebcf775d7074f261fd3",
        "random-2.trace.jsonl":
            "fd385e302104e08915608bbd0a7c490d2a9cf01b214995cf4d5205d579e9cd19",
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
        "trace": "f32dd9d9608893de2a2123a68bd6303d22f9ee2c86fac7fc47ffe451bf409fdb",
        "history.json":
            "ba9084589216abfc5122edf4c219c531baad8db1d792b2fe1729860f6b8b5eba",
        "report.json":
            "08eb9737d226d5677596ef8cbbf4c5dce0f18fd7e12d45ecbc199e4ae0bb1b4f",
        "trace.jsonl":
            "b36eedaedc031c9f74d5e9d4b7ead4cb94d543acf3329e7152405c5efc5fb12e",
    },
    (60, 12, 1): {
        "trace": "1ba09ce135f31df3e04e5760a25b7b8896fdcef1ded006dbec62c35db8eba65d",
        "history.json":
            "cb3a367ca1742bb25966050c0d0ee85fa68b1da4e703efcc60e70b89c19e4e1b",
        "report.json":
            "b24e0a14e6d2dfb466e1a9c5c806bddf7c795494035a5b0edc4f452840ff3792",
        "trace.jsonl":
            "cc3425bd13e636ea09a27108583e061bcc8ba83b2cf4fc0fd87eebceec4139b0",
    },
    (60, 12, 2): {
        "trace": "57c7e24fb3e230df8f54d10e6f73753e32bb51308ce5367d0bb1fae87d3abe7c",
        "history.json":
            "b0b84b3fc9a88ec3b83b6e2e160b3fd84ed314b28433a573d20dde2130e45370",
        "report.json":
            "461fc2af8acfe6fae0883147c300099fdbb1a3f7118c8728b02023db536f4325",
        "trace.jsonl":
            "3d43edd8cf8d0a11d0f89bad90f31a8e2240ddc7ca03787107be422c955c908e",
    },
    (60, 12, 3): {
        "trace": "68e3d101440d77efcaf107bb430c2f4a789f6a91219b56019b64a35639efc10e",
        "history.json":
            "f0b24778e7d2daf9a72422c4249bcb8522bba77d97615b138432fc39a2a728c2",
        "report.json":
            "4de90453f2455fa6d2ab78334da8f99aceded027424fffcc8baac150f326de90",
        "trace.jsonl":
            "e5d5f93a17aa41fbeec4539acd5fe22cb03fd1da717795521a11373758a28334",
    },
    (60, 30, 0): {
        "trace": "216c1eb1b86c4c1b081710b316eb26dec0357bcfbb9fbbe0af93ba577c01b391",
        "history.json":
            "79d6d8d7f3e0a6f410fde5f5688fb9266565e2668a5d06b0f64c95722340e7b4",
        "report.json":
            "8c14a1f0174e684b4046bebad9c1dc56d58e9f16829ae5c37a362f31a3613d72",
        "trace.jsonl":
            "8e433037d1c510f8f8d5beb74682c6ec7ddc2241a2a9b6863837a2f926a8c67c",
    },
    (60, 30, 1): {
        "trace": "7982dc390a6b233d9da2607f3918d102c302f3f3ef2ee8053370eae076bf784b",
        "history.json":
            "91066bbb2ff8c39b1424faee85801673a0ccf0e2a49a258a131626f2b8367a25",
        "report.json":
            "d0e48d95bcffa8fc13849fb9acf92fa501c70f8037c1fcc1d58d951639c0d916",
        "trace.jsonl":
            "6484fd2a3636c0e271eff499d1527932cc9abdb83f4ddeb39506a969e90e2941",
    },
    (60, 30, 2): {
        "trace": "18230dac814eeb7977eb811fbb04be8f61129fb6abafa9820270382290b9f7e4",
        "history.json":
            "2be877fe543debc73ee8d32352b654587ef06ab6afcf532be9b1e423f026a0ce",
        "report.json":
            "9364beebe67110c5fba9bf384e94bdfff17c4d76c9307c2f1e2587b98cc914f1",
        "trace.jsonl":
            "168bfee36fb3537742de5d9f1453f330c4a9ced865910286c5aea2691717d19b",
    },
    (60, 30, 3): {
        "trace": "6bcbdc72d22a65edc44fc4c6438f78ba89e0811df52bce054af525118d1f5341",
        "history.json":
            "869368770c1c86b49a72f8f4a3792b298d7cf23563221f63dce4b8765916d762",
        "report.json":
            "33c4cc309ead9dbaf678a0826329c14fafa1323bb22f343c92e816caa7cfa7e9",
        "trace.jsonl":
            "126e4e126136fbe2a6f01d2a21c2850a10759182d70188d8621c52b717fda93e",
    },
    (200, 12, 0): {
        "trace": "85ce0ce999b0905b6c875e98f2c3aa79c84d860aed88f08b6df471fd40d152c5",
        "history.json":
            "402b59589bb34a71cbd289ce7bfa77494e9383a66d25447659fc53a45cdb8107",
        "report.json":
            "e0bd8dc5ea5a4ec3920702c31639f4ad7e5fa8d07f940ca404d6944bddc0deaf",
        "trace.jsonl":
            "dfdd910e2159c7524cda4ae5a4abbd3f8cbd609215819793b474c92d0a894f1a",
    },
    (200, 12, 1): {
        "trace": "fe76238b7568759612c76fe514c53a2efa253137d9844470c7777c885d101481",
        "history.json":
            "2f30a82d9eca41448ddc6ca6fe48d95cf58c405a0985920ddd8914d7c7571142",
        "report.json":
            "ebfb395da9d46df7f9b810c398a5c2aab19c671f0f6fef5238832c511ee41ffe",
        "trace.jsonl":
            "1cbaf5bcdf82ec13ebf0ea4531773c7e6c45ed7355788b2ecbc40b9d9ca46fb4",
    },
    (200, 12, 2): {
        "trace": "4abc0e271f1f0d651d378d316eb2e1b201ff262327f0ffa4f9c24b73bb61e87c",
        "history.json":
            "44f220aeefd9e11cfefa603c7da3f7c71f9314e5b83bd28b390100eab1eb95f1",
        "report.json":
            "1812503b9eeb7920bccc4c33a680fa0e71d03943b1d73966f618ff7df4266571",
        "trace.jsonl":
            "43b0eefa50542ff8efaee0e34a53064bdaeb59f4d0a9e6451bb3a0a635fefd6d",
    },
    (200, 12, 3): {
        "trace": "f6566235e2bf808ba26874c0d1d35edd92fc048618cacb4874ecae12e397d632",
        "history.json":
            "adfda6fae0539853c68c85e8e1e06b7a2557de280f2e21246800c059d1ad0254",
        "report.json":
            "0dfa55231233e459526217aa2ca6328efb5d3a95417dad72f0cb39c14c76be2f",
        "trace.jsonl":
            "408259dd7ef589794b9c01e3fdd566496d0b233b939fe6eb9a098dcef2121888",
    },
    (200, 30, 0): {
        "trace": "7aad97da3a3619b0a5b24baadd6c032bbd10d6d8482e084a0942d61086301bea",
        "history.json":
            "e04124ca9502175f0050379c16d169af879e877ea07e1642edc019c4f97b9ded",
        "report.json":
            "79cb8b056da384d7f0db81aa22956e9762693f85940652408168b424dd7709c0",
        "trace.jsonl":
            "a471165fa41aea0fe1150fef3f3f47b3f28cbe46810a167501ee95ed14b3b380",
    },
    (200, 30, 1): {
        "trace": "6cf7ef272f04154ff88df93ceb6f8105926ff4eeb5a4a128dcb67437e404cb17",
        "history.json":
            "f52349cc3a7bf49a0ea36c7759b78a616fc21a01105fce5c6e78c2743043b1b5",
        "report.json":
            "1321aa98efa77b56d845f38c65a95b704845d43551291401a20e2cd20cd50c93",
        "trace.jsonl":
            "eca60a175506c85dac70782474ed256d9df0cc1f2088d27e7debb5d3b374c77c",
    },
    (200, 30, 2): {
        "trace": "49ccbeefe64e9063df57fb8a4ac806082a583827b372a56677cc371819ff8821",
        "history.json":
            "09ddc65f85982cf6fac09436ac912289f03cb6736acf9b5720c3ecf1b2c4beba",
        "report.json":
            "350357b405598da4ab44195f66b06e673b088ffe391ce8d92ffa5e569c1b1251",
        "trace.jsonl":
            "0c7bcb9adc9e2042932372f3b5d9336797c27a59815de81d00bcee90626acfdf",
    },
    (200, 30, 3): {
        "trace": "0b23e432d5b0b8da12fa3e118b46914d630f9ebe874382ef5f040d0a67b4dad8",
        "history.json":
            "4d0291eb631bae0b1cacc01117a5959e810eb58d313f167c11a394d370528427",
        "report.json":
            "fb9522407c4a4ed2456fc40d3bdfe8264b9f59664db2e6d1dafb53af491fb0ce",
        "trace.jsonl":
            "380e7487f6c494b2a7f0295a0270f66dd0e52f246a057af119c388d5ced1b1a9",
    },
    (600, 12, 0): {
        "trace": "aeef5367bde9fcf1034724335389c05f696d180c97bc11e59bb9067e7f9adea0",
        "history.json":
            "b2243d5da48511f76119275024a288e2236cb7ff7ef43e38d507555d9a1d39b6",
        "report.json":
            "433cb994247db488d0ef87785dd0a7967010f205e64c026cd33460becdf3cee7",
        "trace.jsonl":
            "801ff842a800104646d24178f25d67bb601218f5a1d7408e8f9a84f8638da6aa",
    },
    (600, 12, 1): {
        "trace": "0275ccbf9712d3458abf874c0ce734570a7e9903c310684ad6b41b059eb730fa",
        "history.json":
            "4a51cab54cc141300bdecdf7dbebbb08114b3d2117a492684aae5b4b7c8cfb55",
        "report.json":
            "887d7b33135bcbd11818018e957a04d392161002a8b4d3b4b0b8d7f75375371e",
        "trace.jsonl":
            "ede74eb7478e504a2680592d8413545349d7deb3973e7005d2cec014aedaa101",
    },
    (600, 12, 2): {
        "trace": "2aca6a09e5312bcc337bcf57733a9daa3c58776bf7e07d2c58c77a285d06f3e4",
        "history.json":
            "9118237bf66980d38ef6c2e4903f72e312dd6c88076f9ff5b8473c8bbb18a0f7",
        "report.json":
            "8bd5bbc49ac49f1f61e810f7dc1ed322cd8324b877aab46f70a4a4b821149220",
        "trace.jsonl":
            "c8e211b4141863c674bd94c990172552671301e6e01a013e63d048d9fa58bf99",
    },
    (600, 12, 3): {
        "trace": "a00952d1483cc7bc05c28c533eae6de48b7fd62b84a8276befaf40413ea9190e",
        "history.json":
            "274816435893fb3583b0d92c717c184b0149f55df3239b126b6bb00a83ab8d0b",
        "report.json":
            "0b17324d9ecf14d3cb26924e82420119e62dc31bb6afd24e76a362b4e3ec8b7e",
        "trace.jsonl":
            "08ea8f95feacd264e5155abec44be450f39d27a80d08e5479416d487e0a4ace4",
    },
    (600, 30, 0): {
        "trace": "0eb76d986793b5e2754df189905e20b4978c025d2bea50acb38b4f508fb38ad9",
        "history.json":
            "5a24f4eccf388da2da9f4cca5f1341f45bb3d4441017da5654cbe24fd9da4fc9",
        "report.json":
            "df4a586f021e14a47bf2ae05b79f0b926800e20b7dd800077ced7a1424830fda",
        "trace.jsonl":
            "40191fcdfcefe896a6f729de8278a2b76415c03bdb81f389374d351864be42bf",
    },
    (600, 30, 1): {
        "trace": "e4bffbabf1c33136cf3f022a04d73ef6df872ce775d7e429f30121277f381add",
        "history.json":
            "a11b186348d5507586e78521d568e46afe428d904f569471382aa81a6ef28ed2",
        "report.json":
            "7e6ccc85a1fd0db92c6210128c3ab64a8ac29e1c61c801fe5dcbb0af506e72e2",
        "trace.jsonl":
            "998022506418365307dd7558a47ae631e6e1f1e45ba6f311ce6921acf8a3892f",
    },
    (600, 30, 2): {
        "trace": "27e023c5ec579d9f2c1a260f972fc9a3dadc998124063f31e6c30f4eb8027e76",
        "history.json":
            "1f330ffa65bc35d331888bea95ad2fa75e563a53647eaf135b272edc24f1aa68",
        "report.json":
            "2912097fe65a150517db08f706b2d1d881675d414a2ba5273c439d6a58f9dfef",
        "trace.jsonl":
            "ccd8359eea62233e6252bfaf4859fd8478d980ce48d60541c14c289df83688d7",
    },
    (600, 30, 3): {
        "trace": "912ed3fd6c442782f20012b9b9214774d99144c9ef2148493e50cf8c206362ba",
        "history.json":
            "6a30d457ffaaa5c5f2b7f88457580621217cbf46d6c43922ef10e3b5a246eb48",
        "report.json":
            "4a6e465ab35d3c04c1ae9f70bb4f941299a81f7baa7e28582463a54afacda8e9",
        "trace.jsonl":
            "3c909ebe69d8b192949b5b87da6a98b3bec3458b75d561d12973c7959a98cace",
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
