"""Golden trace fingerprints: sha256 digests of written traces for a fixed
set of runs.

The determinism tests in test_simnet.py compare a run with itself, so they
cannot notice a refactor that changes behaviour. These digests can: they
were taken before the scheduler and trace recorder were rewritten for
speed, and a change to the simulator passes only if every one of them still
matches. A digest (`conftest.fingerprint`) hashes the lines of
`RunResult.trace_lines()`: every trace entry as a compact, sort-keys JSON
line, the bytes of the trace file that `write_outputs` writes after its
header line.

Do not regenerate a digest to make a test pass. A mismatch means the run's
behaviour or its trace format changed; if that is intended, say so in the
change that updates the digest.
"""
import pytest

from conftest import fingerprint, trace_entries
from splitstore.faults import CrashSpec
from splitstore.scenarios import SCENARIOS, random_config, run_scenario
from splitstore.simnet import Config, run


# Seeds 0-59 are one full period of random_config's fault plans, half of
# them in each metadata mode; 2333 is a known directory-linearizability
# failure in replicated mode (see test_mds_replicated.py), pinned so the
# fix can show exactly which behaviour it changes. 2039 and 2579 are the
# only seeds in 0-2999 whose traces change when a scrambled metadata
# replica serves a snapshot sorted before it scrambled its state.
RANDOM_CONFIG = {
    0: "6e50f0b7358077a4d715b9572abc27f2d0961f2fbd46e76416744662ba648863",
    1: "8b8535858f9e16064722f6868e3c494751da413a38aa8cbdc3c4896207bc4b06",
    2: "9be267dcb0b473a9ee697e6543dfdb63c3fbcdd5992a4d73b91811fafba59fd6",
    3: "f580fb9cb4f20cc32014d66618b0b655bb4ee1c44ec262114db0748cc916e307",
    4: "66615d497fae5d029c33e1fb23915d146a075f6555ff8087463aa946f0a524b7",
    5: "4f1c274ebcfda7c9de3fe231302f753fc284bc01506715e4adf87b8f41a59831",
    6: "63dd0631d26fa6360e939b10530d70f12fa63ce4438d0b9cefb464e5c4fdb723",
    7: "2f02c8a61f03c81df3884bbde4b285aff1b9259f254acd5d88eba68f4388f226",
    8: "4dd046b1648e01a8a41dde7b0c2601b40f4beb667c5a627ca876f30f442e4a54",
    9: "c716a843564a5e1ce40230d6147373f963d7fa2a0ee78b9975301112599fee87",
    10: "8e827b6b21485137708e0051b953cc2fc511e1a7a1dda0434020e1f30305204a",
    11: "967485d68a6ba6d7412af19f125021b051b0328f022ab3cc9351508b71334dd4",
    12: "e9ba4effdf28841cd6512cbf16250ed9dd6a3458d9ed2d76206c2a843ea22633",
    13: "18c4e773f5714f4949542aedc4f499b2459ea5b78acba0493e6084daa660651e",
    14: "555b92cb475966185ab73a278b87c81776e430ae44b3e52b335821baf9073a05",
    15: "bf7c4ddcc58a0c435a3eb877b93a9a88fb9d9f7d357aff3e20a50b4885db7964",
    16: "f682cbef3f385d368d927764aa3b3c39f8873b1698f18d63c098f0411068b918",
    17: "6e88932165e7431df77df0a33e919615e3047f8792935d76a1713281fa95dd36",
    18: "b050a31510abad8a73760235da155c41e655dc1e727d2b5671b2056ad65649b4",
    19: "8d2978df3802dc95185068283aa3a8f4b20dfa461ed65b0cf98896a0f62204fc",
    20: "ebcbd3f260a242d5f701127fa3e704872fc805c8c58e53a95805ca28c7e75c63",
    21: "e8b4e5a536b177d643b1be94a5c21e82b975ae733483c01cb328f56fe6a7f72d",
    22: "830ecbe23c6e99b8ef78b88ce0c12c571f0c6f833536b4b036730217c00816f1",
    23: "b653eb269caf49d3bf8388db388b27f87c7450e337fd63a5b9cf79a880224f86",
    24: "5d011bb3421ea37e6e6c7b0ba30d24d7fef2a5ee62048f5409298175d8d189d1",
    25: "9a33f3ab431e224b5c6f8d0d411065f86e8c2a1f2b5189d0a069d9d388224993",
    26: "d85622088cf159f00cb87d19b37f0ab49c2b9aab2dfb9cc240a6c76a56eb8166",
    27: "205769dbf3068c3c34dba03f3456ab9f9e991c9c6a580644c65e4c670200e9f1",
    28: "2d7c327272d622c64d07422ce331a102a3ea643d80cc9d18649bbae33b2fb67f",
    29: "5986b66fdad5f17a2570426cde489e877ef61c681e65a41adfa23c3da905c370",
    30: "3b3288936d7837f04290fe4fd395359f1d63e407359554af14d598fffa42b3ce",
    31: "4b7ad560e926da4baebaa324ffd13fa0f3f1d50c7c44442b6117dfdb974d5933",
    32: "64ec05ad77aa56fd6e9e77c388f73f215c63771be4f89ae918b022afb196c328",
    33: "61bb07e35d310c5ea1302396d1254273aec6c4cfd57d19fef39af8be84cc0f41",
    34: "b6662438f015cb53055e9ca14761d4f12f023c88262c93ffb0fb82301a78ec97",
    35: "180d2110099e1ea620e184985b5fc0d5ce2de525c05107c8e73fbb48e683ff2f",
    36: "92555e73df8847c6ca74f6bc3ee43ba1787674ab4942c7fbc54b625f675ff6be",
    37: "13e98ecd0ec381d0d9d6eff0f8b5bfc533cdac68a91929e3dfff79711b486704",
    38: "ea7fad74211a17d171e5c541fac3cc7cdf542b48b91000ac0b34a63df3778047",
    39: "89b87c9963f1090fdba2d6a479be783e9090b51353780e1d56b4dd9e0d8d0fd0",
    40: "97f05a74f7fe5e0122e58ca2860e8d300124756e479d83c0dd74bb683705d2a6",
    41: "0bf052e6065f59aa47ae8f74bc82a54cad76f9f530a90cb5a375f51da2111a69",
    42: "4c6a64e8ae5e8cc712b2f546995d631ffe2d38da8be5e10d803e2c7cad105616",
    43: "11c5ebd0a74d5b01c06fe324bd3fffc694e8a54e76292a2e276eab833e964fa4",
    44: "3dfe66f8cb0a8c08c07538f0d1d557a734648d53ef773bcd65bfbb711d21b345",
    45: "ff0704644e14e3d1578134d39209125f19e46a1b9f7beb259749ca80962774cb",
    46: "331320c84b1e0eed3bb3dc57fae38a54325c6fbe9871d56d673a0f2dde427a09",
    47: "b64deb0400d3cc5bf7e1584785b23e6dac86eb91f549e1e92c74f9cae5a5eb2e",
    48: "3e935eb9118d269e28873643364c463d4618085a50fc5205a6e08dc2933b11cf",
    49: "302787ef138be753d4b3d7a52d5a865288098b8157b3d36076a4eba38ab4918e",
    50: "d6ee9c67e0e26f7621b8aea61ff7322ed6b90d30fe17062b9da3137d8a12ba22",
    51: "ea03a80baf94fe59e06bdc4e187b99bd776937ae686d3748441d0190f1034da6",
    52: "39466e4a5a07e93294e9c5d30483833c62550f14df83b61d28190ada24e4180d",
    53: "75e2d4c81ed97095f9f7b363ef95f848cd9031a45ec3e7325a63ea5efa4d8416",
    54: "e23ac1827ea18df368c0569c5acf7e066fb848fcc587ecefd8ac01a9782a96d3",
    55: "79acc06d2013bc4d2a6e30ab5b0486d4fb53ae090da551261150fca5bc4c188a",
    56: "e2f5415be9a05162544b314b588583f0ea6604a7c8f3de63e9efb5abb8466b57",
    57: "94a04f62510fdfdf4a0be9d00f3b6ec95bde96e2fbf90f9b755f5a2dd3dd3e26",
    58: "152797127a4fbb3c1983e7d8e728d735f62b7171d9c15c148bbc96749b82ae26",
    59: "d3ffb5d751088f6e067ed5424415e4902afc3a433939a620a4276597a5d00c28",
    2039: "f8bb660f74df5996b767cf2a00c176204fc5230f3896c6d7e9d2424f46967e46",
    2333: "87386ce69fc44342bdb2ad100c01c3c3f83e81b3011cabf0fbf6d520c94860ee",
    2579: "396502a91d34dc654e05e44fcddecb02a86de2dbe84ca7ab8a4c05dcf91d4a20",
}


FIXED_CONFIGS = {
    "wide-fifo-0": dict(t=3, tm=3, writers=8, readers=8, fifo=False),
    "wide-fifo-1": dict(t=3, tm=3, writers=8, readers=8, fifo=True),
    "replicated-ops10-fifo-0": dict(mds_mode="replicated", ops=10, fifo=False),
    "replicated-ops10-fifo-1": dict(mds_mode="replicated", ops=10, fifo=True),
}
FIXED = {
    "wide-fifo-0": "f3123c083859236ee6bf1cb3702da90af218d38398636cce7eaabf30d0bec645",
    "wide-fifo-1": "0156003371be0f833ba57806cbffc353868a202098ef2bd186e2032507e0e3aa",
    "replicated-ops10-fifo-0": "f3b9ed1477a4c97cf02ce889092d9a0fdc11dba5051f1ea7137e28ee3dcf1b9c",
    "replicated-ops10-fifo-1": "5b1df3034929c17d01bf60021abcb81f62c2b6d5b1eb77b48eebf0e5f7a7410f",
}

# after_ops crashes on a writer and a reader, in both metadata modes, with
# FIFO off and on. Each run crashes its target right after the completion
# that reaches the count, and so drops the target's queued next invocation.
AFTER_OPS_TARGETS = {"w1": 1, "r2": 2}
AFTER_OPS = {
    "w1-after-1-oracle-fifo-0": "0e33411256d68dd6544e12693179827c8ea018bafe8d7c226f5c31c8cdd057c9",
    "w1-after-1-oracle-fifo-1": "a2a05bac76e80354d3f8b6bd2659d90788ddd2a3084b96fad6c5a408373c0738",
    "w1-after-1-replicated-fifo-0": "b19a97e8fb624294644a2c7b95cf141ef83b14589f9ad39cc7c6c168e6ea483e",
    "w1-after-1-replicated-fifo-1": "d03c5c1ed23387ddb9fc32dc5206ad81c0c236023a3b5f70a1b26c716387ec1b",
    "r2-after-2-oracle-fifo-0": "2af98a4d73d2dad9cffc0bccdf61ddcaf86d839c5738b8228aa6b0d0471ea7e9",
    "r2-after-2-oracle-fifo-1": "25be954ba330502253e0561d3e429e6fbcfaee68a15fb73d6c41e58e8dd038c3",
    "r2-after-2-replicated-fifo-0": "12db80e6220ec9ef50adf460d2c2f89b94618abb4f66f14bdf955558ae8a7686",
    "r2-after-2-replicated-fifo-1": "9403c9215628f706a97911e546ed3f66cf32f03084f3ffdf642de33f88db8ba6",
}


def after_ops_config(name: str) -> Config:
    target, _, count, mode, _, fifo = name.split("-")
    assert AFTER_OPS_TARGETS[target] == int(count)
    return Config(seed=4, ops=3, mds_mode=mode, fifo=fifo == "1",
                  crashes=(CrashSpec(process=target, after_ops=int(count)),))

SCENARIOS_AT_SEED_0 = {
    "control-2t1": {
        "control": "91e9a31706ad4386fefa38453cb9ab6721fb388895b1e782925761916b576b98",
    },
    "fig1": {
        "fig1": "515263e272a05b82ba3c99f6885dc71fc80dd01b752842e0c4a34f96e223ec92",
    },
    "gc-quiescence": {
        "gc": "bbf7fff12cafe75d63c44bfb79b49256245e56ecd8011db4fb617f0de240fb7a",
    },
    "random": {
        "random": "6e50f0b7358077a4d715b9572abc27f2d0961f2fbd46e76416744662ba648863",
    },
    "theorem1-byz": {
        "baseline": "a8853b1c2565e13288c6905b874eb248f53fb69704a7cc1fad69b44b5a11c782",
        "forged": "408792c45b0c639f54689b310de27c09ebb78a70088fd075b4aeac8219218328",
    },
    "theorem1-crash": {
        "crash-lower-bound": "f7369bdcb88fac241e488622d5583d95af0d49790065d086e38c69a01ae92ddf",
    },
}


@pytest.mark.parametrize("seed", sorted(RANDOM_CONFIG))
def test_random_config_trace_is_pinned(seed):
    assert fingerprint(run(random_config(seed))) == RANDOM_CONFIG[seed]


@pytest.mark.parametrize("name", sorted(FIXED_CONFIGS))
def test_fixed_config_trace_is_pinned(name):
    config = Config(seed=0, **FIXED_CONFIGS[name])
    assert fingerprint(run(config)) == FIXED[name]


@pytest.mark.parametrize("name", sorted(AFTER_OPS))
def test_after_ops_crash_trace_is_pinned(name):
    result = run(after_ops_config(name))
    dropped = [e for e in trace_entries(result) if e["ev"] == "drop" and e.get("kind") == "invoke"]
    assert result.crashed == {name.split("-")[0]} and len(dropped) == 1
    assert fingerprint(result) == AFTER_OPS[name]


def test_every_scenario_is_pinned():
    assert sorted(SCENARIOS) == sorted(SCENARIOS_AT_SEED_0)


@pytest.mark.parametrize("name", sorted(SCENARIOS_AT_SEED_0))
def test_scenario_traces_are_pinned(name):
    outcome = run_scenario(name, 0)
    got = {label: fingerprint(result) for label, result, _ in outcome.runs}
    assert got == SCENARIOS_AT_SEED_0[name]
