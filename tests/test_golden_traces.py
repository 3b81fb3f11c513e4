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
# them in each metadata mode. 2333 was the first known directory-
# linearizability failure in replicated mode; it has passed since a tsread
# skips the write-back of a pair 2t_M+1 replicas report, which moved its
# schedule, not because the collect defect is mended (its witness is now
# in test_mds_replicated.py). It stays pinned. 2039 and 2579 were, when
# they were pinned, the only seeds in 0-2999 whose traces changed when a
# scrambled metadata replica served a snapshot sorted before it scrambled
# its state.
RANDOM_CONFIG = {
    0: "6e50f0b7358077a4d715b9572abc27f2d0961f2fbd46e76416744662ba648863",
    1: "6f7a6dc5685f351dc24c1c99ca3362177db9c42031b0529c3476012ae74e3b3b",
    2: "9be267dcb0b473a9ee697e6543dfdb63c3fbcdd5992a4d73b91811fafba59fd6",
    3: "f29681a3bc3b0d3c9475f29a763e6ec00993f24f62fe80d2762e2d72869829b3",
    4: "66615d497fae5d029c33e1fb23915d146a075f6555ff8087463aa946f0a524b7",
    5: "42f4690326e576fe2eda2949dd3755620599735cba86e71f33624a8494afdcdd",
    6: "63dd0631d26fa6360e939b10530d70f12fa63ce4438d0b9cefb464e5c4fdb723",
    7: "288445b31ab2c2cc300d84de91b6e575e6da1ce12f4eb67966196c546a4f4f84",
    8: "4dd046b1648e01a8a41dde7b0c2601b40f4beb667c5a627ca876f30f442e4a54",
    9: "24e0e52c38a7c02c8fb9df05980f2d617434f67278954f9748787c13d0c3b0c6",
    10: "8e827b6b21485137708e0051b953cc2fc511e1a7a1dda0434020e1f30305204a",
    11: "8ab5f63e11f93e6bb7e533a350b7537396536ac9b565c6d7f4b52edaf8ade711",
    12: "e9ba4effdf28841cd6512cbf16250ed9dd6a3458d9ed2d76206c2a843ea22633",
    13: "f2f881d3c4b7a0f3ae276347ea09430070125046dde91ee8122686c2522cf03f",
    14: "555b92cb475966185ab73a278b87c81776e430ae44b3e52b335821baf9073a05",
    15: "2e47fc3db02daa644186640dd987647f0ce1c2adf6bbadb37d4215fc5afe6217",
    16: "f682cbef3f385d368d927764aa3b3c39f8873b1698f18d63c098f0411068b918",
    17: "3734ac19485ee52436eaf175c51d28b7ab808e1188e25f4516145ef088690b46",
    18: "b050a31510abad8a73760235da155c41e655dc1e727d2b5671b2056ad65649b4",
    19: "e0750446a14cfb88485fcc29b6cd6a22f42e1ef1ee92a53a9febb2d2974cab72",
    20: "ebcbd3f260a242d5f701127fa3e704872fc805c8c58e53a95805ca28c7e75c63",
    21: "cf351ff09d4b5aa5207eb62d24ff4b2884e7b41ab9ed24696a437bbbb4d39754",
    22: "830ecbe23c6e99b8ef78b88ce0c12c571f0c6f833536b4b036730217c00816f1",
    23: "681e9715712b4701efa524d53d2d777943760ed55489eab8f15f6e82ddfdc501",
    24: "5d011bb3421ea37e6e6c7b0ba30d24d7fef2a5ee62048f5409298175d8d189d1",
    25: "ccb6d460cdae3222cf390eae5241ef97d7e733ef2014bff0f5d21febfd304b8a",
    26: "d85622088cf159f00cb87d19b37f0ab49c2b9aab2dfb9cc240a6c76a56eb8166",
    27: "f4576192c66d6a44faf9651baf9a5789becfba2337fc76b8a5444d6a08f0e780",
    28: "2d7c327272d622c64d07422ce331a102a3ea643d80cc9d18649bbae33b2fb67f",
    29: "70c7ef8d5dd1ac7e672ff4e16b7bb1ea1259c13d9a04929672a7b9e6c6effb88",
    30: "3b3288936d7837f04290fe4fd395359f1d63e407359554af14d598fffa42b3ce",
    31: "e5e588d8a6a94d2becfc8fc2bd01671359fe0ad8ecd095f8fd97fb56b72612f1",
    32: "64ec05ad77aa56fd6e9e77c388f73f215c63771be4f89ae918b022afb196c328",
    33: "1525abab9e8f0674d11f5215c8b7fd564cb4c07c94d7f4a7348964aa780b9623",
    34: "b6662438f015cb53055e9ca14761d4f12f023c88262c93ffb0fb82301a78ec97",
    35: "6904d3049395dc35c6210b0f6c2942f4dba681e6e52b1c038f0b40343eb1a61d",
    36: "92555e73df8847c6ca74f6bc3ee43ba1787674ab4942c7fbc54b625f675ff6be",
    37: "d8be7c7e8bdd4b94e578d23083cc66d4507dd8dd2869fb62b6c73b3974372d88",
    38: "ea7fad74211a17d171e5c541fac3cc7cdf542b48b91000ac0b34a63df3778047",
    39: "ad78c6af28da63c5b60bc160fdca5342a7082a7dbcc19988f178f9cb69c7280d",
    40: "97f05a74f7fe5e0122e58ca2860e8d300124756e479d83c0dd74bb683705d2a6",
    41: "a611f06208dcb31271a829a09cba7728d87c0b898614cd9219089fb5898a356d",
    42: "4c6a64e8ae5e8cc712b2f546995d631ffe2d38da8be5e10d803e2c7cad105616",
    43: "cc838a8a13352db85edbc81fb94b2ec8ec93d049c64e47f8c0a9ff842d10c7e3",
    44: "3dfe66f8cb0a8c08c07538f0d1d557a734648d53ef773bcd65bfbb711d21b345",
    45: "8c3c5ec08ce24cece641dc0043a047f02702d73e1cbab393a718776f12e82d5d",
    46: "331320c84b1e0eed3bb3dc57fae38a54325c6fbe9871d56d673a0f2dde427a09",
    47: "a62f8d64709e944fe5d5bb5b88ff207e5a384cb67c19585bab737a4450c1d211",
    48: "3e935eb9118d269e28873643364c463d4618085a50fc5205a6e08dc2933b11cf",
    49: "4b175a7deae71ff6c25370cbbd63f08252b75b6e880a0ba63795f62138b5525f",
    50: "d6ee9c67e0e26f7621b8aea61ff7322ed6b90d30fe17062b9da3137d8a12ba22",
    51: "7dc9d5cd6a63acb1d4018046a82cd2ec2a1ec303fc9475894f9728832fa29dd6",
    52: "39466e4a5a07e93294e9c5d30483833c62550f14df83b61d28190ada24e4180d",
    53: "dc66c4f63351e9bb3ff4d084b72653a84ec15e19a5a14da6b5dc549da29e966f",
    54: "e23ac1827ea18df368c0569c5acf7e066fb848fcc587ecefd8ac01a9782a96d3",
    55: "c18f1dd9f105433f3dccf9f4dfa01ad550bbb0e197e33d8b46f6f3e1836acf0a",
    56: "e2f5415be9a05162544b314b588583f0ea6604a7c8f3de63e9efb5abb8466b57",
    57: "d2bf3a01d6e8dde1e4b16c8b4a94dea7304548ea89ec48175a13706cae500b58",
    58: "152797127a4fbb3c1983e7d8e728d735f62b7171d9c15c148bbc96749b82ae26",
    59: "62977144998d0f2bb70f7c2141f541fc4d6cd09e0b1b3b18719c1e66f6a4786e",
    2039: "38613d76666b4c1b67e9aace4c2f1fd5e943491338c408cd80d87ae3cb324b5b",
    2333: "7010419686fe1a6cf86f597abb0aea5915704fce62934c638fe3bbb9d0191562",
    2579: "eb0a6a4f63995b6bc55b10af30a1fcb35d3796044d846b9ee330ebbf1d4be6b1",
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
    "replicated-ops10-fifo-0": "3bd9953a1c8677d32399ee10fb95adf0be52849368730ad6bbf2a64fbbf39d62",
    "replicated-ops10-fifo-1": "ce163c2b5f4434bc641dbb83f756ca2e8a7dca29d88ee3181635a8c87905ed18",
}

# after_ops crashes on a writer and a reader, in both metadata modes, with
# FIFO off and on. Each run crashes its target right after the completion
# that reaches the count, and so drops the target's queued next invocation.
AFTER_OPS_TARGETS = {"w1": 1, "r2": 2}
AFTER_OPS = {
    "w1-after-1-oracle-fifo-0": "0e33411256d68dd6544e12693179827c8ea018bafe8d7c226f5c31c8cdd057c9",
    "w1-after-1-oracle-fifo-1": "a2a05bac76e80354d3f8b6bd2659d90788ddd2a3084b96fad6c5a408373c0738",
    "w1-after-1-replicated-fifo-0": "6a9580de41fccccc54acd4e09368d87854753dc20e3f37a3ac90545f54b44c73",
    "w1-after-1-replicated-fifo-1": "a3ddc02e8ac90dc6f59f1993ac1f1239c4a2270d7f56616ba097162ac4f59ac1",
    "r2-after-2-oracle-fifo-0": "2af98a4d73d2dad9cffc0bccdf61ddcaf86d839c5738b8228aa6b0d0471ea7e9",
    "r2-after-2-oracle-fifo-1": "25be954ba330502253e0561d3e429e6fbcfaee68a15fb73d6c41e58e8dd038c3",
    "r2-after-2-replicated-fifo-0": "2e4aba83a66c1e15211077de3e627ce71a3bc4c929cc81e15d55bc09e0f9127b",
    "r2-after-2-replicated-fifo-1": "9d2fde483fa5082efe82fcc8614aecdc7769294bd30dd0684d2a0961a80dae0f",
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
        "fig1": "42f44b169a1125b58dc7116937d8520c031eb59f16d2234357f61c53349e4d97",
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
