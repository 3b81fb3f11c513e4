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
    0: "e9d36b9890a9cefefc1da6b214973ff63706173005557ae20130c6ebedb56b19",
    1: "ee6394f6f75662677d56e9501f61e402db1bd6868600d1ed39874a0a79a5aaeb",
    2: "d98a169ff37fddf65ee3f038070ce385ee9be0592b74d2f58361b8f4624ca8dd",
    3: "9f86ac48970784faedd6afa6c0e1b24b8f3edbf890f29bad1e71883b6e489aca",
    4: "0b621a9090f0bca6bdfacd8b337310d0a15d8ecb61048b74e8ce74d4ec552dd6",
    5: "29a6a980c02d2d0dafcec4b792a0d1e8619932549958619f821eece23abad007",
    6: "9d7912ba1fe12fc436853b782cc119a6d0d229078d39e3b4c303ed4fc9e85802",
    7: "10e9f101b3fb0b27e05c1b889492894f1b506c030b86729baf0fcb04638927d8",
    8: "4dd046b1648e01a8a41dde7b0c2601b40f4beb667c5a627ca876f30f442e4a54",
    9: "544df03054731ccce205ca09ad88e2d1da963db53c4f66bd495c2e116d1d180b",
    10: "f6e6234edac9099ffe8708af956218948eed1f164afe72d0bf115afa802eea7c",
    11: "c08cc26a4a244a902a78ed1cf45d4fbbc73bf5d5621cc01817f062b6706ee62f",
    12: "f013d1e777fdef60cf5b4ce6ea5707db3e1dcee388417046c180b143c0e91ebd",
    13: "bfd8c59750e750c68bfa4aef22404f5224ebee638c2c5eb1b7489d9493bac817",
    14: "a773c3a716704e98ec2d4b2d7355e5e8d6b5daf3cc8a1014a2b9e3fb25404b23",
    15: "60f53453eae94326d5148df4bb3fb8004a02356a8356966766b5a54b1749bd3e",
    16: "f682cbef3f385d368d927764aa3b3c39f8873b1698f18d63c098f0411068b918",
    17: "ee493eb9c258f080ecfd5db3d8457de19d3d9a18c40c424887ef62b34cc26aba",
    18: "b050a31510abad8a73760235da155c41e655dc1e727d2b5671b2056ad65649b4",
    19: "17d500153483a38666afca8bbc9d8f8f3c40606faf6e2ac80e01f5ca8532dc08",
    20: "ebcbd3f260a242d5f701127fa3e704872fc805c8c58e53a95805ca28c7e75c63",
    21: "9c3ca68756bf04b59f6d84bbce33da68bb3522a6e43d452c8bda65a45586a7f7",
    22: "830ecbe23c6e99b8ef78b88ce0c12c571f0c6f833536b4b036730217c00816f1",
    23: "b01e8fc1aabf1d967908d598605beb0c1ad265b49b99b192ef95772695978f71",
    24: "ba4afd1d9bc35e48c6a6d45d7de4df521cee281eb7c2ca43f56014ab98092973",
    25: "8d387a24214253e48efe0b1e90afa86b39655701a022764c5500d73689b16970",
    26: "d85622088cf159f00cb87d19b37f0ab49c2b9aab2dfb9cc240a6c76a56eb8166",
    27: "047eb8ce22aff4e5e2c41c944fab40c0f4cce17cfe2be70358a52439a09c6361",
    28: "8a3c8133942feb265d4c15504ca3d86c79a7230b2d8440a359ec3b5585e17e62",
    29: "3fa2ff2d4e870c641d51d8ff14e8b79cb5c53dad3e9c89268a5e9f8677209722",
    30: "3b3288936d7837f04290fe4fd395359f1d63e407359554af14d598fffa42b3ce",
    31: "c7a61cd1fc4db7f04cd8c16397df5e339f80c2e794230ad62a2b0d8069f0c619",
    32: "11479c71fdf3d1a8b677e111ccbe75741fb23ced7c63381d0f307ac175dec28b",
    33: "62d16ccbbc202ff229491fc149aafa898bba1dcbe6a713d81f4930dd71870401",
    34: "f435639bea7d96740312f9f85b062aa4435c938299a8615d394a91ee64a5960e",
    35: "aeeeef617b8a25cb4ab09f7c6966b047b57b7081bb884e12c74fb180fdd227f2",
    36: "9653c2342748f002a4172ebf2b76ba7df146c4165438b8d9b1e09134d8dd8415",
    37: "4d9ddf05a1eeb7453a1246459a4d6e92d07e5d85b3c78292565fe9d3a118a1db",
    38: "ea7fad74211a17d171e5c541fac3cc7cdf542b48b91000ac0b34a63df3778047",
    39: "26074a83f4a7f6c4261554958990d3e5311e3160f4149ebe6b15a5ee455f51a9",
    40: "97f05a74f7fe5e0122e58ca2860e8d300124756e479d83c0dd74bb683705d2a6",
    41: "3d5057c89cedce548f4dda63d2cdb85c435b4f540e51efb0549c9107b74e0c8b",
    42: "4c6a64e8ae5e8cc712b2f546995d631ffe2d38da8be5e10d803e2c7cad105616",
    43: "4f4e29ed908d82d9e434c31a585af4dfcfe94eb6e1dcb208c64e5803a7494e27",
    44: "3dfe66f8cb0a8c08c07538f0d1d557a734648d53ef773bcd65bfbb711d21b345",
    45: "399b6f976e139cc07d1d9ceb4b7e737b0de5f68fa37ef9e21952b6020d36edb3",
    46: "331320c84b1e0eed3bb3dc57fae38a54325c6fbe9871d56d673a0f2dde427a09",
    47: "a87a307c665767b141f8e6f41f2b1557fcb695bbf6112841236585d15d50c3c9",
    48: "3e935eb9118d269e28873643364c463d4618085a50fc5205a6e08dc2933b11cf",
    49: "a9c0a207522908e886565f3299c4fdf3cf0e9b5ab0a116f4baa343c78229440a",
    50: "d6ee9c67e0e26f7621b8aea61ff7322ed6b90d30fe17062b9da3137d8a12ba22",
    51: "afa8cd9bb126001d1c9295f0794819001f3f53cbabcfb4b39bc67956e2a9fdeb",
    52: "7bd41492835af9c03fda8cca741ce5fa810e1559eca95a222dfb64c21174f433",
    53: "30ea6f08466904152cdc2079bc2aa4293619181fab17b57d5c7db9b026fc65c3",
    54: "8c04614c1656f21b44fba43f61b0738911729c01af88aae33aafacb7870babb2",
    55: "9e5bb91f70784ddf25abf4578731011ad224bcccae52878d279cfd887d56ce15",
    56: "e2f5415be9a05162544b314b588583f0ea6604a7c8f3de63e9efb5abb8466b57",
    57: "965bcb6a242dc0a202af3cc7697ddc02470e72954eb3c62eb1729ce4273e4444",
    58: "fb849aa82143bcf3b50109051e55a2e7b84c88187f0801c90cf432c045539590",
    59: "4690c803e24805e46324e4c476e951b2fa1f2e914a0f83980aeaa9ada629c8e1",
    2039: "09b657f0013825285b1c1304c1a8950d4451c7099ebd159fb36dc9536e66de2e",
    2333: "24040e302f85f5da3be8249084838ec081c9e423dae27b9660559d132191b462",
    2579: "acfafdfdb51af4ed6f92b0617b801beff0e5412bca117e1ab6c8212d338a9dba",
}


FIXED_CONFIGS = {
    "wide-fifo-0": dict(t=3, tm=3, writers=8, readers=8, fifo=False),
    "wide-fifo-1": dict(t=3, tm=3, writers=8, readers=8, fifo=True),
    "replicated-ops10-fifo-0": dict(mds_mode="replicated", ops=10, fifo=False),
    "replicated-ops10-fifo-1": dict(mds_mode="replicated", ops=10, fifo=True),
}
FIXED = {
    "wide-fifo-0": "562c8221ce9d5abe462feff3a85b90e3c31efeba37d8d13ed7ff230b49ec45de",
    "wide-fifo-1": "b73b71a1c7ee373a75a06b3e6071ba3421d052d4b3b4006e6c4f8f9fc26b7803",
    "replicated-ops10-fifo-0": "1761842d3822bfe453351fac59ab31841789aa0b9932f14496bcabf29435b6f0",
    "replicated-ops10-fifo-1": "a121e096a434eb64cbf2e92980f17078184a918ce0b18b9fec5508f2c9266499",
}

# after_ops crashes on a writer and a reader, in both metadata modes, with
# FIFO off and on. Each run crashes its target right after the completion
# that reaches the count, and so drops the target's queued next invocation.
AFTER_OPS_TARGETS = {"w1": 1, "r2": 2}
AFTER_OPS = {
    "w1-after-1-oracle-fifo-0": "9b3a7955e0e741520de5e4b4d9f92268015a8ec2b323a1efca3229c0b4acd70b",
    "w1-after-1-oracle-fifo-1": "bfbab8e680fa322d11238e3bf86c3b09889eac614179c620a05487ce149c33c0",
    "w1-after-1-replicated-fifo-0": "9ec00800cca35ef4164ac448ddae413cb51feb08d0577bdd5581d51cb01eac1f",
    "w1-after-1-replicated-fifo-1": "92118713ceea147c7b14a58d1a1e814060255c8cf0576c3a798551e111d1dbf0",
    "r2-after-2-oracle-fifo-0": "af7a76dd79f06672f7e4a7b1efee3dc300ac98f2e4b161a86912e9b0611d9cc1",
    "r2-after-2-oracle-fifo-1": "bb02b1f6c47d952f44a0124765f4f88e9058dfcb20aaf0677b5cf2f7310edd56",
    "r2-after-2-replicated-fifo-0": "a212828749e5b759461d22918d586c65d2350f12ec4678aac88e9bab5f57b476",
    "r2-after-2-replicated-fifo-1": "04e0f78af6f3b0422fda504a57ffe31f51349354c88a3c949909a83e95a2007e",
}


def after_ops_config(name: str) -> Config:
    target, _, count, mode, _, fifo = name.split("-")
    assert AFTER_OPS_TARGETS[target] == int(count)
    return Config(seed=4, ops=3, mds_mode=mode, fifo=fifo == "1",
                  crashes=(CrashSpec(process=target, after_ops=int(count)),))

SCENARIOS_AT_SEED_0 = {
    "control-2t1": {
        "control": "cde01ae465377e9bf1f26a68a8e5c5f6850b4ca262049c8882599264d4455d31",
    },
    "fig1": {
        "fig1": "d059ae7b1fd3f2ee904b699c20165960895030450a6e7a20128df4395dc1bd26",
    },
    "gc-quiescence": {
        "gc": "bbf7fff12cafe75d63c44bfb79b49256245e56ecd8011db4fb617f0de240fb7a",
    },
    "random": {
        "random": "e9d36b9890a9cefefc1da6b214973ff63706173005557ae20130c6ebedb56b19",
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
