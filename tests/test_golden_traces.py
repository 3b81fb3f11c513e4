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
# linearizability failure in replicated mode; it has passed since a change
# to the replicated read path moved its schedule, not because the collect
# defect is mended (its witness is now in test_mds_replicated.py). It
# stays pinned. Every replicated-mode digest was re-taken once when
# directory registers took reliable-broadcast thresholds (echo on t_M+1
# echoes, establish on 2t_M+1) and a tsread stopped writing back; no
# oracle-mode digest changed. 2039 and 2579 were, when
# they were pinned, the only seeds in 0-2999 whose traces changed when a
# scrambled metadata replica served a snapshot sorted before it scrambled
# its state.
RANDOM_CONFIG = {
    0: "e9d36b9890a9cefefc1da6b214973ff63706173005557ae20130c6ebedb56b19",
    1: "562f40bdcd7bdd8d2705afb5d7e09c266b126ba553c75453df4ed046363c45cb",
    2: "d98a169ff37fddf65ee3f038070ce385ee9be0592b74d2f58361b8f4624ca8dd",
    3: "08a23c70c6a628c0d99a09b53d703d5209db25a60425298dccba020313358407",
    4: "0b621a9090f0bca6bdfacd8b337310d0a15d8ecb61048b74e8ce74d4ec552dd6",
    5: "6ac6cbca9a6175470a18cc13d6dc5cfc04034b75f87b9e8675103cd69afa1788",
    6: "9d7912ba1fe12fc436853b782cc119a6d0d229078d39e3b4c303ed4fc9e85802",
    7: "1ef2fabc664edde41f62e8bdd83cbfcd24cbc117af74729ab455d3995e195d4c",
    8: "4dd046b1648e01a8a41dde7b0c2601b40f4beb667c5a627ca876f30f442e4a54",
    9: "d08762cc19a259dded3777585d336dbbcfa2f00486bcb5a77f563043a20a4a4c",
    10: "f6e6234edac9099ffe8708af956218948eed1f164afe72d0bf115afa802eea7c",
    11: "6bfa6e4cc1f3550b4a493c8e9803f8c581d06eed0362ba37bebdaf1724ee7609",
    12: "f013d1e777fdef60cf5b4ce6ea5707db3e1dcee388417046c180b143c0e91ebd",
    13: "33417832da03d3fba1b89309352af88c30493108b7527b2bef1e70120ceb5eb4",
    14: "a773c3a716704e98ec2d4b2d7355e5e8d6b5daf3cc8a1014a2b9e3fb25404b23",
    15: "024a94d9e6dac5f230b9d26393e0efb5875c0a3e2a96f9e370d3a5ddcaaaf1a3",
    16: "f682cbef3f385d368d927764aa3b3c39f8873b1698f18d63c098f0411068b918",
    17: "bd23083c6c3909a7361aaa1b52f1366339e2c3afe8a692c1f2b6407434dc3693",
    18: "b050a31510abad8a73760235da155c41e655dc1e727d2b5671b2056ad65649b4",
    19: "ab12094a00bee2508a07f70baa25de0de944657c788f5915c09c2ede3f00a67d",
    20: "ebcbd3f260a242d5f701127fa3e704872fc805c8c58e53a95805ca28c7e75c63",
    21: "1bafb3ee6383fda691d28a535709047e68cbd1c82e6a51b7826be1bdf58746b0",
    22: "830ecbe23c6e99b8ef78b88ce0c12c571f0c6f833536b4b036730217c00816f1",
    23: "e59eeb6262f95b550256ed3466eb67f0c592cae5c966ff9ca5a7d28c138cc247",
    24: "ba4afd1d9bc35e48c6a6d45d7de4df521cee281eb7c2ca43f56014ab98092973",
    25: "565fdcf31fcdde1e3e1ff9a85fca8838fb1f323812305423be77cb30a4b07618",
    26: "d85622088cf159f00cb87d19b37f0ab49c2b9aab2dfb9cc240a6c76a56eb8166",
    27: "26057e6338f897e560dcde085cb557ae3e35f8544f3f6058a31375f434b85181",
    28: "8a3c8133942feb265d4c15504ca3d86c79a7230b2d8440a359ec3b5585e17e62",
    29: "b391e3e0daa583af40c0b02499e9ae9e9c8e945e2f68921539c530e09443c5a6",
    30: "3b3288936d7837f04290fe4fd395359f1d63e407359554af14d598fffa42b3ce",
    31: "49b1047333ae1fac14f82ee0599674244690e31efa8f7437215c25a2d1337cfb",
    32: "11479c71fdf3d1a8b677e111ccbe75741fb23ced7c63381d0f307ac175dec28b",
    33: "8b485129d25f5b35230d348f24ef79f4392f0ae3cc2c48e56765a54302455949",
    34: "f435639bea7d96740312f9f85b062aa4435c938299a8615d394a91ee64a5960e",
    35: "0d8f17f7a6fb3013967cf794755cc5eb0d39226fa36bf2ddede5edec82615369",
    36: "9653c2342748f002a4172ebf2b76ba7df146c4165438b8d9b1e09134d8dd8415",
    37: "d9fed6052dd85fba47dff2868607651df5ab932e9e749909ec773323202b4118",
    38: "ea7fad74211a17d171e5c541fac3cc7cdf542b48b91000ac0b34a63df3778047",
    39: "f561274c129c33c3cb549222b49b3b560b347303ad9eccafeb6c980809d79f46",
    40: "97f05a74f7fe5e0122e58ca2860e8d300124756e479d83c0dd74bb683705d2a6",
    41: "7a0f705dcc55d2d28ba0e61dbf81cd2faaaa1dd508feffee1e83e4e5035346b4",
    42: "4c6a64e8ae5e8cc712b2f546995d631ffe2d38da8be5e10d803e2c7cad105616",
    43: "932101ecbfd210b8262dbb1464b65478fea6991478d3b6affbc6d56758b90fb9",
    44: "3dfe66f8cb0a8c08c07538f0d1d557a734648d53ef773bcd65bfbb711d21b345",
    45: "78044d8a1037791d7f68707b6b5294f4416bf1676f0f6b05f069c2bb7cc42b8e",
    46: "331320c84b1e0eed3bb3dc57fae38a54325c6fbe9871d56d673a0f2dde427a09",
    47: "0b5e655d5b0c8f2f4bb037395d50520b1b90a0af2476b921059d7306a1655d3b",
    48: "3e935eb9118d269e28873643364c463d4618085a50fc5205a6e08dc2933b11cf",
    49: "1489d74a8f96b7a7c89c3d410c08166d5440098c100124df1dd2e2b1e8b2fbdd",
    50: "d6ee9c67e0e26f7621b8aea61ff7322ed6b90d30fe17062b9da3137d8a12ba22",
    51: "42ffc88c7ec0935ee94736dcaaf4d104fc66f418aff30fbdb5281c0cee4387dc",
    52: "7bd41492835af9c03fda8cca741ce5fa810e1559eca95a222dfb64c21174f433",
    53: "bbbfe28a213f1ff8e34a281dc0fbe13c8aacedce98f4eb5f882e477bd3895698",
    54: "8c04614c1656f21b44fba43f61b0738911729c01af88aae33aafacb7870babb2",
    55: "49de229cd7c69f03169c01071dc62be19bfbe15992d73c221dc059085c84c198",
    56: "e2f5415be9a05162544b314b588583f0ea6604a7c8f3de63e9efb5abb8466b57",
    57: "9f904f9650506c338019f57ceaeb294439f45935e9d53ee788d2ba3b1ef091fc",
    58: "fb849aa82143bcf3b50109051e55a2e7b84c88187f0801c90cf432c045539590",
    59: "5d1fbcd7901a400f7640bde62a95099538f88e1f757701d5fc4a06be5639b2f0",
    2039: "d33b79791574a11b443d3eb937457898293fd1ea3bdbed5ffd1092f72149909d",
    2333: "41a49d0ccb7712b00ae188c788a7639c2d66f6e6165d67184c52ee3cfc50145f",
    2579: "c5b591db097deee64c4616028cdf8e8faaf7c09c6e11d6bacba9daf9c800472e",
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
    "replicated-ops10-fifo-0": "3c729f053f0ab87fa89b60ae70342dfb0b14eaa2d1ff79c02131c191c643c292",
    "replicated-ops10-fifo-1": "32d12a7d593dd36512ce9b39e0aa6533e44b0a51fb826bec6c6a1b2854b18ef8",
}

# after_ops crashes on a writer and a reader, in both metadata modes, with
# FIFO off and on. Each run crashes its target right after the completion
# that reaches the count, and so drops the target's queued next invocation.
AFTER_OPS_TARGETS = {"w1": 1, "r2": 2}
AFTER_OPS = {
    "w1-after-1-oracle-fifo-0": "9b3a7955e0e741520de5e4b4d9f92268015a8ec2b323a1efca3229c0b4acd70b",
    "w1-after-1-oracle-fifo-1": "bfbab8e680fa322d11238e3bf86c3b09889eac614179c620a05487ce149c33c0",
    "w1-after-1-replicated-fifo-0": "e41b12ccf9b0135fc807933facbea64fc7be4a9089a816b005341ee40e74878a",
    "w1-after-1-replicated-fifo-1": "454cee7a849c0cac7fb1c6c72aadbf7d2c7badd54305827ab1fb79778df31c82",
    "r2-after-2-oracle-fifo-0": "af7a76dd79f06672f7e4a7b1efee3dc300ac98f2e4b161a86912e9b0611d9cc1",
    "r2-after-2-oracle-fifo-1": "bb02b1f6c47d952f44a0124765f4f88e9058dfcb20aaf0677b5cf2f7310edd56",
    "r2-after-2-replicated-fifo-0": "16da6d64c31f2e32155fd6eeabf12bd6e8548cff27a99f34682bc6789f650acd",
    "r2-after-2-replicated-fifo-1": "d21c17811683a05c9cb0b05b59798617de34ac73f0160d20c4112266fb1acb68",
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
        "fig1": "f5c0e4b515f911190893e187f430df80ada218af28909e3adf0c0dc242d39343",
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
