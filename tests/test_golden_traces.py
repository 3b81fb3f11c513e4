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
    1: "1143f8c035bbd64d38de01efa2025ee62b41a28d8cb9fa9559a71cfdc716f81c",
    2: "d98a169ff37fddf65ee3f038070ce385ee9be0592b74d2f58361b8f4624ca8dd",
    3: "861651a6ccea76f78b1f93b6b371ea230d4c4e8130fb33fd98c7221c8a3c74de",
    4: "0b621a9090f0bca6bdfacd8b337310d0a15d8ecb61048b74e8ce74d4ec552dd6",
    5: "42f4690326e576fe2eda2949dd3755620599735cba86e71f33624a8494afdcdd",
    6: "9d7912ba1fe12fc436853b782cc119a6d0d229078d39e3b4c303ed4fc9e85802",
    7: "1cfa49b06d455cc6d2282342794a0d532dce74d1f26839d3ae4f853a833a53bc",
    8: "4dd046b1648e01a8a41dde7b0c2601b40f4beb667c5a627ca876f30f442e4a54",
    9: "e7b0033c67593dc69006b577466a2df9c4fe0200b804f1350a6aa588fb07d1ff",
    10: "f6e6234edac9099ffe8708af956218948eed1f164afe72d0bf115afa802eea7c",
    11: "07a5bd102b9f744ecfa3c68cf98e9577d071acccdd7e2a06654db73d76abbe1a",
    12: "f013d1e777fdef60cf5b4ce6ea5707db3e1dcee388417046c180b143c0e91ebd",
    13: "f2f881d3c4b7a0f3ae276347ea09430070125046dde91ee8122686c2522cf03f",
    14: "a773c3a716704e98ec2d4b2d7355e5e8d6b5daf3cc8a1014a2b9e3fb25404b23",
    15: "200bc80ec99da8692a5df892db5c93febbcff94dbb369d0b59f9397162f7c0b3",
    16: "f682cbef3f385d368d927764aa3b3c39f8873b1698f18d63c098f0411068b918",
    17: "f8980b8fa8d0bb88c841a5010266174afbbcdaf889931ade506cb9290485b63a",
    18: "b050a31510abad8a73760235da155c41e655dc1e727d2b5671b2056ad65649b4",
    19: "183773942b6b3dc785de8b2b7352eab52299e67c34dda3268d3ae30f1d9d7245",
    20: "ebcbd3f260a242d5f701127fa3e704872fc805c8c58e53a95805ca28c7e75c63",
    21: "25e505dcd072dd5fc6e586e480b8809b2d0fb79814b6fdd83c9a49366bba4a83",
    22: "830ecbe23c6e99b8ef78b88ce0c12c571f0c6f833536b4b036730217c00816f1",
    23: "f0c8e7d179ae0762823c4fb5eb4ca8101664f48459a61ccc11796c1ba2350385",
    24: "ba4afd1d9bc35e48c6a6d45d7de4df521cee281eb7c2ca43f56014ab98092973",
    25: "d87fb4d78161a991f6c0d178a55a5f78d659ef4b4ebc15a9b52beaae5752efb9",
    26: "d85622088cf159f00cb87d19b37f0ab49c2b9aab2dfb9cc240a6c76a56eb8166",
    27: "948eb9dbc2f419d23fbc1e754f787961fc47b1bc8c59bdaad4de5b1916c58b34",
    28: "8a3c8133942feb265d4c15504ca3d86c79a7230b2d8440a359ec3b5585e17e62",
    29: "70c7ef8d5dd1ac7e672ff4e16b7bb1ea1259c13d9a04929672a7b9e6c6effb88",
    30: "3b3288936d7837f04290fe4fd395359f1d63e407359554af14d598fffa42b3ce",
    31: "57542bf434e0f3e26eaca42b777562c9d3c719a4e19b6724d0e65675b71dcd4f",
    32: "11479c71fdf3d1a8b677e111ccbe75741fb23ced7c63381d0f307ac175dec28b",
    33: "5edf83a6eb1a2109a84b34fe772b367e95a5a88c2bd219cb6b2840cae7b3b35b",
    34: "f435639bea7d96740312f9f85b062aa4435c938299a8615d394a91ee64a5960e",
    35: "d4d49bcc1524e30cf750bae9cfd620f68440119fc19f611045b6c033b2ef4249",
    36: "9653c2342748f002a4172ebf2b76ba7df146c4165438b8d9b1e09134d8dd8415",
    37: "e7938a2cf16675020f06b08ed996e4bd2a20eed702a6f6729a5e2f7117de45e4",
    38: "ea7fad74211a17d171e5c541fac3cc7cdf542b48b91000ac0b34a63df3778047",
    39: "2c5ae44a1495a2a3d03270fb828835eb7bd38ab3d1bf0be35f7a091af7819660",
    40: "97f05a74f7fe5e0122e58ca2860e8d300124756e479d83c0dd74bb683705d2a6",
    41: "e10b416a215fec8b706b7f45c407b0a354941f9ae64f13660b0410c9d7abd073",
    42: "4c6a64e8ae5e8cc712b2f546995d631ffe2d38da8be5e10d803e2c7cad105616",
    43: "cc838a8a13352db85edbc81fb94b2ec8ec93d049c64e47f8c0a9ff842d10c7e3",
    44: "3dfe66f8cb0a8c08c07538f0d1d557a734648d53ef773bcd65bfbb711d21b345",
    45: "8c3c5ec08ce24cece641dc0043a047f02702d73e1cbab393a718776f12e82d5d",
    46: "331320c84b1e0eed3bb3dc57fae38a54325c6fbe9871d56d673a0f2dde427a09",
    47: "9c828cbea05a5f4d400ecdf0878354821b6b9a1d99ef5e1fab96f961eb361612",
    48: "3e935eb9118d269e28873643364c463d4618085a50fc5205a6e08dc2933b11cf",
    49: "e5decb2595ec690588ae16ba863bdaa655c0ad2f298a1945d9437c3f5354f190",
    50: "d6ee9c67e0e26f7621b8aea61ff7322ed6b90d30fe17062b9da3137d8a12ba22",
    51: "e680944954eaca4af8b1af483f627482f226a03e0a6197a6321602dac53a3450",
    52: "7bd41492835af9c03fda8cca741ce5fa810e1559eca95a222dfb64c21174f433",
    53: "dc66c4f63351e9bb3ff4d084b72653a84ec15e19a5a14da6b5dc549da29e966f",
    54: "8c04614c1656f21b44fba43f61b0738911729c01af88aae33aafacb7870babb2",
    55: "b408b6aee8560ed7e308d319296359b6cde006ef14b899765ee5477a361229fd",
    56: "e2f5415be9a05162544b314b588583f0ea6604a7c8f3de63e9efb5abb8466b57",
    57: "45db6c2a9e4c25f331757bd04676c1435de2c7bf056627364a77a0a55ec39757",
    58: "fb849aa82143bcf3b50109051e55a2e7b84c88187f0801c90cf432c045539590",
    59: "41deaf4d92760565b5941f594e6bd8afaea4bbdc63582cf4cd789baebab814f5",
    2039: "d817f21ff61439feb327dcb3e84aa3c4cfbb1b8a9677f1a8134c9aa1f27fc808",
    2333: "c6a84e22e9b81b47033d427436cf77bc5abaec449bc8dae677ee57cf044c976d",
    2579: "460e3ab27e1c59585450d612a9eeec0ef16d6fcd43e50c5041889b0142e1162c",
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
    "replicated-ops10-fifo-0": "740ca68833b3a491615a63781a6aaa30b0395ff0ca12fcdb239167be96898ff0",
    "replicated-ops10-fifo-1": "55c0ae78f15425b6d5eac90b412d0afc4e6236a7d39d866317369a2c6cb3d96c",
}

# after_ops crashes on a writer and a reader, in both metadata modes, with
# FIFO off and on. Each run crashes its target right after the completion
# that reaches the count, and so drops the target's queued next invocation.
AFTER_OPS_TARGETS = {"w1": 1, "r2": 2}
AFTER_OPS = {
    "w1-after-1-oracle-fifo-0": "9b3a7955e0e741520de5e4b4d9f92268015a8ec2b323a1efca3229c0b4acd70b",
    "w1-after-1-oracle-fifo-1": "bfbab8e680fa322d11238e3bf86c3b09889eac614179c620a05487ce149c33c0",
    "w1-after-1-replicated-fifo-0": "08fde381313840505fa5b5ec6793406de7a3f1235d014a843f64535e6042d218",
    "w1-after-1-replicated-fifo-1": "9a55ee72f136f68944aa53798ca0d63ebd86a9af506c74e5b472ff177c7d2992",
    "r2-after-2-oracle-fifo-0": "af7a76dd79f06672f7e4a7b1efee3dc300ac98f2e4b161a86912e9b0611d9cc1",
    "r2-after-2-oracle-fifo-1": "bb02b1f6c47d952f44a0124765f4f88e9058dfcb20aaf0677b5cf2f7310edd56",
    "r2-after-2-replicated-fifo-0": "fcc0e50d02944a58540e4d308e144564ebbcc7d79389e528f76fb1469be73668",
    "r2-after-2-replicated-fifo-1": "2e81ec891abe6e5d7c653ca477130045d4ea70ac6a9454018e5f08c3e5977232",
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
        "fig1": "f4b32ab6eee0374c5f2646314b87564190ec9ed5f766d89d0bd606ee294acffe",
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
