"""Golden verdict fingerprints: sha256 digests of rendered checker verdicts
for a fixed set of runs.

test_golden_traces.py pins what the simulator does; these digests pin what
the checker says about it. A digest covers `check_run(result).render()` as
one compact, sort-keys JSON document, so every check's pass/fail flag,
detail string, counterexample and witness order is pinned byte for byte.
They were taken before the checker's real-time and precedence scans were
rewritten, and the two mutated large runs pin the failure path, where the
checker must still explain a violation with the same counterexamples.
The digests of random_config 2333 and oracle-4w4r-ops50-stale-dir-read
were re-taken once, on purpose, when directory counterexamples changed
from bare tags to [proc, tag] pairs (tags count per process); no other
byte of those verdicts changed. They and the stale-read digest were
re-taken once more when both linearizability checks moved to one
witness-then-confirm pipeline whose failed witness brings in suspects
closed under a sound rule: random_config 2333 and the stale directory
read now carry a re-validated three-op counterexample, and the stale
register read names the closed suspect set. Only the failing
linearizability result of each of the three changed. The stale-read
digest was re-taken a third time when the search stopped capping what
it re-validates after a failed witness: that history is linearizable
(only a read's timestamp annotation was lowered, its value is right),
and it used to fail with "history too large to re-validate". Its
linearizable result now passes, "witness failed (...); exhaustive
fallback passed", with the search's order as its witness; no other
result of that verdict changed. Every replicated-mode digest, 2333's
among them, was re-taken when a tsread began to skip the write-back of a
pair 2t_M+1 replicas report and replicas began to keep a tombstone for an
unsubscribe that overtakes its query: both change the messages of a
replicated run. 2333 now passes; no oracle-mode digest changed.

Do not regenerate a digest to make a test pass. A mismatch means a verdict
changed; if that is intended, say so in the change that updates the digest.
"""
import hashlib
import json

import pytest

from splitstore.checker import check_run
from splitstore.scenarios import SCENARIOS, random_config, run_scenario
from splitstore.simnet import Config, run
from splitstore.types import Timestamp


def fingerprint(result) -> str:
    text = json.dumps(check_run(result).render(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def lower_middle_read(result):
    """Lower the timestamp of the middle value-returning register read by
    one counter step: a stale read the witness and the lemmas must catch."""
    reads = [o for o in result.history if o.kind == "READ" and o.ret is not None]
    read = reads[len(reads) // 2]
    read.ts = Timestamp(read.ts.num - 1, read.ts.cid)
    return result


def stale_middle_dir_read(result):
    """Make the middle completed directory tsread return what the earliest
    tsread that saw a written record returned: a well-formed but stale
    directory read, so the witness replays and only real-time order can
    catch it."""
    reads = [o for o in result.dir_ops if o.op == "tsread" and o.complete and o.ts.num > 0]
    read, first = reads[len(reads) // 2], reads[0]
    read.ts, read.md = first.ts, first.md
    return result


# Same seeds as test_golden_traces.py: one full period of random_config's
# fault plans plus 2333, once a directory-linearizability failure; its
# verdict has passed since a tsread skips the write-back of a pair 2t_M+1
# replicas report, which moved its schedule.
RANDOM_CONFIG = {
    0: "6e2c777bfb50c86de08dfef3d6d757dcdb2b1f831add75bd77fcc920673249a2",
    1: "9baed1452a9087c8c703151155c0b8556664e3da77181d531778bcf2f45de5b6",
    2: "9d76bc6cd0e7f0bbb73391e77a6bb4269625bdca43d8459362269594abecf64f",
    3: "d60587917d0ca05ef4d331c6df20d1848cf6a9ad5dae53bdf75fcc028659d935",
    4: "7f7639e334eae7e29d04aabeb3c1ea70b5a32de1df22afa0948e72694678a4fa",
    5: "d383b31f67d349d9219234e4f11d4d162a1de3c2b5a7c103b711909081a61d41",
    6: "8fb54ccd398c52c33baeb2311ba63e3b377b21b7dd87ffb929570f863cda1c2b",
    7: "3ef92a4d2e58a67e381c917d7578cfac6b45a98ebf5719487ebbe18927fb1df8",
    8: "5fea0966a80baf08c37d23d3c85873bce5764ac72718568a5ce299fdf1ad928e",
    9: "27205ac39aba842fa49c404899a7645803b33fdd5789dfe6c68630e7cbba09de",
    10: "c37a1621abfc73339addf383efa2eed88872e0b1018864ec3837660b3935a600",
    11: "8ae6485635bfa7939911ad882c0b5e6ef045e5a3f6e40b28a4f68d67522b04de",
    12: "239dcb16ac41534f948579a20f22776c09268bf4b1c6053c2a95049a6cb2aa35",
    13: "d9a158c3dc53543d270e7fd1583b2943f707eadfd14082e1bd3f4fc72dfa4c89",
    14: "c88d7922367e000ae7bc63f00e40976fd6c898c9e5d80c3eb07bacafb944af20",
    15: "d4fc4d3fbba69104908b768c146a616fc3ad5e432cd5d9363afe59a99d51f0f8",
    16: "5decf3c17b21b0193243c4e3bd6308c0bff965fba1f2cf679de54b962c9ca634",
    17: "93a4eccd17381fa230a0c240fedc7b227cde4f9a65719abf32fd45910816483f",
    18: "f79d891c7fd13e9f7dc4a674f5771d4fe3cd9fb1bbd2e4b33bd30a870cbf311b",
    19: "80022b078dd6aaee300872baa1b697688d691e01c261eb2a6fc10cd88f2846c3",
    20: "e0441b29e0fbc6cf20fd1eb3e20eeef8ed9a0b67816f9261f7ee1cfce6d4d7b6",
    21: "90ce835584c590131798347844dac9ec90706aa82c74459d5a7bc9ff3b3f0c6f",
    22: "6855b293495b0ab29a55fe11cef4b1bb46bef817b560c230528f75a6d67d5723",
    23: "c64dc26a5a4336c0b4a2d64f904da92c09cc4ce1315ed9c3a226d8597abd27a6",
    24: "f19fba88a077c6e39096ed3f255eada8c8bc76bd6566b7e41427d634f09230de",
    25: "0992a93730c14db1a12487f5f456f8726c44e2e961b91966d1fe89c29b014ab5",
    26: "f0ced6440ec9a91a8cdabd4c2194adb5a6ca1b3c8cd12fdb6293d47a36a3ba2d",
    27: "b7acb3ada15a26ac39ffa09b835328a96d1c67112e90f8fa993c62d2f35acfd0",
    28: "846b8ad8b555c5211ff9297099cb37839a19a3f4b4de44ec23c3a624df6bf638",
    29: "6dee98dc064babc92aea0618a849bef021964a9c3c98510c0b9f0cee94e7538b",
    30: "b153b462496146061a52e688b3c2e1b93b61e94a67acdee8a3cc64a503519ca0",
    31: "6dfecafc884c08aea91bf6d17dc0592cb16840b34a0979fba7e7952ff6163050",
    32: "345ef3fc5159455875791116ffc7c7b524d5cbc79c5e580a2b74e44f8abe0b76",
    33: "1b95b9a32ba39ad36a1ad1f8238f0fda0e73b46a26f56c428c3cdee126462fb4",
    34: "94c93741d105d70a1def82bc369cad7b747cc978902a3f1e2d88a8109d4632c9",
    35: "432717ba1cd05dbac6c5d83f2e5495f99191770d922ea02090b83df0d43a5b18",
    36: "52a1ce911f862902eb4b86f2765d130364d5701e0141d2370ae915c5f348fab7",
    37: "36043a4ce42fdd5c81627da67ed86c7756f56d68368e9385e102c23082536fb9",
    38: "cf2bc77e12dbd1d280090790bfc8f04470f256cd34d1e3b3fee7a037f30743eb",
    39: "890f3f26100f94ce55c90e6cd7cdf6340a72b4ae46a5a9bd9ba52c6323ac9402",
    40: "d383b31f67d349d9219234e4f11d4d162a1de3c2b5a7c103b711909081a61d41",
    41: "97c819f5a643df5095a061216b9f09616d02b1f9c57c23c845ae908120a06d1d",
    42: "88d930ed754651feaa1751f172fe793834d4de0a24f26bf2c355ff03169466ae",
    43: "a9cad0ba8ba27fbc36676d2773b450cff0e609140823cf0f81cfb4f8449d6913",
    44: "038dfb9f0d7be7ab7aeda10c3a412d807002f47c6c798144d828904d392f3b13",
    45: "94833f09b08f04fabece72341b27267badc060a4f9a782980be385548b569cf2",
    46: "afa80fda04be379a8eed038a2fce8a5679e5edb1ce3eba513544ef0f4e7d2e52",
    47: "33c41444795512045692bdba1374850cae32bb1db9885da2df1a0d77cce4f58a",
    48: "fcc69ddc7f13cf97f8a9d37f2a8b920803a6027c195ad24f34eb00caeb36ab7b",
    49: "ccdc7ccb489622f749e11db43b5c306601a1e127b07d935237fab1b4f99e779f",
    50: "df90e153b8ff6e69beb18ae146b9e5733510ff95bf996b0975461966afb1cd62",
    51: "e428f89518f81578aa9070452974958746b9b7eeea1a6798ea733b2c1d526aca",
    52: "0e5181ec46cf44d6750aa021a792cd84f314eda1348f494742242684ddd4b546",
    53: "a2457a96bb85af5990bdb0611f73843926a4c6304599005b86b004b4c8eb0d0a",
    54: "14fb25bc8272dd4401e3423299fa0918dd452f1c305a931e02101dbb54c3ab64",
    55: "bb8357f1bdd925a350049d43b669396b0b7bdd1151f75dab18b77a350a8c0082",
    56: "6674633cdb6107ce6cd95e64789ee1ebf905d722884c9840fd23826bd38584bc",
    57: "17a8d4ea1b86f1419c54d5859e200f799c00b640baf948116521a6862262cfc7",
    58: "2fa2e30521a4db9d44755b89e332a8806448f906f33fbb5f098d4b4d2c66bc95",
    59: "ca62b9c6113103d944f50748a78f7c6611f43bc61315a2a2698ee5a76f36fd2b",
    2333: "7786c89c4345ce9843744cadd81f75511d107c2b0989a310a8844603cf524e50",
}

# Large histories that take the witness path for both the register and
# the directory (4w/4r ops=50 is the cli-long workload's shape).
FIXED_CONFIGS = {
    "oracle-4w4r-ops50": dict(writers=4, readers=4, ops=50, mds_mode="oracle"),
    "replicated-ops30": dict(mds_mode="replicated", ops=30),
}
MUTATED = {
    "oracle-4w4r-ops50-stale-read": ("oracle-4w4r-ops50", lower_middle_read),
    "oracle-4w4r-ops50-stale-dir-read": ("oracle-4w4r-ops50", stale_middle_dir_read),
}
FIXED = {
    "oracle-4w4r-ops50": "640702c78861ef5cd15c60a7f932ec165a547673e15e9a6d4ee3e65138d1867b",
    "replicated-ops30": "9512d004d3a2fc90860f5f9a1c4a17d81301dd0ad4169a7d777fe5a73eb821e6",
    "oracle-4w4r-ops50-stale-read": "4b8709e2c5dc3edbd5f215331bfe03f2505bc05acb94029f5bcc18c46996aace",
    "oracle-4w4r-ops50-stale-dir-read": "ee30584e5e60b881f18b950c4f429b25422510140bbf826ed26d7a02807470d9",
}

SCENARIOS_AT_SEED_0 = {
    "control-2t1": {
        "control": "a535b90bbc3f6872114797c6f92654761445111b534faa0646fb1494d27bb0dd",
    },
    "fig1": {
        "fig1": "1c717060fd47f9d200ae62adff275b9aecc2d539c8852a2d7abc0d36c5f42e32",
    },
    "gc-quiescence": {
        "gc": "92ac97ad4fa5084a303978f6706ebb01e501e018e4a8e94ab2c983eafda4c641",
    },
    "random": {
        "random": "6e2c777bfb50c86de08dfef3d6d757dcdb2b1f831add75bd77fcc920673249a2",
    },
    "theorem1-byz": {
        "baseline": "b7ed7139e13776bca0ad2ed5b7b4451b812c08faae5a9cea970954a5b24456a9",
        "forged": "ed148920ecf2a97994ed32bd408fc4b98401a565ac2e8553394c37507e3ca703",
    },
    "theorem1-crash": {
        "crash-lower-bound": "f8ff05b123987c8e1601a941f46ba33d05f031334e8f4665db2ca1d3656e54f0",
    },
}


@pytest.mark.parametrize("seed", sorted(RANDOM_CONFIG))
def test_random_config_verdict_is_pinned(seed):
    assert fingerprint(run(random_config(seed))) == RANDOM_CONFIG[seed]


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_config_verdict_is_pinned(name):
    base, mutate = MUTATED.get(name, (name, lambda result: result))
    result = mutate(run(Config(seed=0, **FIXED_CONFIGS[base])))
    assert fingerprint(result) == FIXED[name]


def test_every_scenario_is_pinned():
    assert sorted(SCENARIOS) == sorted(SCENARIOS_AT_SEED_0)


@pytest.mark.parametrize("name", sorted(SCENARIOS_AT_SEED_0))
def test_scenario_verdicts_are_pinned(name):
    outcome = run_scenario(name, 0)
    got = {label: fingerprint(result) for label, result, _ in outcome.runs}
    assert got == SCENARIOS_AT_SEED_0[name]
