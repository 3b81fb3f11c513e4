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
replicated run. 2333 now passes; no oracle-mode digest changed. The
digests of 27 runs in both modes were re-taken when a reader began to
keep one hashread per index in flight and to remember the digests it is
given, and a replicated hashread began to return on t_M+1 matching
reports; every re-taken verdict of an unmutated run still passes. Both
mutated runs still fail; the stale register read, now another read,
also fails value-integrity.

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
    0: "e45faf8466a52e79ee4ae8e7b783a41fbd8811485123f5ce972ee08090350854",
    1: "4d7b9f462cc7f843b1a2314b982b679a3d95efdd6e162dc68a4f05a752129976",
    2: "b96864eac3d7ff3e148ece7dd426cc2dabe32adb63db65a604be025658f14f41",
    3: "d60587917d0ca05ef4d331c6df20d1848cf6a9ad5dae53bdf75fcc028659d935",
    4: "7f7639e334eae7e29d04aabeb3c1ea70b5a32de1df22afa0948e72694678a4fa",
    5: "d383b31f67d349d9219234e4f11d4d162a1de3c2b5a7c103b711909081a61d41",
    6: "7218080f49a4ec76e2f4affcccb03e8848a0c2b8058b9763c52c5f9b13197948",
    7: "3ef92a4d2e58a67e381c917d7578cfac6b45a98ebf5719487ebbe18927fb1df8",
    8: "5fea0966a80baf08c37d23d3c85873bce5764ac72718568a5ce299fdf1ad928e",
    9: "27205ac39aba842fa49c404899a7645803b33fdd5789dfe6c68630e7cbba09de",
    10: "f41b2ac65956b8bee43ce0f5657097a2e0bcdfefe132950b68e1c7cdac16ba0a",
    11: "8ae6485635bfa7939911ad882c0b5e6ef045e5a3f6e40b28a4f68d67522b04de",
    12: "88d930ed754651feaa1751f172fe793834d4de0a24f26bf2c355ff03169466ae",
    13: "d9a158c3dc53543d270e7fd1583b2943f707eadfd14082e1bd3f4fc72dfa4c89",
    14: "c88d7922367e000ae7bc63f00e40976fd6c898c9e5d80c3eb07bacafb944af20",
    15: "d4fc4d3fbba69104908b768c146a616fc3ad5e432cd5d9363afe59a99d51f0f8",
    16: "5decf3c17b21b0193243c4e3bd6308c0bff965fba1f2cf679de54b962c9ca634",
    17: "adaa36f7f6865b91fcd922daa002b0abef284c71075d26f8e2e1afd97c7fcb87",
    18: "f79d891c7fd13e9f7dc4a674f5771d4fe3cd9fb1bbd2e4b33bd30a870cbf311b",
    19: "0e2745255593bdaedd5ad8c05ee6532e55259a9755d2ac098a120fe4566a1619",
    20: "e0441b29e0fbc6cf20fd1eb3e20eeef8ed9a0b67816f9261f7ee1cfce6d4d7b6",
    21: "90ce835584c590131798347844dac9ec90706aa82c74459d5a7bc9ff3b3f0c6f",
    22: "6855b293495b0ab29a55fe11cef4b1bb46bef817b560c230528f75a6d67d5723",
    23: "b2c371c005942e70fea2f08f43f72684700aba6e9748bce4f3a7789261cbe69f",
    24: "f19fba88a077c6e39096ed3f255eada8c8bc76bd6566b7e41427d634f09230de",
    25: "0992a93730c14db1a12487f5f456f8726c44e2e961b91966d1fe89c29b014ab5",
    26: "f0ced6440ec9a91a8cdabd4c2194adb5a6ca1b3c8cd12fdb6293d47a36a3ba2d",
    27: "822c4d17ba34cb0a28d355b35c99a1a89b9b0d399ce6972c6a1898297233ef5d",
    28: "846b8ad8b555c5211ff9297099cb37839a19a3f4b4de44ec23c3a624df6bf638",
    29: "6dee98dc064babc92aea0618a849bef021964a9c3c98510c0b9f0cee94e7538b",
    30: "b153b462496146061a52e688b3c2e1b93b61e94a67acdee8a3cc64a503519ca0",
    31: "155a1bc104f0364bcf57ab929116490b74a7805875408bd9e06a30552fdb7233",
    32: "98aa38653deb51836639d9f902970fdab75431f5a296c7cc4f85bdbdd51cd6a9",
    33: "cb373fd8f2851a32606e156c1ca6c1f25798fc534be204b7affc8bdead14e380",
    34: "6975963af91f481468d6c57826974d715387598fa1b04278e915ad59f9187cb6",
    35: "432717ba1cd05dbac6c5d83f2e5495f99191770d922ea02090b83df0d43a5b18",
    36: "d5a5db42060215d5c120609b1fefecb420156b2c2ffe866442050c8eb8078bdb",
    37: "36043a4ce42fdd5c81627da67ed86c7756f56d68368e9385e102c23082536fb9",
    38: "cf2bc77e12dbd1d280090790bfc8f04470f256cd34d1e3b3fee7a037f30743eb",
    39: "890f3f26100f94ce55c90e6cd7cdf6340a72b4ae46a5a9bd9ba52c6323ac9402",
    40: "d383b31f67d349d9219234e4f11d4d162a1de3c2b5a7c103b711909081a61d41",
    41: "dbd10efb238179cfcdbce50d10c31fc55f889c1a2c3713fe86a3fa9b46f8f19d",
    42: "88d930ed754651feaa1751f172fe793834d4de0a24f26bf2c355ff03169466ae",
    43: "a9cad0ba8ba27fbc36676d2773b450cff0e609140823cf0f81cfb4f8449d6913",
    44: "038dfb9f0d7be7ab7aeda10c3a412d807002f47c6c798144d828904d392f3b13",
    45: "94833f09b08f04fabece72341b27267badc060a4f9a782980be385548b569cf2",
    46: "afa80fda04be379a8eed038a2fce8a5679e5edb1ce3eba513544ef0f4e7d2e52",
    47: "76bd943664368a64f1f84469afde9fe7975d23b5e650039b6b57f5237e756d4e",
    48: "fcc69ddc7f13cf97f8a9d37f2a8b920803a6027c195ad24f34eb00caeb36ab7b",
    49: "fb5204f4c3fea05528850915fdcdce23d28a8332e5189c0db84a7ff5b1c4b141",
    50: "df90e153b8ff6e69beb18ae146b9e5733510ff95bf996b0975461966afb1cd62",
    51: "e428f89518f81578aa9070452974958746b9b7eeea1a6798ea733b2c1d526aca",
    52: "1db3e1ab88bd8570cc3e9f8d31a080e0cf0ec3f02ca781b86fc193af724abcd4",
    53: "a2457a96bb85af5990bdb0611f73843926a4c6304599005b86b004b4c8eb0d0a",
    54: "6826264933354dabb34e35d4808520c2d848b01b071c781ec064ecde4d1a74bf",
    55: "313fa42fe47db74c0bdfb8ae415313eca09fde74ccd833485288d75babe65276",
    56: "6674633cdb6107ce6cd95e64789ee1ebf905d722884c9840fd23826bd38584bc",
    57: "17a8d4ea1b86f1419c54d5859e200f799c00b640baf948116521a6862262cfc7",
    58: "c7d4967abc7be8aea6d3251059c79b56d70dee98c41f334f17ba5c66518b7162",
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
    "oracle-4w4r-ops50": "e9da16172f47c9b7beeaaf2c78812d737c14a2aa1521e2052a171d387faffac5",
    "replicated-ops30": "7c366c5623e55a3460fdb449a12f32c4566e2c49aeee016729e0b6f1821b87cd",
    "oracle-4w4r-ops50-stale-read": "7ed788439a3fc7184bdc75f477539ebe7877b80d52f9c279d501b0ef773c2ca6",
    "oracle-4w4r-ops50-stale-dir-read": "fea016823d5a73b923f837ee696d2a8cca04f272c085bc5cbf710d0a1101b0f8",
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
        "random": "e45faf8466a52e79ee4ae8e7b783a41fbd8811485123f5ce972ee08090350854",
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
