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
    1: "39fd97ca829e6337723465c475cbc79c5ad38a863ae618823db530d9ef3cebd8",
    2: "b96864eac3d7ff3e148ece7dd426cc2dabe32adb63db65a604be025658f14f41",
    3: "733381162499f80d219d67d857ec67855f09ad618b76cce8b7046a74b2db42e9",
    4: "7f7639e334eae7e29d04aabeb3c1ea70b5a32de1df22afa0948e72694678a4fa",
    5: "47a770c6474e7ab661a6715f8470d980a2c7444dec9f13fba4f67e202b9a3ddb",
    6: "7218080f49a4ec76e2f4affcccb03e8848a0c2b8058b9763c52c5f9b13197948",
    7: "19de1480f14f67a8db4c111cae75171f23b34c361d6ed34fac2f601c72464398",
    8: "5fea0966a80baf08c37d23d3c85873bce5764ac72718568a5ce299fdf1ad928e",
    9: "1ebfd2d530ab17072007073cbaabc642e40a93db9546a2ea792b6e07da29a621",
    10: "f41b2ac65956b8bee43ce0f5657097a2e0bcdfefe132950b68e1c7cdac16ba0a",
    11: "667137bc4312aff30a6d729f25e55e42a8570af039b710ee817efc0f87523df9",
    12: "88d930ed754651feaa1751f172fe793834d4de0a24f26bf2c355ff03169466ae",
    13: "d9a158c3dc53543d270e7fd1583b2943f707eadfd14082e1bd3f4fc72dfa4c89",
    14: "c88d7922367e000ae7bc63f00e40976fd6c898c9e5d80c3eb07bacafb944af20",
    15: "d7b2b8e4d901e4645380d9bab70f86993512f88a9fbeb74d2a8d5de6dab45079",
    16: "5decf3c17b21b0193243c4e3bd6308c0bff965fba1f2cf679de54b962c9ca634",
    17: "47c45bd1d87bb77dd9045ac0c1adc900964dadc5279c2931036df0da3afc99d6",
    18: "f79d891c7fd13e9f7dc4a674f5771d4fe3cd9fb1bbd2e4b33bd30a870cbf311b",
    19: "d49d67386a144cd092f628f1760ec208533a5cc462fe556a933ce0ecc54d14bf",
    20: "e0441b29e0fbc6cf20fd1eb3e20eeef8ed9a0b67816f9261f7ee1cfce6d4d7b6",
    21: "f701d03c5a665d0d935c4e3e9b75e4a3af774bbf53bde17cb52c13c95f1bc4fd",
    22: "6855b293495b0ab29a55fe11cef4b1bb46bef817b560c230528f75a6d67d5723",
    23: "caf79f7fa1637cb72a640ad98b9c27f996813ea2ab656a0f20ef45b9e341925c",
    24: "f19fba88a077c6e39096ed3f255eada8c8bc76bd6566b7e41427d634f09230de",
    25: "358389545894468046e0ca73601bbbdb3333f1d2fc58c65087c40672dbe6655e",
    26: "f0ced6440ec9a91a8cdabd4c2194adb5a6ca1b3c8cd12fdb6293d47a36a3ba2d",
    27: "afb462cf654a31cb90a01bd80c53e1f25654d152ff9df9536c579b5addcd9845",
    28: "846b8ad8b555c5211ff9297099cb37839a19a3f4b4de44ec23c3a624df6bf638",
    29: "6dee98dc064babc92aea0618a849bef021964a9c3c98510c0b9f0cee94e7538b",
    30: "b153b462496146061a52e688b3c2e1b93b61e94a67acdee8a3cc64a503519ca0",
    31: "26dc45e6792a24b4bc03ee89b6cad724e48a6f2a92d816e8d3d14a68aaf890b3",
    32: "98aa38653deb51836639d9f902970fdab75431f5a296c7cc4f85bdbdd51cd6a9",
    33: "4bce7abba230463443816f1ccb79e644d5b89bbf92f711cbd5be2621b1b7e59e",
    34: "6975963af91f481468d6c57826974d715387598fa1b04278e915ad59f9187cb6",
    35: "b153b462496146061a52e688b3c2e1b93b61e94a67acdee8a3cc64a503519ca0",
    36: "d5a5db42060215d5c120609b1fefecb420156b2c2ffe866442050c8eb8078bdb",
    37: "c55233d67ea5f7ec9bf0c1811b19a50984c9aae362a1bf2d9b6159d770c6b524",
    38: "cf2bc77e12dbd1d280090790bfc8f04470f256cd34d1e3b3fee7a037f30743eb",
    39: "3d166dc98511dcc9141c6f976ee031bd6e956648500b04dc6f9402b9c7f250bd",
    40: "d383b31f67d349d9219234e4f11d4d162a1de3c2b5a7c103b711909081a61d41",
    41: "1b76652570252549360c4f17080603f5ac78e3e3e077ee04757ea4df2e428809",
    42: "88d930ed754651feaa1751f172fe793834d4de0a24f26bf2c355ff03169466ae",
    43: "d318f5a833cf18381c16056499d2a62d000d10462d26f82c7991c65950fb833f",
    44: "038dfb9f0d7be7ab7aeda10c3a412d807002f47c6c798144d828904d392f3b13",
    45: "94833f09b08f04fabece72341b27267badc060a4f9a782980be385548b569cf2",
    46: "afa80fda04be379a8eed038a2fce8a5679e5edb1ce3eba513544ef0f4e7d2e52",
    47: "548a1ae96fedc76a64f26b94636f2048d3b2251ac117dc3efca2da5a2e5634a9",
    48: "fcc69ddc7f13cf97f8a9d37f2a8b920803a6027c195ad24f34eb00caeb36ab7b",
    49: "49d689025d7fafed8ed45aa0e3aeaa4eaf5b89e1d6cb73d2345ab442d5e715ea",
    50: "df90e153b8ff6e69beb18ae146b9e5733510ff95bf996b0975461966afb1cd62",
    51: "cf9a589c48a974f5ad4934513ddb789cb44e566621a8b1112ff259b5ce4d602a",
    52: "1db3e1ab88bd8570cc3e9f8d31a080e0cf0ec3f02ca781b86fc193af724abcd4",
    53: "5a4386cd98963ae8878cd87322477b29e58b0468c75697677f90c6177d0a91af",
    54: "6826264933354dabb34e35d4808520c2d848b01b071c781ec064ecde4d1a74bf",
    55: "e38c01e7b77fd6d7a401841bf7091e6b60fe73b96b8de1d4384f8c642599f936",
    56: "6674633cdb6107ce6cd95e64789ee1ebf905d722884c9840fd23826bd38584bc",
    57: "f819d32f361ed785df4bfbd0d3053e7aacd5f78cf732430311a10a01946555f4",
    58: "c7d4967abc7be8aea6d3251059c79b56d70dee98c41f334f17ba5c66518b7162",
    59: "da2ceaa4e7e549d2e7a3f0dc08b4b9e3023df7eaab9723f240ab21f5ec161218",
    2333: "8f4ec30ecb8f54eba6bbb866ba2ad5f58720f95c6c6e61eb195ee8ffa5ff56c0",
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
    "replicated-ops30": "e8addc30ac2d02c2057609030b6793032955d740447a1038bc62dbed3df5961b",
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
