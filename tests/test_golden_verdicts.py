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
also fails value-integrity. The digests of every replicated run whose
verdict render changed (27 of the random_config seeds, 2333 among them,
and replicated-ops30) were re-taken once when directory registers took
reliable-broadcast thresholds and a tsread stopped writing back: it now
returns its fixed pair once 2t_M+1 replicas report it. Every re-taken
verdict still passes; no oracle-mode digest changed.

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
# verdict has passed since a change to the replicated read path moved its
# schedule.
RANDOM_CONFIG = {
    0: "e45faf8466a52e79ee4ae8e7b783a41fbd8811485123f5ce972ee08090350854",
    1: "6d80000568c9e2ac36a22a3747fba4208850f61621c3c4d24779498b10c5a789",
    2: "b96864eac3d7ff3e148ece7dd426cc2dabe32adb63db65a604be025658f14f41",
    3: "ba9e67c12e5359162262bd14593ad9d85dfdc3f98a64f18ea732a91e9c7cb762",
    4: "7f7639e334eae7e29d04aabeb3c1ea70b5a32de1df22afa0948e72694678a4fa",
    5: "f114abd2c843ac304391af1a2682403b47e59d0f64a6ae6d479fea2f8c8facd5",
    6: "7218080f49a4ec76e2f4affcccb03e8848a0c2b8058b9763c52c5f9b13197948",
    7: "1b87b4c0403f6ec156d7fadba06d44786b42573b4b2e2eb09609bdffa7c6813f",
    8: "5fea0966a80baf08c37d23d3c85873bce5764ac72718568a5ce299fdf1ad928e",
    9: "14a2945b7a693642ae9d7f8f20601501397e5f4302e11e7c2141c504946198c7",
    10: "f41b2ac65956b8bee43ce0f5657097a2e0bcdfefe132950b68e1c7cdac16ba0a",
    11: "470904a28b432e8fccf7a1e9b17bed520dbe32d3ac9864932cba82dbe0cbbf1f",
    12: "88d930ed754651feaa1751f172fe793834d4de0a24f26bf2c355ff03169466ae",
    13: "92958c15c0357dbb6daf0e8964bc211275572dfe1981b11ecfb67ce6ffc8394e",
    14: "c88d7922367e000ae7bc63f00e40976fd6c898c9e5d80c3eb07bacafb944af20",
    15: "892caa5fbc094beadf5c47e8c8ec257591226d89d08c27c8db3e3459d6b802b2",
    16: "5decf3c17b21b0193243c4e3bd6308c0bff965fba1f2cf679de54b962c9ca634",
    17: "8389389128b9be8d6b402754af354def1c96a7f5fdd2f21ba2796a4aa77b416f",
    18: "f79d891c7fd13e9f7dc4a674f5771d4fe3cd9fb1bbd2e4b33bd30a870cbf311b",
    19: "86073cb7f3e9cb13e41580087660f56838dd148782180739c3566caf30be8d45",
    20: "e0441b29e0fbc6cf20fd1eb3e20eeef8ed9a0b67816f9261f7ee1cfce6d4d7b6",
    21: "f701d03c5a665d0d935c4e3e9b75e4a3af774bbf53bde17cb52c13c95f1bc4fd",
    22: "6855b293495b0ab29a55fe11cef4b1bb46bef817b560c230528f75a6d67d5723",
    23: "bf9c3cd80610957b2e661a3920ecd069029cbd43240db91e85be1de1174453f3",
    24: "f19fba88a077c6e39096ed3f255eada8c8bc76bd6566b7e41427d634f09230de",
    25: "04fb9c93658985393dca2d15fde0a06e36900d70395c8922e80841cf562c70ee",
    26: "f0ced6440ec9a91a8cdabd4c2194adb5a6ca1b3c8cd12fdb6293d47a36a3ba2d",
    27: "25de3830dbada54b411a5cdd3a6b24ae71b1ae93e98eb2f51d2dde2742f2b745",
    28: "846b8ad8b555c5211ff9297099cb37839a19a3f4b4de44ec23c3a624df6bf638",
    29: "1e3418e72a340b700e0d42de481de6ffb1bf31b6bc8a6e944124aad09d2932c7",
    30: "b153b462496146061a52e688b3c2e1b93b61e94a67acdee8a3cc64a503519ca0",
    31: "07baeab819622a3d92f4f2f3455f5ef833260e181df3f337c80bf56b1bcdf353",
    32: "98aa38653deb51836639d9f902970fdab75431f5a296c7cc4f85bdbdd51cd6a9",
    33: "2a008086d27fc2a8c513d0a18ddbd7abbc262ea30bbd3195a89edf6e175f79bd",
    34: "6975963af91f481468d6c57826974d715387598fa1b04278e915ad59f9187cb6",
    35: "b153b462496146061a52e688b3c2e1b93b61e94a67acdee8a3cc64a503519ca0",
    36: "d5a5db42060215d5c120609b1fefecb420156b2c2ffe866442050c8eb8078bdb",
    37: "0d0e1dd34c6d1ecf26e85d0d1ed28e1a1671ba22cd8deb46e734b571b696beba",
    38: "cf2bc77e12dbd1d280090790bfc8f04470f256cd34d1e3b3fee7a037f30743eb",
    39: "8e0f74e27cb51e4f0cd13fe6c48d5c07c5b87a21d955ce584505f7721c8c75cb",
    40: "d383b31f67d349d9219234e4f11d4d162a1de3c2b5a7c103b711909081a61d41",
    41: "be5aca3d86e4e27e8ac5285b89243a0f19637ea6aa437148f2cb3ec3a8a58b84",
    42: "88d930ed754651feaa1751f172fe793834d4de0a24f26bf2c355ff03169466ae",
    43: "04c3eb0c807728039c0b0b7c0cb55d0b3cc259213e8cd54cb8b54558c31829a6",
    44: "038dfb9f0d7be7ab7aeda10c3a412d807002f47c6c798144d828904d392f3b13",
    45: "94833f09b08f04fabece72341b27267badc060a4f9a782980be385548b569cf2",
    46: "afa80fda04be379a8eed038a2fce8a5679e5edb1ce3eba513544ef0f4e7d2e52",
    47: "76bd943664368a64f1f84469afde9fe7975d23b5e650039b6b57f5237e756d4e",
    48: "fcc69ddc7f13cf97f8a9d37f2a8b920803a6027c195ad24f34eb00caeb36ab7b",
    49: "5715e2f2663ddaeb0e24ea34bf9019d805b67c45d0f207798b88a1f5f2222caf",
    50: "df90e153b8ff6e69beb18ae146b9e5733510ff95bf996b0975461966afb1cd62",
    51: "034fd40ef59622fe00485c98390002b74c53f1437115359fb0f488b3751a939a",
    52: "1db3e1ab88bd8570cc3e9f8d31a080e0cf0ec3f02ca781b86fc193af724abcd4",
    53: "5a4386cd98963ae8878cd87322477b29e58b0468c75697677f90c6177d0a91af",
    54: "6826264933354dabb34e35d4808520c2d848b01b071c781ec064ecde4d1a74bf",
    55: "b9d2964d074e3013b433e5d6aaf14c9581a4bb99374d42b2481c9e20f7d8b662",
    56: "6674633cdb6107ce6cd95e64789ee1ebf905d722884c9840fd23826bd38584bc",
    57: "de1940c2e927d91bf08deeb484f1ae5597831f4d5c0ac1448ce006439170b864",
    58: "c7d4967abc7be8aea6d3251059c79b56d70dee98c41f334f17ba5c66518b7162",
    59: "0dfae7ccadd5ff8b44513c9c22309114b62b49d7044ae7ea35acf08966297892",
    2333: "3d00c2ab3248af3a91dcb3c7d926de10b33dad7d189a0e1cc2e079f88a882808",
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
    "replicated-ops30": "4f0a7fb444b05a302ab8a45ffb8a89c7265c654827ecbac5b9a17fb2d88ad283",
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
