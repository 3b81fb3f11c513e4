import copy
import random
from collections import Counter

import pytest

from conftest import check_register_exhaustive, random_history
from splitstore import checker
from splitstore.checker import (
    SMALL_LIMIT,
    _BELOW_EVERY_TS,
    _lemma,
    _max_ts_before,
    _real_time_violation,
    check_directory_linearizable,
    check_register_linearizable,
    check_run,
    check_wait_freedom,
    lemma_directory_monotone,
    lemma_read_sandwich,
    lemma_timestamp_order,
    lemma_unique_write_timestamps,
    lemma_value_integrity,
)
from splitstore.history import DirOpRecord, OpRecord
from splitstore.scenarios import random_config
from splitstore.simnet import Config, run
from splitstore.types import TS_INIT, HarnessError, Metadata, Timestamp


def W(op_id, client, val, invoke, response, num, cid):
    return OpRecord(op_id=op_id, client=client, kind="WRITE", arg=val,
                    invoke=invoke, response=response,
                    ret="OK" if response is not None else None,
                    ts=Timestamp(num, cid))


def R(op_id, client, val, invoke, response, num, cid):
    ts = Timestamp(num, cid)
    return OpRecord(op_id=op_id, client=client, kind="READ", arg=None,
                    invoke=invoke, response=response, ret=val,
                    ts=ts, md_ts=ts)


# -- exhaustive register check ------------------------------------------------


def test_empty_history_is_linearizable():
    assert check_register_exhaustive([]).passed


def test_sequential_history_is_linearizable():
    hist = [W(1, "w1", b"a", 0, 10, 1, 1), R(2, "r1", b"a", 20, 30, 1, 1)]
    assert check_register_exhaustive(hist).passed


def test_read_of_a_never_written_value_fails():
    hist = [W(1, "w1", b"a", 0, 10, 1, 1), R(2, "r1", b"z", 20, 30, 1, 1)]
    res = check_register_exhaustive(hist)
    assert res.passed is False
    assert res.counterexample


def test_new_old_read_inversion_fails():
    hist = [
        W(1, "w1", b"a", 0, 10, 1, 1),
        R(2, "r1", b"a", 20, 30, 1, 1),
        R(3, "r2", None, 40, 50, 0, 0),  # stale: initial state after b"a" was read
    ]
    assert check_register_exhaustive(hist).passed is False


def test_concurrent_reads_may_split_around_a_write():
    hist = [
        W(1, "w1", b"a", 0, 100, 1, 1),
        R(2, "r1", None, 10, 20, 0, 0),
        R(3, "r2", b"a", 30, 40, 1, 1),
    ]
    assert check_register_exhaustive(hist).passed


def test_open_write_may_count_as_applied():
    hist = [
        OpRecord(op_id=1, client="w1", kind="WRITE", arg=b"a", invoke=0,
                 ts=Timestamp(1, 1)),  # never returned
        R(2, "r1", b"a", 10, 20, 1, 1),
    ]
    assert check_register_exhaustive(hist).passed


def test_open_write_may_also_be_dropped():
    hist = [
        OpRecord(op_id=1, client="w1", kind="WRITE", arg=b"a", invoke=0,
                 ts=Timestamp(1, 1)),
        R(2, "r1", None, 10, 20, 0, 0),
    ]
    assert check_register_exhaustive(hist).passed


def test_interleaved_clients_must_stay_sequential():
    bad = [W(1, "w1", b"a", 0, 10, 1, 1), W(2, "w1", b"b", 5, 15, 2, 1)]
    with pytest.raises(HarnessError):
        check_register_exhaustive(bad)


# -- witness ladder -----------------------------------------------------------


def chain(n, stale_read_at=None):
    """n sequential write+read rounds, optionally with one stale read."""
    hist = []
    op_id = 1
    t = 0
    for i in range(1, n + 1):
        hist.append(W(op_id, "w1", bytes([96 + i]), t, t + 5, i, 1))
        op_id += 1
        t += 10
        val, num = bytes([96 + i]), i
        if stale_read_at == i:
            val, num = bytes([96 + i - 1]), i - 1  # reads the superseded value
        hist.append(R(op_id, "r1", val, t, t + 5, num, 1))
        op_id += 1
        t += 10
    return hist


def test_witness_accepts_a_long_clean_history():
    res = check_register_linearizable(chain(10))
    assert res.passed
    assert res.detail == "timestamp witness"
    assert res.witness is not None


def test_witness_failure_is_confirmed_on_a_small_suspect_subset():
    res = check_register_linearizable(chain(10, stale_read_at=6))
    assert res.passed is False
    assert "re-validated" in res.detail
    assert res.counterexample


def test_ladder_agrees_with_exhaustive_on_random_histories():
    rng = random.Random("ladder-vs-exhaustive")
    for _ in range(300):
        hist = random_history(rng)
        full = check_register_exhaustive(hist)
        lad = check_register_linearizable(hist, small_limit=0)
        assert full.passed == lad.passed, [op.render() for op in hist]


def test_the_witness_handles_ops_without_a_timestamp():
    """An accepted read or a complete write without a timestamp fails the
    witness, and the whole-history search decides; an open write without
    one never took effect, and the witness drops it."""
    write, read = W(1, "w1", b"a", 0, 10, 1, 1), R(2, "r1", b"a", 20, 30, 1, 1)
    read.ts = None
    res = check_register_linearizable([write, read], small_limit=0)
    assert res.passed and res.witness == [1, 2]
    assert res.detail == ("witness failed (read 2 lacks a timestamp annotation); "
                          "exhaustive fallback passed")
    write, read = W(1, "w1", b"a", 0, 10, 1, 1), R(2, "r1", b"a", 20, 30, 1, 1)
    write.ts = None
    res = check_register_linearizable([write, read], small_limit=0)
    assert res.passed and res.witness == [1, 2]
    assert res.detail == ("witness failed (write 1 lacks a timestamp annotation); "
                          "exhaustive fallback passed")
    write, read = W(1, "w1", b"a", 0, 10, 1, 1), R(3, "r1", b"a", 20, 30, 1, 1)
    open_write = W(2, "w2", b"b", 5, None, 1, 2)
    open_write.ts = None
    res = check_register_linearizable([write, open_write, read], small_limit=0)
    assert res.passed and res.witness == [1, 3]
    assert res.detail == "timestamp witness"


def test_a_failing_suspect_pair_does_not_convict_a_repeated_value():
    # The read carries w1's timestamp, so the witness puts it before w2 and
    # fails; but w3 wrote the same value again, and reading it is linearizable.
    hist = [
        W(1, "w1", b"a", 0, 10, 1, 1),
        W(2, "w1", b"b", 20, 30, 2, 1),
        W(3, "w1", b"a", 40, 50, 3, 1),
        R(4, "r1", b"a", 60, 70, 1, 1),
    ]
    assert check_register_exhaustive(hist).passed
    res = check_register_linearizable(hist, small_limit=3)
    assert res.passed, res.detail
    assert res.detail.endswith("exhaustive fallback passed")
    # ten ops take the witness path, and the whole-history search clears them
    padded = hist + [R(5 + i, "r1", b"a", 80 + 20 * i, 90 + 20 * i, 3, 1) for i in range(6)]
    assert len(padded) == 10 > SMALL_LIMIT
    assert check_register_exhaustive(padded).passed
    res = check_register_linearizable(padded)
    assert res.passed, res.detail
    assert res.detail.endswith("exhaustive fallback passed")


def on_two_values(hist):
    """The same history with every written and read value folded onto
    b"a" or b"b", so values repeat the way a small workload alphabet
    makes them repeat."""
    fold = lambda v: bytes([97 + v[0] % 2]) if isinstance(v, bytes) else v
    for op in hist:
        op.arg, op.ret = fold(op.arg), fold(op.ret)
    return hist


def test_ladder_agrees_with_exhaustive_when_values_repeat():
    rng = random.Random("repeated-values")
    disagreements = {0: 0, 3: 0}
    revalidated = {0: 0, 3: 0}
    for _ in range(3000):
        hist = on_two_values(random_history(rng, max_ops=8))
        full = check_register_exhaustive(hist)
        for small_limit in disagreements:
            lad = check_register_linearizable(hist, small_limit=small_limit)
            disagreements[small_limit] += lad.passed != full.passed
            revalidated[small_limit] += "re-validated" in lad.detail
    assert disagreements == {0: 0, 3: 0}
    assert min(revalidated.values()) >= 100, revalidated


# -- directory checking -------------------------------------------------------


def DW(tag, proc, invoke, response, num, cid, replicas=(1, 2)):
    ts = Timestamp(num, cid)
    return DirOpRecord(proc=proc, op="tswrite", tag=tag, invoke=invoke,
                       response=response, ts=ts,
                       md=Metadata(ts=ts, replicas=frozenset(replicas)))


def DR(tag, proc, invoke, response, num, cid, replicas=(1, 2)):
    ts = Timestamp(num, cid)
    md = None if ts == Timestamp(0, 0) else Metadata(ts=ts, replicas=frozenset(replicas))
    return DirOpRecord(proc=proc, op="tsread", tag=tag, invoke=invoke,
                       response=response, ts=ts, md=md)


def test_directory_initial_reads_then_writes():
    ops = [
        DR(1, "r1", 0, 5, 0, 0),
        DW(1, "w1", 10, 20, 1, 1),
        DR(2, "r1", 30, 40, 1, 1),
    ]
    assert check_directory_linearizable(ops).passed


def test_directory_write_with_an_old_timestamp_is_a_no_op():
    ops = [
        DW(1, "w2", 0, 5, 2, 2),
        DR(1, "r1", 10, 15, 2, 2),
        DW(1, "w1", 20, 25, 1, 1),  # superseded before it was invoked
        DR(2, "r1", 30, 35, 2, 2),  # still sees the newer state
    ]
    assert check_directory_linearizable(ops).passed


def test_directory_no_op_write_in_a_long_history():
    # the witness path (not the small exhaustive one) leaves the superseded
    # write out: it is a no-op after the newer state it cannot overwrite
    ops = [DW(1, "w2", 0, 5, 5, 2)]
    t = 10
    for tag in range(2, 11):
        ops.append(DR(tag, "r1", t, t + 5, 5, 2))
        t += 10
    ops.append(DW(2, "w1", t, t + 5, 1, 1))  # stale no-op write, late arrival
    ops.append(DR(11, "r2", t + 10, t + 15, 5, 2))
    res = check_directory_linearizable(ops)
    assert res.passed, res.detail


def test_directory_vanishing_state_fails():
    ops = [
        DW(1, "w1", 0, 5, 1, 1),
        DR(1, "r1", 10, 15, 1, 1),
        DR(2, "r1", 20, 25, 0, 0),  # the directory cannot forget
    ]
    res = check_directory_linearizable(ops)
    assert res.passed is False


def test_directory_metadata_must_match_the_write():
    ops = [
        DW(1, "w1", 0, 5, 1, 1, replicas=(1, 2)),
        DR(1, "r1", 10, 15, 1, 1, replicas=(2, 3)),  # same ts, different payload
    ]
    assert check_directory_linearizable(ops).passed is False


def test_directory_counterexamples_name_the_process():
    # every process counts its own tags, so tag 1 alone names three ops
    ops = [
        DW(1, "w1", 0, 5, 1, 1),
        DR(1, "r1", 10, 15, 1, 1),
        DR(1, "r2", 20, 25, 0, 0),
    ]
    res = check_directory_linearizable(ops)
    assert res.passed is False
    assert res.counterexample == [["r1", 1], ["r2", 1], ["w1", 1]]
    res = lemma_directory_monotone(ops)
    assert res.counterexample == [[["w1", 1], ["r2", 1]], [["r1", 1], ["r2", 1]]]


def test_directory_open_write_may_count_as_applied():
    ops = [DW(1, "w1", 0, None, 1, 1), DR(1, "r1", 10, 20, 1, 1)]  # write never returned
    res = check_directory_linearizable(ops)
    assert res.passed, res.detail
    assert res.detail == "exhaustive"


def test_directory_open_write_may_also_be_dropped():
    ops = [DW(1, "w1", 0, None, 1, 1), DR(1, "r1", 10, 20, 0, 0)]
    res = check_directory_linearizable(ops)
    assert res.passed, res.detail
    assert res.detail == "exhaustive"


def test_directory_open_write_cannot_take_effect_twice():
    # r1 saw the open write, so r2, invoked after r1 returned, cannot see
    # the initial state again
    ops = [
        DW(1, "w1", 0, None, 1, 1),
        DR(1, "r1", 10, 20, 1, 1),
        DR(1, "r2", 30, 40, 0, 0),
    ]
    assert check_directory_linearizable(ops).passed is False


def test_exhausted_node_budget_fails_the_check(monkeypatch):
    hist = [
        W(1, "w1", b"a", 0, 10, 1, 1),
        R(2, "r1", b"a", 20, 30, 1, 1),
        W(3, "w1", b"b", 40, 50, 2, 1),
        R(4, "r1", b"b", 60, 70, 2, 1),
    ]
    dir_ops = [
        DW(1, "w1", 0, 10, 1, 1),
        DR(1, "r1", 20, 30, 1, 1),
        DW(2, "w1", 40, 50, 2, 1),
        DR(2, "r1", 60, 70, 2, 1),
    ]
    assert check_register_linearizable(hist).passed
    assert check_directory_linearizable(dir_ops).passed
    # a linearization of four ops visits four nodes before it is complete
    monkeypatch.setattr(checker, "NODE_BUDGET", 3)
    for res in (check_register_exhaustive(hist), check_register_linearizable(hist)):
        assert res.passed is False
        assert res.detail == "exhaustive search exceeded its node budget"
        assert res.counterexample == [1, 2, 3, 4]
    res = check_directory_linearizable(dir_ops)
    assert res.passed is False
    assert res.detail == "exhaustive search exceeded its node budget"
    assert res.counterexample == [["r1", 1], ["r1", 2], ["w1", 1], ["w1", 2]]
    monkeypatch.setattr(checker, "NODE_BUDGET", 4)
    assert check_register_exhaustive(hist).passed
    assert check_directory_linearizable(dir_ops).passed


def test_superseded_write_read_back_is_confirmed_on_a_subset():
    # w2's record completes before w1's older one is invoked, so w1's write
    # never takes effect, yet a read concurrent with w1 returns its record.
    # Later reads pad the history to 15 ops; the verdict must still name
    # the re-validated three-op subset, not the whole history.
    ops = [
        DW(1, "w2", 0, 5, 1, 2),
        DW(1, "w1", 10, 20, 1, 1),
        DR(1, "r1", 12, 18, 1, 1),
    ]
    ops += [DR(tag, "r2", 20 + 10 * tag, 25 + 10 * tag, 1, 2) for tag in range(1, 13)]
    assert len(ops) == 15
    res = check_directory_linearizable(ops)
    assert res.passed is False
    assert res.detail.endswith("counterexample re-validated exhaustively"), res.detail
    assert res.counterexample == [["r1", 1], ["w1", 1], ["w2", 1]]


WINDOW = 14  # largest directory_slices window: small_limit=WINDOW searches one whole


def directory_slices(rng, count):
    """Windows of at most WINDOW directory ops cut from random_config
    runs. Some tsreads are made stale (they return an earlier write's
    record, or the initial state), and some tswrites that end their
    process's part of the window lose their response, so open writes
    occur. Windows also cut reads off from the writes they observed."""
    runs = [
        [o for o in run(random_config(seed)).dir_ops if o.op in ("tsread", "tswrite")]
        for seed in range(20)
    ]
    for _ in range(count):
        ops = rng.choice(runs)
        start = rng.randrange(len(ops))
        window = [copy.copy(o) for o in ops[start:start + rng.randint(3, WINDOW)]]
        writes = [o for o in window if o.op == "tswrite"]
        for read in [o for o in window if o.op == "tsread"]:
            if rng.random() < 0.15:
                src = rng.choice(writes) if writes and rng.random() < 0.7 else None
                read.ts, read.md = (src.ts, src.md) if src else (Timestamp(0, 0), None)
        last_of_proc = {o.proc: o for o in window}
        for write in writes:
            if last_of_proc[write.proc] is write and rng.random() < 0.6:
                write.response = None
        yield window


def test_directory_witness_agrees_with_exhaustive_search():
    rng = random.Random("directory-witness-vs-exhaustive")
    seen = {"pass": 0, "fail": 0, "witness passed": 0, "witness included an open write": 0}
    superseded_passes = 0
    for ops in directory_slices(rng, 1000):
        full = check_directory_linearizable(ops, small_limit=WINDOW)
        assert full.detail.startswith("exhaustive"), full.detail
        ladder = check_directory_linearizable(ops, small_limit=0)
        assert ladder.passed == full.passed, [o.render() for o in ops]
        seen["pass" if full.passed else "fail"] += 1
        if ladder.detail != "timestamp witness":
            continue
        seen["witness passed"] += 1
        # the witness left out a complete write that a completed op had
        # already superseded when it was invoked
        superseded_passes += any(
            w.op == "tswrite" and w.complete and any(
                o.complete and o.response < w.invoke and o.ts > w.ts for o in ops
            )
            for w in ops
        )
        if any(o.op == "tswrite" and not o.complete for o in ops):
            # the open writes were needed when the history fails without them
            closed = [o for o in ops if o.complete or o.op != "tswrite"]
            seen["witness included an open write"] += not check_directory_linearizable(
                closed, small_limit=WINDOW
            ).passed
    assert min(seen.values()) >= 50, seen
    assert superseded_passes >= 30, superseded_passes


# -- wait-freedom -------------------------------------------------------------


def test_wait_freedom_passes_when_everything_returns():
    hist = [W(1, "w1", b"a", 0, 10, 1, 1)]
    assert check_wait_freedom(hist, set(), budget=100, quiescent=True).passed


def test_wait_freedom_flags_blocked_operations():
    hist = [OpRecord(op_id=1, client="w1", kind="WRITE", arg=b"a", invoke=0)]
    res = check_wait_freedom(hist, set(), budget=100, quiescent=True)
    assert res.passed is False
    assert "blocked" in res.detail


def test_wait_freedom_ignores_crashed_clients():
    hist = [OpRecord(op_id=1, client="w1", kind="WRITE", arg=b"a", invoke=0)]
    assert check_wait_freedom(hist, {"w1"}, budget=100, quiescent=True).passed


def test_wait_freedom_flags_over_budget_operations():
    hist = [W(1, "w1", b"a", 0, 500, 1, 1)]
    res = check_wait_freedom(hist, set(), budget=100, quiescent=True)
    assert res.passed is False
    assert "budget" in res.detail


# -- lemma monitors -----------------------------------------------------------


def test_unique_write_timestamps_lemma():
    good = [W(1, "w1", b"a", 0, 10, 1, 1), W(2, "w2", b"b", 0, 10, 1, 2)]
    assert lemma_unique_write_timestamps(good).passed
    bad = [W(1, "w1", b"a", 0, 10, 1, 1), W(2, "w2", b"b", 0, 10, 1, 1)]
    res = lemma_unique_write_timestamps(bad)
    assert res.passed is False


def test_timestamp_order_lemma():
    good = [W(1, "w1", b"a", 0, 10, 1, 1), W(2, "w2", b"b", 20, 30, 2, 2)]
    assert lemma_timestamp_order(good).passed
    bad = [W(1, "w1", b"a", 0, 10, 2, 1), W(2, "w2", b"b", 20, 30, 1, 2)]
    assert lemma_timestamp_order(bad).passed is False


def test_read_sandwich_lemma():
    ok = R(1, "r1", b"a", 0, 10, 1, 1)
    assert lemma_read_sandwich([ok]).passed
    bad = R(2, "r1", b"a", 0, 10, 2, 1)
    bad.md_ts = Timestamp(1, 1)  # accepted a timestamp above the directory state
    assert lemma_read_sandwich([bad]).passed is False
    revalidated = R(3, "r1", b"a", 0, 10, 2, 1)
    revalidated.md_ts = Timestamp(1, 1)
    revalidated.md2_ts = Timestamp(2, 1)  # second directory read covers it
    assert lemma_read_sandwich([revalidated]).passed
    unannotated = R(4, "r1", b"a", 0, 10, 1, 1)
    unannotated.ts = None  # an accepted value without its timestamp
    assert lemma_read_sandwich([unannotated]).passed is False
    for ts in (Timestamp(1, 1), Timestamp(3, 1)):  # at or past an end of the bracket
        outside = R(5, "r1", b"a", 0, 10, *ts)
        outside.md_ts, outside.md2_ts = Timestamp(1, 1), Timestamp(2, 1)
        assert lemma_read_sandwich([outside]).passed is False


def test_directory_monotone_lemma():
    ops = [
        DR(1, "r1", 0, 5, 2, 2),
        DR(2, "r1", 10, 15, 1, 1),  # observed timestamp went backwards
    ]
    assert lemma_directory_monotone(ops).passed is False
    assert lemma_directory_monotone(list(reversed(ops))).passed is False  # order-independent


def test_value_integrity_lemma():
    clients = {"w1": 1, "r1": 3}
    hist = [W(1, "w1", b"a", 0, 10, 1, 1), R(2, "r1", b"a", 20, 30, 1, 1)]
    assert lemma_value_integrity(hist, clients, collision_resistant=True).passed
    forged = [W(1, "w1", b"a", 0, 10, 1, 1), R(2, "r1", b"z", 20, 30, 1, 1)]
    res = lemma_value_integrity(forged, clients, collision_resistant=True)
    assert res.passed is False
    skipped = lemma_value_integrity(forged, clients, collision_resistant=False)
    assert skipped.passed is None


def test_value_integrity_checks_timestamp_ownership():
    clients = {"w1": 1, "r1": 3}
    hist = [W(1, "w1", b"a", 0, 10, 1, 2),  # timestamp branded with someone else
            R(2, "r1", b"a", 20, 30, 1, 2)]
    assert lemma_value_integrity(hist, clients, collision_resistant=True).passed is False


# -- whole-run verdicts -------------------------------------------------------


def test_check_run_passes_a_clean_simulation():
    verdict = check_run(run(Config(seed=17, ops=2)))
    assert verdict.ok
    assert verdict.results["value-integrity"].passed is True


def test_check_run_skips_integrity_when_digests_are_forgeable():
    verdict = check_run(run(Config(seed=17, ops=2, hash_mode="forgeable")))
    assert verdict.ok  # None is not a failure
    assert verdict.results["value-integrity"].passed is None


def test_random_history_generator_is_deterministic():
    a = [op.render() for op in random_history(random.Random("g"))]
    b = [op.render() for op in random_history(random.Random("g"))]
    assert a == b


# -- fast precedence checks against pairwise references -----------------------
#
# The checker certifies real-time and timestamp precedence with a sort and a
# running max, and keeps its pairwise scans only to explain a violation. The
# references below are those pairwise scans, written out in full.


def ref_max_ts_before(ops, step):
    keys = [o.ts for o in ops if o.response is not None and o.response < step]
    return max(keys, default=None)


def ref_respects_real_time(order):
    return not any(
        a.response is not None and a.response < b.invoke
        for i, a in enumerate(order) for b in order[:i]
    )


def ref_real_time_violation(order):
    for i, a in enumerate(order):
        if a.response is None:
            continue
        for j, b in enumerate(order):
            if a.response < b.invoke and i > j:
                return a, b
    return None


def ref_timestamp_order(history):
    annotated = [o for o in history if o.complete and o.ts is not None]
    failures = []
    for a in annotated:
        for b in annotated:
            if a.response >= b.invoke:
                continue
            if b.kind == "WRITE":
                if not a.ts < b.ts:
                    failures.append([a.op_id, b.op_id])
            elif not a.ts <= b.ts:
                failures.append([a.op_id, b.op_id])
    return _lemma("timestamp-order", failures, f"{len(annotated)} annotated ops checked")


def ref_directory_monotone(dir_ops):
    ops = [o for o in dir_ops if o.op in ("tsread", "tswrite") and o.complete]
    failures = []
    for a in ops:
        for b in ops:
            if b.op != "tsread" or a.response >= b.invoke:
                continue
            if b.ts < a.ts:
                failures.append([[a.proc, a.tag], [b.proc, b.tag]])
    return _lemma("directory-monotone", failures, f"{len(ops)} directory ops checked")


def tied_shapes(rng):
    """10-40 operations over 2-5 sequential clients on a coarse step grid,
    so one client often responds at the very step another is invoked, the
    case where strict and non-strict precedence differ. A timestamp's
    counter is its op's invoke step, so ops invoked at the same step can
    carry equal timestamps, and about one in thirty is corrupted."""
    clients = list(range(1, rng.randint(2, 5) + 1))
    free = {c: 0 for c in clients}  # earliest step the client may invoke at
    shapes = []
    for _ in range(rng.randint(10, 40)):
        if not clients:
            break
        c = rng.choice(clients)
        invoke = free[c] + rng.randint(0, 2)
        response = None if rng.random() < 0.08 else invoke + rng.randint(1, 3)
        if response is None:
            clients.remove(c)
        else:
            free[c] = response + 1
        num = invoke
        if rng.random() < 0.03:
            num += rng.randint(-6, 6)
        shapes.append((c, rng.random() < 0.5, invoke, response, Timestamp(num, rng.randint(1, 2))))
    return shapes


def as_register_ops(shapes, rng):
    return [
        OpRecord(op_id=i, client=f"c{c}", kind="WRITE" if write else "READ", arg=None,
                 invoke=invoke, response=response,
                 ts=None if rng.random() < 0.05 else ts)
        for i, (c, write, invoke, response, ts) in enumerate(shapes, 1)
    ]


def as_dir_ops(shapes):
    return [
        DirOpRecord(proc=f"c{c}", op="tswrite" if write else "tsread", tag=i,
                    invoke=invoke, response=response, ts=ts)
        for i, (c, write, invoke, response, ts) in enumerate(shapes, 1)
    ]


def test_fast_precedence_checks_match_pairwise_references():
    rng = random.Random("certify-vs-explain")
    seen = {"ties": 0, "ts-order-fail": 0, "monotone-fail": 0,
            "real-time-fail": 0, "real-time-ok": 0}
    for _ in range(2000):
        shapes = tied_shapes(rng)
        responses = {s[3] for s in shapes}
        seen["ties"] += any(s[2] in responses for s in shapes)

        hist = as_register_ops(shapes, rng)
        annotated = [o for o in hist if o.ts is not None]
        max_ts_before = _max_ts_before(annotated)
        for step in sorted({o.invoke for o in hist} | responses - {None}):
            expected = ref_max_ts_before(annotated, step)
            assert max_ts_before(step) == (_BELOW_EVERY_TS if expected is None else expected)
        got = lemma_timestamp_order(hist)
        assert got.render() == ref_timestamp_order(hist).render()
        seen["ts-order-fail"] += got.passed is False

        order = sorted(annotated, key=lambda o: (o.ts, o.op_id))
        assert (_real_time_violation(order) is None) == ref_respects_real_time(order)
        assert _real_time_violation(order) == ref_real_time_violation(order)
        seen["real-time-ok" if ref_respects_real_time(order) else "real-time-fail"] += 1

        dir_ops = as_dir_ops(shapes)
        got = lemma_directory_monotone(dir_ops)
        assert got.render() == ref_directory_monotone(dir_ops).render()
        seen["monotone-fail"] += got.passed is False
    # the generator must exercise both outcomes of every check, and ties
    assert min(seen.values()) > 100, seen


def test_fast_precedence_checks_match_references_on_mutated_large_runs():
    result = run(Config(seed=0, writers=4, readers=4, ops=50))
    failed = 0
    reads = [o for o in result.history if o.kind == "READ" and o.ret is not None]
    for read in reads[::len(reads) // 4]:
        saved = read.ts
        read.ts = Timestamp(read.ts.num - 3, read.ts.cid)
        got = lemma_timestamp_order(result.history)
        assert got.render() == ref_timestamp_order(result.history).render()
        order = sorted(result.history, key=lambda o: (o.ts, o.op_id))
        assert _real_time_violation(order) == ref_real_time_violation(order)
        failed += got.passed is False
        read.ts = saved
    assert lemma_timestamp_order(result.history).passed

    dir_reads = [o for o in result.dir_ops if o.op == "tsread" and o.ts.num > 3]
    for read in dir_reads[::len(dir_reads) // 2]:
        saved = read.ts
        read.ts = Timestamp(read.ts.num - 3, read.ts.cid)
        got = lemma_directory_monotone(result.dir_ops)
        assert got.render() == ref_directory_monotone(result.dir_ops).render()
        failed += got.passed is False
        read.ts = saved
    assert lemma_directory_monotone(result.dir_ops).passed
    assert failed >= 4


# -- the search's real-time rule against the pairwise scan --------------------


def ref_search(ops, spec, budget):
    """`_search` as a recursive walk with the real-time rule as a pairwise
    scan: a candidate is blocked when any other unplaced op responded
    before it was invoked. Open writes are optional, so a node is a
    solution once every complete op is placed."""
    ordered = sorted(ops, key=spec.order_key)
    resp = [o.response if o.response is not None else float("inf") for o in ordered]
    need = sum(1 << i for i, o in enumerate(ordered) if o.complete)
    left = budget
    seen = set()

    def walk(placed, state, path):
        nonlocal left
        if placed & need == need:
            return path
        left -= 1
        if left < 0 or (placed, state) in seen:
            return None
        seen.add((placed, state))
        for i, op in enumerate(ordered):
            if placed >> i & 1:
                continue
            if any(resp[j] < op.invoke for j in range(len(ordered))
                   if j != i and not placed >> j & 1):
                continue
            after = spec.step(state, op)
            if after is not None:
                found = walk(placed | 1 << i, after, path + [op])
                if found is not None:
                    return found
        return None

    order = walk(0, spec.init, [])
    return order, order is None and left < 0


def ref_subset_search(ops, spec, budget):
    """The earlier search: one walk per subset of the open writes, each
    subset re-sorted and memoized on its own, all sharing one budget."""
    complete = [o for o in ops if o.complete]
    open_writes = [o for o in ops if not o.complete]
    left = budget
    for mask in range(1 << len(open_writes)):
        included = [w for i, w in enumerate(open_writes) if mask >> i & 1]
        ordered = sorted(complete + included, key=spec.order_key)
        resp = [o.response if o.response is not None else float("inf") for o in ordered]
        seen = set()

        def walk(placed, state, path):
            nonlocal left
            if len(path) == len(ordered):
                return path
            left -= 1
            if left < 0 or (placed, state) in seen:
                return None
            seen.add((placed, state))
            horizon = min(r for j, r in enumerate(resp) if not placed >> j & 1)
            for i, op in enumerate(ordered):
                if placed >> i & 1 or op.invoke > horizon:
                    continue
                after = spec.step(state, op)
                if after is not None:
                    found = walk(placed | 1 << i, after, path + [op])
                    if found is not None:
                        return found
            return None

        order = walk(0, spec.init, [])
        if order is not None:
            return order, False
        if left < 0:
            return None, True
    return None, False


def searchable_histories(rng):
    """A register and a directory history of 2-9 ops on `tied_shapes`'
    coarse step grid, so an op is often invoked at the very step another
    responds. Values come from two, and reads return a value some write
    carries or the initial one, so both verdicts occur."""
    shapes = tied_shapes(rng)[:rng.randint(2, 9)]
    register, directory, writes = [], [], []
    for i, (c, write, invoke, response, ts) in enumerate(shapes, 1):
        if write:
            val = rng.choice([b"a", b"b"])
            writes.append((val, ts))
            register.append(W(i, f"c{c}", val, invoke, response, ts.num, ts.cid))
            directory.append(DirOpRecord(proc=f"c{c}", op="tswrite", tag=i, invoke=invoke,
                                         response=response, ts=ts, md=val))
        elif response is not None:
            val, read_ts = rng.choice(writes) if writes and rng.random() < 0.8 else (None, TS_INIT)
            register.append(R(i, f"c{c}", val, invoke, response, read_ts.num, read_ts.cid))
            directory.append(DirOpRecord(proc=f"c{c}", op="tsread", tag=i, invoke=invoke,
                                         response=response, ts=read_ts, md=val))
    return register, directory


def test_search_horizon_matches_the_pairwise_real_time_rule(monkeypatch):
    """Same order, same budget verdict: at every budget the two rules
    agree, so they expand the same nodes in the same order."""
    rng = random.Random("search-horizon")
    seen = Counter()
    for _ in range(1500):
        register, directory = searchable_histories(rng)
        for ops, spec in ((register, checker._REGISTER), (directory, checker._DIRECTORY)):
            for budget in (rng.randint(1, 40), 100_000):
                monkeypatch.setattr(checker, "NODE_BUDGET", budget)
                got = checker._search(ops, spec)
                assert got == ref_search(ops, spec, budget)
                seen["found" if got[0] is not None else "budget" if got[1] else "none"] += 1
        responses = {o.response for o in register}
        seen["ties"] += any(o.invoke in responses for o in register)
    assert min(seen.values()) > 100, seen


def replays(order, ops, spec):
    """``order`` places every complete op of ``ops`` and any of its open
    writes once each, the spec accepts it, and it respects real time."""
    assert len({id(o) for o in order}) == len(order)
    assert {id(o) for o in ops if o.complete} <= {id(o) for o in order} <= {id(o) for o in ops}
    state = spec.init
    for op in order:
        state = spec.step(state, op)
        if state is None:
            return False
    return _real_time_violation(order) is None


def test_one_walk_agrees_with_the_open_write_subset_loop():
    """Open writes as optional ops in one walk decide every history the
    way one walk per subset of them did, and every order it returns is a
    linearization."""
    rng = random.Random("one-walk-vs-subsets")
    cases = []
    for _ in range(800):
        cases.extend(zip(searchable_histories(rng), (checker._REGISTER, checker._DIRECTORY)))
    for _ in range(800):
        cases.append((random_history(rng, max_ops=8), checker._REGISTER))
        cases.append((on_two_values(random_history(rng, max_ops=8)), checker._REGISTER))
    seen = Counter()
    for ops, spec in cases:
        if spec is checker._REGISTER:
            ops = [o for o in ops if o.complete or o.kind == "WRITE"]
        order, out_of_budget = checker._search(ops, spec)
        expected, _ = ref_subset_search(ops, spec, checker.NODE_BUDGET)
        assert not out_of_budget
        assert (order is None) == (expected is None), [o.render() for o in ops]
        if order is not None:
            assert replays(order, ops, spec), [o.render() for o in ops]
            seen["open write placed"] += any(not o.complete for o in order)
            seen["open write dropped"] += len(order) < len(ops)
        seen["found" if order is not None else "none"] += 1
    assert min(seen.values()) > 100, seen


def test_a_long_sequential_history_is_decided_exactly(monkeypatch):
    """1,500 sequential ops, one read's timestamp lowered by 2 so the
    witness fails while the value read stays right. The history is
    linearizable, and the walk, which keeps its own stack, visits one
    node per op on the way to proving it."""
    hist = []
    t = 0
    for i in range(1, 751):
        val = b"ab"[i % 2:i % 2 + 1]
        hist.append(W(2 * i - 1, "w1", val, t, t + 5, i, 1))
        hist.append(R(2 * i, "r1", val, t + 10, t + 15, i, 1))
        t += 20
    read = hist[751]
    read.ts = read.md_ts = Timestamp(read.ts.num - 2, read.ts.cid)
    assert len(hist) == 1500
    monkeypatch.setattr(checker, "NODE_BUDGET", len(hist))
    res = check_register_linearizable(hist)
    assert res.passed, res.detail
    assert res.detail.startswith("witness failed (witness places op")
    assert res.detail.endswith("; exhaustive fallback passed")
    assert res.witness == list(range(1, 1501))
    assert check_register_exhaustive(hist).passed
