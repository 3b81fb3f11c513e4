"""Post-hoc verification of run results.

One exhaustive search serves both linearizability checks: `_search`, a
Wing-Gong/Lowe depth-first search over orderings of a history that takes
a sequential spec `step(state, op) -> state | None`, tries each subset of
the open writes (an open write may or may not have taken effect), prunes
by real-time order and memoizes on the placed set and the spec state.
There are two specs: `_register_step` for the register and
`_directory_step` for the directory, whose write rule is
`mds_oracle.TimestampedStore.after_write`.

Histories of at most SMALL_LIMIT ops go straight to the search. Larger
ones first try a timestamp witness. For the register: BOTTOM-returning
reads go first, writes follow in timestamp order, and each accepted read
sits right after the write whose timestamp it carries, ties in trace
order. A witness order that replays correctly and respects real-time
proves linearizability outright. When the witness fails, the checker
never trusts it: it extracts a small candidate subset, re-validates that
subset with the search, and falls back to a full search when the subset
does not confirm and the history has at most FALLBACK_CAP ops. A
negative verdict therefore always carries a counterexample that
independently re-validates. The directory sub-history gets the same
treatment, and its witness is replayed through `_directory_step`. Lemma
monitors re-check the protocol's structural invariants (directory
monotonicity, the read-timestamp sandwich, the real-time/timestamp
partial order, unique write timestamps, and value integrity under
collision resistance) directly from annotations.

Real-time and precedence checks certify fast and explain exactly. Op a
precedes op b in real time when a.response < b.invoke, strictly: an op
that responds at the step another is invoked at is concurrent with it.
To certify, `_max_ts_before` sorts complete ops by response and keeps a
running max of timestamps, so one bisect on an invoke step gives the
largest timestamp of any op that preceded it; `_respects_real_time`
checks a witness order with one reverse scan. Both are O(n log n) at
most. Only when one of them finds a violation does the original
pairwise scan run, to name the violating pairs, so counterexamples,
failure counts and detail strings are what the pairwise scans alone
would give, and the quadratic work is spent only on failing histories.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, Iterable, Sequence

from .history import DirOpRecord, OpRecord
from .mds_oracle import TimestampedStore
from .types import HarnessError, Timestamp, TS_INIT

SMALL_LIMIT = 8  # histories this small skip the witness
FALLBACK_CAP = 14  # largest history searched after its witness fails
NODE_BUDGET = 500_000  # search nodes per check, over all open-write subsets

# Compares below every Timestamp.key(): the prefix max of an empty set.
_BELOW_EVERY_TS = (float("-inf"),)


@dataclass
class CheckResult:
    name: str
    passed: bool | None  # None = not applicable in this mode
    detail: str = ""
    # register op ids, directory ops as [proc, tag], or (lemmas) lists of either
    counterexample: list | None = None
    witness: list[int] | None = None

    def render(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "counterexample": self.counterexample,
            "witness": self.witness,
        }


@dataclass
class Verdict:
    results: dict[str, CheckResult] = field(default_factory=dict)

    def add(self, result: CheckResult) -> None:
        self.results[result.name] = result

    @property
    def ok(self) -> bool:
        return all(r.passed is not False for r in self.results.values())

    def failed(self) -> list[str]:
        return [name for name, r in sorted(self.results.items()) if r.passed is False]

    def render(self) -> dict:
        return {name: r.render() for name, r in sorted(self.results.items())}


def _well_formed(ops: Sequence[OpRecord]) -> None:
    by_client: dict[str, list[OpRecord]] = {}
    for op in ops:
        by_client.setdefault(op.client, []).append(op)
    for client, group in by_client.items():
        group = sorted(group, key=lambda o: o.invoke)
        for prev, cur in zip(group, group[1:]):
            if prev.response is None or prev.response >= cur.invoke:
                raise HarnessError(
                    f"history not sequential per client: {client} "
                    f"op {prev.op_id} overlaps op {cur.op_id}"
                )


# -- one linearizability search over a sequential spec -----------------------


def _search(
    complete: list,
    open_writes: list,
    step: Callable[[Any, Any], Any],
    init: Any,
    order_key: Callable[[Any], Any],
) -> tuple[list | None, bool]:
    """Wing-Gong/Lowe search for a linearization of ``complete`` plus each
    subset of ``open_writes`` (an open write may or may not have taken
    effect). ``step(state, op)`` is the sequential spec: the next state, or
    None when ``op`` cannot run in ``state``. Each subset's ops are tried
    in ``order_key`` order, an op only when no unplaced op responded
    before it was invoked, and the walk is memoized on the placed set and
    the spec state. All subsets share one budget of NODE_BUDGET nodes.

    Returns the accepted order (or None) and whether the budget ran out."""
    left = NODE_BUDGET
    for mask in range(1 << len(open_writes)):
        included = [w for i, w in enumerate(open_writes) if mask >> i & 1]
        ops = sorted(complete + included, key=order_key)
        resp = [o.response if o.response is not None else float("inf") for o in ops]
        seen: set[tuple[int, Any]] = set()

        def walk(placed: int, state: Any, path: list) -> list | None:
            nonlocal left
            if len(path) == len(ops):
                return path
            left -= 1
            if left < 0:
                return None
            if (placed, state) in seen:
                return None
            seen.add((placed, state))
            for i, op in enumerate(ops):
                if placed >> i & 1:
                    continue
                if any(
                    resp[j] < op.invoke
                    for j in range(len(ops))
                    if j != i and not placed >> j & 1
                ):
                    continue
                after = step(state, op)
                if after is None:
                    continue
                found = walk(placed | 1 << i, after, path + [op])
                if found is not None:
                    return found
            return None

        order = walk(0, init, [])
        if order is not None:
            return order, False
        if left < 0:
            return None, True
    return None, False


def _register_step(state: tuple, op: OpRecord) -> tuple | None:
    """Register spec. The state is a 1-tuple ``(value,)``, so BOTTOM
    (None) is a value and None means "rejected"."""
    if op.kind == "READ":
        return state if op.ret == state[0] else None
    return (op.arg,)


def check_register_exhaustive(ops: Sequence[OpRecord]) -> CheckResult:
    """Ground-truth linearizability over all completions and permutations."""
    _well_formed(ops)
    complete = [o for o in ops if o.complete]
    open_writes = [o for o in ops if not o.complete and o.kind == "WRITE"]
    order, out_of_budget = _search(
        complete, open_writes, _register_step, (None,), lambda o: (o.invoke, o.op_id)
    )
    if order is not None:
        return CheckResult(
            "linearizable", True, detail="exhaustive", witness=[o.op_id for o in order]
        )
    if out_of_budget:
        return CheckResult(
            "linearizable", False,
            detail="exhaustive search exceeded its node budget",
            counterexample=sorted(o.op_id for o in ops),
        )
    return CheckResult(
        "linearizable", False, detail="exhaustive: no valid permutation",
        counterexample=sorted(o.op_id for o in complete + open_writes),
    )


# -- real-time precedence ------------------------------------------------------


def _respects_real_time(order: Sequence[Any]) -> bool:
    """True when no op in ``order`` responded strictly before an op placed
    ahead of it was invoked. One reverse scan keeps the earliest response
    among the ops placed after the current one."""
    earliest_later = float("inf")
    for op in reversed(order):
        if earliest_later < op.invoke:
            return False
        if op.response is not None and op.response < earliest_later:
            earliest_later = op.response
    return True


def _real_time_violation(order: Sequence[Any]) -> tuple[Any, Any] | None:
    """The first pair (a, b), in position order, where ``a`` responded
    strictly before ``b`` was invoked yet is placed after it, or None.
    The pairwise scan that names the pair runs only once the linear
    check has found that one exists."""
    if _respects_real_time(order):
        return None
    for i, a in enumerate(order):
        if a.response is None:
            continue
        for b in order[:i]:
            if a.response < b.invoke:
                return a, b
    return None


def _max_ts_before(ops: Iterable[Any]) -> Callable[[int], tuple]:
    """Index the complete ``ops`` for precedence queries: the returned
    function maps a step ``s`` to the largest ``ts.key()`` of any op whose
    response is strictly before ``s`` (real-time precedence is strict, so
    an op that responds at the step another is invoked does not precede
    it), or to ``_BELOW_EVERY_TS`` when none did."""
    done = sorted((o for o in ops if o.response is not None), key=lambda o: o.response)
    responses = [o.response for o in done]
    prefix_max = [_BELOW_EVERY_TS] + list(accumulate((o.ts.key() for o in done), max))

    def query(step: int) -> tuple:
        return prefix_max[bisect_left(responses, step)]

    return query


# -- timestamp witness ------------------------------------------------------


@dataclass
class _WitnessOutcome:
    order: list[OpRecord] | None = None
    reason: str = ""
    suspects: list[OpRecord] | None = None


def _build_witness(ops: Sequence[OpRecord]) -> _WitnessOutcome:
    complete = [o for o in ops if o.complete]
    bot_reads = [o for o in complete if o.kind == "READ" and o.ret is None]
    val_reads = [o for o in complete if o.kind == "READ" and o.ret is not None]
    writes = [o for o in ops if o.kind == "WRITE"]

    for read in val_reads:
        if read.ts is None:
            return _WitnessOutcome(reason=f"read {read.op_id} lacks a timestamp annotation")
    writes_by_ts: dict[Timestamp, OpRecord] = {}
    for write in writes:
        if write.ts is None:
            if write.complete:
                return _WitnessOutcome(
                    reason=f"write {write.op_id} lacks a timestamp annotation"
                )
            continue  # never got a timestamp: unreadable, drop
        if write.ts in writes_by_ts:
            return _WitnessOutcome(
                reason=f"duplicate write timestamp {write.ts.render()}",
                suspects=[writes_by_ts[write.ts], write],
            )
        writes_by_ts[write.ts] = write

    included: dict[int, OpRecord] = {
        w.op_id: w for w in writes if w.complete and w.ts is not None
    }
    for read in val_reads:
        write = writes_by_ts.get(read.ts)
        if write is None:
            suspects = [read] + [w for w in writes if w.arg == read.ret and w.ts is not None]
            return _WitnessOutcome(
                reason=f"read {read.op_id} returned an unmatched timestamp",
                suspects=suspects,
            )
        if write.arg != read.ret:
            return _WitnessOutcome(
                reason=f"read {read.op_id} disagrees with write {write.op_id} on the value",
                suspects=[read, write],
            )
        included.setdefault(write.op_id, write)  # an open write that took effect

    # BOTTOM reads first, then each write right before the reads that
    # carry its timestamp; ties in trace order.
    def position(o: OpRecord) -> tuple:
        ts_key = _BELOW_EVERY_TS if o.kind == "READ" and o.ret is None else o.ts.key()
        return ts_key, o.kind == "READ", o.invoke, o.op_id

    order = sorted(bot_reads + val_reads + list(included.values()), key=position)
    return _WitnessOutcome(order=order)


def check_register_linearizable(
    ops: Sequence[OpRecord], small_limit: int = SMALL_LIMIT
) -> CheckResult:
    """Production pipeline: exhaustive when small, witness-first when not."""
    _well_formed(ops)
    checkable = [o for o in ops if o.complete or o.kind == "WRITE"]
    if len(checkable) <= small_limit:
        return check_register_exhaustive(ops)

    outcome = _build_witness(ops)
    if outcome.order is not None:
        violation = _real_time_violation(outcome.order)
        if violation is None:
            return CheckResult(
                "linearizable", True, detail="timestamp witness",
                witness=[o.op_id for o in outcome.order],
            )
        outcome.reason = (
            f"witness places op {violation[1].op_id} before op {violation[0].op_id} "
            "against real-time order"
        )
        outcome.suspects = _expand_suspects(ops, violation)

    # The witness failed; distrust it and confirm independently.
    if outcome.suspects:
        # Whole operations only, so the sub-history stays per-client sequential.
        picked = {o.op_id for o in outcome.suspects}
        subset = [o for o in ops if o.op_id in picked]
        if len(subset) <= small_limit:
            confirm = check_register_exhaustive(subset)
            if confirm.passed is False:
                return CheckResult(
                    "linearizable", False,
                    detail=f"{outcome.reason}; counterexample re-validated exhaustively",
                    counterexample=sorted(o.op_id for o in subset),
                )
    if len(checkable) <= FALLBACK_CAP:
        result = check_register_exhaustive(ops)
        if result.passed:
            result.detail = f"witness failed ({outcome.reason}); exhaustive fallback passed"
        return result
    return CheckResult(
        "linearizable", False,
        detail=f"{outcome.reason}; history too large to re-validate",
        counterexample=sorted(o.op_id for o in (outcome.suspects or ops)),
    )


def _expand_suspects(
    ops: Sequence[OpRecord], violation: tuple[OpRecord, OpRecord]
) -> list[OpRecord]:
    a, b = violation
    suspects = {a.op_id: a, b.op_id: b}
    for op in (a, b):
        if op.kind == "READ" and op.ts is not None:
            for w in ops:
                if w.kind == "WRITE" and w.ts == op.ts:
                    suspects[w.op_id] = w
    return list(suspects.values())


# -- directory (timestamped store) checking ----------------------------------

_DIR_INIT = (TS_INIT, None)


def _dir_name(op: DirOpRecord) -> list:
    """How counterexamples name a directory op: tags count per process,
    so a tag alone is ambiguous."""
    return [op.proc, op.tag]


def _directory_step(state: tuple, op: DirOpRecord) -> tuple | None:
    """Directory spec over (ts, md) states: `TimestampedStore`'s write
    rule, and a tsread must return the state exactly."""
    if op.op == "tsread":
        return state if (op.ts, op.md) == state else None
    return TimestampedStore.after_write(state, op.ts, op.md)


def _insert_superseded(
    order: list[DirOpRecord], noop_writes: Sequence[DirOpRecord]
) -> list[DirOpRecord]:
    """Insert each superseded write, in (invoke, proc) order, right after
    the last op already placed that responded strictly before the write
    was invoked, or at the front when none did.

    The writes go into gaps: the gap after entry i of ``order`` holds the
    writes whose last earlier-responding entry is i. Invokes only grow, so
    that index only grows too, and one walk over the entries sorted by
    response finds it. A write placed in a lower gap lies before that
    entry and cannot be the last op to respond first, so each insert scans
    only its own gap."""
    by_response = sorted(
        (i for i, op in enumerate(order) if op.response is not None),
        key=lambda i: order[i].response,
    )
    gaps: dict[int, list[DirOpRecord]] = {}  # entry index -> writes after it
    last = -1
    k = 0
    for noop in sorted(noop_writes, key=lambda o: (o.invoke, o.proc)):
        while k < len(by_response) and order[by_response[k]].response < noop.invoke:
            last = max(last, by_response[k])
            k += 1
        gap = gaps.setdefault(last, [])
        slot = 0
        for i, placed in enumerate(gap):
            if placed.response < noop.invoke:
                slot = i + 1
        gap.insert(slot, noop)
    merged = list(gaps.get(-1, ()))
    for i, op in enumerate(order):
        merged.append(op)
        merged.extend(gaps.get(i, ()))
    return merged


def check_directory_linearizable(
    dir_ops: Sequence[DirOpRecord], small_limit: int = SMALL_LIMIT
) -> CheckResult:
    """Linearizability of the directory sub-history against timestamped-
    store semantics. Digest-array operations are not part of this check."""
    ops = [o for o in dir_ops if o.op in ("tsread", "tswrite")]
    complete = [o for o in ops if o.complete]
    open_writes = [o for o in ops if not o.complete and o.op == "tswrite"]
    size = len(complete) + len(open_writes)

    def exhaustive() -> CheckResult:
        order, out_of_budget = _search(
            complete, open_writes, _directory_step, _DIR_INIT, lambda o: o.invoke
        )
        if order is not None:
            return CheckResult("directory-linearizable", True, detail="exhaustive")
        if out_of_budget:
            return CheckResult(
                "directory-linearizable", False,
                detail="exhaustive search exceeded its node budget",
            )
        return CheckResult(
            "directory-linearizable", False,
            detail="exhaustive: no valid permutation",
            counterexample=sorted(_dir_name(o) for o in complete + open_writes),
        )

    if size <= small_limit:
        return exhaustive()

    # Witness: writes in timestamp order, each read right after the write
    # whose (ts, payload) it observed; initial-state reads first. A write
    # that was already superseded when it was invoked (some completed op
    # had observed a larger timestamp) can never take effect, so it is
    # inserted separately at its earliest real-time-consistent slot
    # instead of at its timestamp position.
    entries = []
    noop_writes = []
    max_ts_before = _max_ts_before(complete)
    for op in complete:
        if op.op == "tswrite":
            if max_ts_before(op.invoke) > op.ts.key():  # superseded
                noop_writes.append(op)
            else:
                entries.append(((op.ts.key(), 0, op.invoke), op))
        else:
            entries.append(((op.ts.key(), 1, op.invoke), op))
    if open_writes:
        read_backed = {(o.ts, o.md) for o in complete if o.op == "tsread"}
        for op in open_writes:
            if (op.ts, op.md) in read_backed:
                entries.append(((op.ts.key(), 0, op.invoke), op))
    entries.sort(key=lambda e: e[0])
    order = _insert_superseded([op for _, op in entries], noop_writes)

    state = _DIR_INIT
    for op in order:
        state = _directory_step(state, op)
        if state is None:
            if size <= FALLBACK_CAP:
                return exhaustive()
            return CheckResult(
                "directory-linearizable", False,
                detail=f"witness replay mismatch at directory read {op.proc} tag {op.tag}",
                counterexample=[_dir_name(op)],
            )
    violation = _real_time_violation(order)
    if violation is None:
        return CheckResult("directory-linearizable", True, detail="timestamp witness")
    if size <= FALLBACK_CAP:
        return exhaustive()
    return CheckResult(
        "directory-linearizable", False,
        detail="witness violates real-time order; history too large to re-validate",
        counterexample=[_dir_name(violation[0]), _dir_name(violation[1])],
    )


# -- wait-freedom -------------------------------------------------------------


def check_wait_freedom(
    history: Sequence[OpRecord],
    crashed: set[str],
    budget: int,
    quiescent: bool,
) -> CheckResult:
    late: list[int] = []
    blocked: list[int] = []
    for op in history:
        if op.client in crashed:
            continue
        if not op.complete:
            blocked.append(op.op_id)
        elif op.response - op.invoke > budget:
            late.append(op.op_id)
    if not late and not blocked:
        return CheckResult("wait-free", True, detail=f"all operations within {budget} steps")
    reason = []
    if blocked:
        state = "blocked at quiescence" if quiescent else "incomplete at the step cap"
        reason.append(f"{len(blocked)} operation(s) {state}")
    if late:
        reason.append(f"{len(late)} operation(s) over the {budget}-step budget")
    return CheckResult(
        "wait-free", False, detail="; ".join(reason), counterexample=blocked + late
    )


# -- lemma monitors -----------------------------------------------------------


def _lemma(name: str, failures: list, detail_ok: str) -> CheckResult:
    if failures:
        return CheckResult(name, False, detail=f"{len(failures)} violation(s)",
                           counterexample=failures[:16])
    return CheckResult(name, True, detail=detail_ok)


def lemma_directory_monotone(dir_ops: Sequence[DirOpRecord]) -> CheckResult:
    """A directory read that starts after another directory operation
    completed never returns a smaller timestamp."""
    ops = [o for o in dir_ops if o.op in ("tsread", "tswrite") and o.complete]
    max_ts_before = _max_ts_before(ops)
    failures = []
    if any(b.op == "tsread" and max_ts_before(b.invoke) > b.ts.key() for b in ops):
        for a in ops:
            for b in ops:
                if b.op != "tsread" or a.response >= b.invoke:
                    continue
                if b.ts < a.ts:
                    failures.append([_dir_name(a), _dir_name(b)])
    return _lemma("directory-monotone", failures, f"{len(ops)} directory ops checked")


def lemma_read_sandwich(history: Sequence[OpRecord]) -> CheckResult:
    """An accepted read's timestamp sits between the directory record it
    started from and the one that revalidated it."""
    failures = []
    for op in history:
        if op.kind != "READ" or not op.complete or op.ret is None:
            continue
        if op.ts is None or op.md_ts is None:
            failures.append([op.op_id])
        elif op.md2_ts is None:
            if op.ts != op.md_ts:
                failures.append([op.op_id])
        elif not (op.md_ts < op.ts <= op.md2_ts):
            failures.append([op.op_id])
    return _lemma("read-sandwich", failures, "all accepted reads bracketed")


def lemma_timestamp_order(history: Sequence[OpRecord]) -> CheckResult:
    """Real-time precedence never decreases operation timestamps, and a
    later write's timestamp strictly grows."""
    annotated = [o for o in history if o.complete and o.ts is not None]
    max_ts_before = _max_ts_before(annotated)

    def overtaken(b: OpRecord) -> bool:
        before = max_ts_before(b.invoke)
        return before >= b.ts.key() if b.kind == "WRITE" else before > b.ts.key()

    failures = []
    if any(overtaken(b) for b in annotated):
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


def lemma_unique_write_timestamps(history: Sequence[OpRecord]) -> CheckResult:
    seen: dict[Timestamp, int] = {}
    failures = []
    for op in history:
        if op.kind != "WRITE" or op.ts is None:
            continue
        if op.ts in seen:
            failures.append([seen[op.ts], op.op_id])
        else:
            seen[op.ts] = op.op_id
    return _lemma("unique-write-timestamps", failures, f"{len(seen)} write timestamps")


def lemma_value_integrity(
    history: Sequence[OpRecord],
    client_ids: dict[str, int],
    collision_resistant: bool,
) -> CheckResult:
    """Under a collision-resistant digest, every accepted read returns the
    value written by the unique write carrying the read's timestamp."""
    if not collision_resistant:
        return CheckResult(
            "value-integrity", None,
            detail="skipped: digests are forgeable in this mode",
        )
    writes_by_ts = {
        op.ts: op for op in history if op.kind == "WRITE" and op.ts is not None
    }
    failures = []
    for op in history:
        if op.kind != "READ" or not op.complete or op.ret is None:
            continue
        write = writes_by_ts.get(op.ts)
        if write is None or write.arg != op.ret:
            failures.append([op.op_id] + ([write.op_id] if write else []))
        elif op.ts.cid != client_ids.get(write.client):
            failures.append([op.op_id, write.op_id])
    return _lemma("value-integrity", failures, "all accepted reads matched their writes")


# -- top level ----------------------------------------------------------------


def check_run(result: Any) -> Verdict:
    """Full verdict over one RunResult."""
    verdict = Verdict()
    verdict.add(check_register_linearizable(result.history))
    verdict.add(check_directory_linearizable(result.dir_ops))
    verdict.add(
        check_wait_freedom(
            result.history, result.crashed, result.config.budget, result.quiescent
        )
    )
    verdict.add(lemma_directory_monotone(result.dir_ops))
    verdict.add(lemma_read_sandwich(result.history))
    verdict.add(lemma_timestamp_order(result.history))
    verdict.add(lemma_unique_write_timestamps(result.history))
    verdict.add(
        lemma_value_integrity(
            result.history,
            result.config.client_ids(),
            result.config.hash_mode.value != "forgeable",
        )
    )
    return verdict


# -- randomized self-validation ------------------------------------------------


def random_history(rng: random.Random, max_ops: int = 6) -> list[OpRecord]:
    """Small register histories with protocol-shaped annotations, plus a
    sprinkling of corrupted ones, for witness/exhaustive agreement runs."""
    n = rng.randint(1, max_ops)
    clients = [f"c{i}" for i in range(1, rng.randint(2, 4) + 1)]
    clock = {c: 0 for c in clients}
    exhausted: set[str] = set()
    ops: list[OpRecord] = []
    writes: list[OpRecord] = []
    ts_num = 0
    for op_id in range(1, n + 1):
        available = [c for c in clients if c not in exhausted]
        if not available:
            break
        client = rng.choice(available)
        invoke = clock[client] + rng.randint(1, 4)
        open_op = rng.random() < 0.15
        response = None if open_op else invoke + rng.randint(1, 8)
        if open_op:
            exhausted.add(client)
        else:
            clock[client] = response
        if rng.random() < 0.5:
            ts_num += 1
            ts = Timestamp(ts_num, int(client[1:]))
            if rng.random() < 0.08:
                ts = Timestamp(rng.randint(1, 3), int(client[1:]))  # possible duplicate
            op = OpRecord(
                op_id=op_id, client=client, kind="WRITE",
                arg=bytes([96 + ts_num]), invoke=invoke, response=response,
                ret="OK" if response is not None else None, ts=ts,
            )
            writes.append(op)
        else:
            if not writes or rng.random() < 0.3:
                op = OpRecord(
                    op_id=op_id, client=client, kind="READ", arg=None,
                    invoke=invoke, response=response, ret=None, ts=TS_INIT,
                )
            else:
                src = rng.choice(writes)
                ret: bytes | None = src.arg
                ts = src.ts
                if rng.random() < 0.12:
                    ret = b"z"  # corrupted value
                if rng.random() < 0.08:
                    ts = Timestamp(ts.num + 7, ts.cid)  # fabricated timestamp
                if response is None:
                    ret = None
                op = OpRecord(
                    op_id=op_id, client=client, kind="READ", arg=None,
                    invoke=invoke, response=response,
                    ret=ret if response is not None else None, ts=ts,
                )
        ops.append(op)
    return ops
