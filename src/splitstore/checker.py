"""Post-hoc verification of run results.

Register histories are checked for linearizability two ways. Small
histories go straight to an exhaustive search over permutations
(memoized on the placed-set and register value, so it prunes hard).
Larger histories first try a timestamp witness: BOTTOM-returning reads
go first, writes follow in timestamp order, and each accepted read sits
right after the write whose timestamp it carries, ties in trace order.
A witness order that replays correctly and respects real-time proves
linearizability outright. When the witness fails, the checker never
trusts it: it extracts a small candidate subset, re-validates that
subset with the exhaustive engine, and falls back to a full exhaustive
pass when the subset does not confirm. A negative verdict therefore
always carries a counterexample that independently re-validates.

The directory sub-history gets the same treatment against timestamped-
store semantics. Lemma monitors re-check the protocol's structural
invariants (directory monotonicity, the read-timestamp sandwich, the
real-time/timestamp partial order, unique write timestamps, and value
integrity under collision resistance) directly from annotations.

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
from .types import HarnessError, Timestamp, TS_INIT

SMALL_LIMIT = 8
FALLBACK_CAP = 14
NODE_BUDGET = 500_000

# Compares below every Timestamp.key(): the prefix max of an empty set.
_BELOW_EVERY_TS = (float("-inf"),)


@dataclass
class CheckResult:
    name: str
    passed: bool | None  # None = not applicable in this mode
    detail: str = ""
    counterexample: list[int] | None = None  # op ids
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


# -- exhaustive register search ----------------------------------------------


def _subsets(items: Sequence) -> Iterable[tuple]:
    n = len(items)
    for mask in range(1 << n):
        yield tuple(items[i] for i in range(n) if mask >> i & 1)


class _SearchBudget:
    def __init__(self, nodes: int):
        self.left = nodes

    def spend(self) -> bool:
        self.left -= 1
        return self.left >= 0


def _search_register(ops: list[OpRecord], budget: _SearchBudget) -> list[int] | None:
    """One exhaustive search attempt over a fixed op set (no open ops)."""
    resp = {
        o.op_id: (o.response if o.response is not None else float("inf")) for o in ops
    }
    by_id = {o.op_id: o for o in ops}
    order = sorted(by_id, key=lambda i: (by_id[i].invoke, i))
    seen: set[tuple[frozenset, Any]] = set()

    def walk(placed: frozenset, value: bytes | None, path: list[int]) -> list[int] | None:
        if len(path) == len(order):
            return list(path)
        if not budget.spend():
            return None
        key = (placed, value)
        if key in seen:
            return None
        seen.add(key)
        for op_id in order:
            if op_id in placed:
                continue
            op = by_id[op_id]
            if any(
                resp[other] < op.invoke
                for other in order
                if other not in placed and other != op_id
            ):
                continue
            if op.kind == "READ":
                if op.ret != value:
                    continue
                found = walk(placed | {op_id}, value, path + [op_id])
            else:
                found = walk(placed | {op_id}, op.arg, path + [op_id])
            if found:
                return found
        return None

    return walk(frozenset(), None, [])


def check_register_exhaustive(
    ops: Sequence[OpRecord], node_budget: int = NODE_BUDGET
) -> CheckResult:
    """Ground-truth linearizability over all completions and permutations."""
    _well_formed(ops)
    complete = [o for o in ops if o.complete]
    open_writes = [o for o in ops if not o.complete and o.kind == "WRITE"]
    budget = _SearchBudget(node_budget)
    for included in _subsets(open_writes):
        witness = _search_register(complete + list(included), budget)
        if witness is not None:
            return CheckResult("linearizable", True, detail="exhaustive", witness=witness)
        if budget.left < 0:
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
    reads_for: dict[int, list[OpRecord]] = {w.op_id: [] for w in included.values()}
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
        if write.op_id not in included:
            included[write.op_id] = write  # open write that took effect
            reads_for[write.op_id] = []
        reads_for[write.op_id].append(read)

    order = sorted(bot_reads, key=lambda o: (o.invoke, o.op_id))
    for write in sorted(included.values(), key=lambda w: w.ts.key()):
        order.append(write)
        order.extend(sorted(reads_for[write.op_id], key=lambda o: (o.invoke, o.op_id)))
    return _WitnessOutcome(order=order)


def check_register_linearizable(
    ops: Sequence[OpRecord],
    small_limit: int = SMALL_LIMIT,
    fallback_cap: int = FALLBACK_CAP,
    node_budget: int = NODE_BUDGET,
) -> CheckResult:
    """Production pipeline: exhaustive when small, witness-first when not."""
    _well_formed(ops)
    checkable = [o for o in ops if o.complete or o.kind == "WRITE"]
    if len(checkable) <= small_limit:
        return check_register_exhaustive(ops, node_budget)

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
        subset = _close_over_clients(ops, outcome.suspects)
        if len(subset) <= small_limit:
            confirm = check_register_exhaustive(subset, node_budget)
            if confirm.passed is False:
                return CheckResult(
                    "linearizable", False,
                    detail=f"{outcome.reason}; counterexample re-validated exhaustively",
                    counterexample=sorted(o.op_id for o in subset),
                )
    if len(checkable) <= fallback_cap:
        result = check_register_exhaustive(ops, node_budget)
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


def _close_over_clients(
    ops: Sequence[OpRecord], subset: Iterable[OpRecord]
) -> list[OpRecord]:
    """Sub-histories must stay per-client sequential; completing the subset
    with nothing keeps it so because we only ever pick whole operations."""
    picked = {o.op_id for o in subset}
    return [o for o in ops if o.op_id in picked]


# -- directory (timestamped store) checking ----------------------------------


def _dir_value_token(md: Any) -> str:
    return "none" if md is None else repr(md)


def _search_directory(dir_ops: list[DirOpRecord], budget: _SearchBudget) -> list[int] | None:
    resp = {
        id(o): (o.response if o.response is not None else float("inf")) for o in dir_ops
    }
    order = sorted(range(len(dir_ops)), key=lambda i: (dir_ops[i].invoke, i))
    seen: set[tuple[frozenset, Timestamp, str]] = set()

    def walk(placed: frozenset, ts: Timestamp, md: Any, path: list[int]) -> list[int] | None:
        if len(path) == len(order):
            return list(path)
        if not budget.spend():
            return None
        key = (placed, ts, _dir_value_token(md))
        if key in seen:
            return None
        seen.add(key)
        for idx in order:
            if idx in placed:
                continue
            op = dir_ops[idx]
            if any(
                resp[id(dir_ops[j])] < op.invoke
                for j in order
                if j not in placed and j != idx
            ):
                continue
            if op.op == "tsread":
                if op.ts != ts or op.md != md:
                    continue
                found = walk(placed | {idx}, ts, md, path + [idx])
            else:
                nts, nmd = (op.ts, op.md) if op.ts >= ts else (ts, md)
                found = walk(placed | {idx}, nts, nmd, path + [idx])
            if found:
                return found
        return None

    return walk(frozenset(), TS_INIT, None, [])


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
    dir_ops: Sequence[DirOpRecord],
    small_limit: int = SMALL_LIMIT,
    fallback_cap: int = FALLBACK_CAP,
    node_budget: int = NODE_BUDGET,
) -> CheckResult:
    """Linearizability of the directory sub-history against timestamped-
    store semantics. Digest-array operations are not part of this check."""
    ops = [o for o in dir_ops if o.op in ("tsread", "tswrite")]
    complete = [o for o in ops if o.complete]
    open_writes = [o for o in ops if not o.complete and o.op == "tswrite"]

    def exhaustive() -> CheckResult:
        budget = _SearchBudget(node_budget)
        for included in _subsets(open_writes):
            witness = _search_directory(complete + list(included), budget)
            if witness is not None:
                return CheckResult("directory-linearizable", True, detail="exhaustive")
            if budget.left < 0:
                return CheckResult(
                    "directory-linearizable", False,
                    detail="exhaustive search exceeded its node budget",
                )
        return CheckResult(
            "directory-linearizable", False,
            detail="exhaustive: no valid permutation",
            counterexample=sorted(
                {o.tag for o in complete + open_writes if o.tag is not None}
            ),
        )

    if len(complete) + len(open_writes) <= small_limit:
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
        read_backed = {(o.ts, _dir_value_token(o.md)) for o in complete if o.op == "tsread"}
        for op in open_writes:
            if (op.ts, _dir_value_token(op.md)) in read_backed:
                entries.append(((op.ts.key(), 0, op.invoke), op))
    entries.sort(key=lambda e: e[0])
    order = _insert_superseded([op for _, op in entries], noop_writes)

    ts, md = TS_INIT, None
    for op in order:
        if op.op == "tswrite":
            if op.ts >= ts:
                ts, md = op.ts, op.md
        elif op.ts != ts or op.md != md:
            if len(complete) + len(open_writes) <= fallback_cap:
                return exhaustive()
            return CheckResult(
                "directory-linearizable", False,
                detail=f"witness replay mismatch at directory read tag {op.tag}",
                counterexample=[op.tag],
            )
    violation = _real_time_violation(order)
    if violation is None:
        return CheckResult("directory-linearizable", True, detail="timestamp witness")
    if len(complete) + len(open_writes) <= fallback_cap:
        return exhaustive()
    return CheckResult(
        "directory-linearizable", False,
        detail="witness violates real-time order; history too large to re-validate",
        counterexample=[violation[0].tag, violation[1].tag],
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
                    failures.append([a.tag, b.tag])
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
