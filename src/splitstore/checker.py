"""Post-hoc verification of run results.

Both linearizability checks run one pipeline, `_linearize`, over a
`_Spec`: a sequential spec `step(state, op) -> state | None` (the
register's `_register_step`, or `_directory_step`, whose write rule is
`mds_oracle.TimestampedStore.after_write`), how to read and name an op,
and a timestamp witness. `_search` is the one exhaustive search, a
Wing-Gong/Lowe depth-first walk over orderings in which an open write
is optional (it may or may not have taken effect): the walk is done once
every complete op is placed. It prunes by real-time order, memoizes on
the placed set and spec state, and keeps its own stack, so it runs on a
history of any length. Two constants bound the checker: SMALL_LIMIT and
the search's NODE_BUDGET.

1. A history of at most `small_limit` ops is searched whole.
2. Otherwise a witness order that replays through the spec and respects
   real-time order proves linearizability outright. The directory's
   witness leaves out the writes a completed op had already superseded
   when they were invoked: each is a no-op at a slot real-time order
   always leaves for it (see `_directory_witness`).
3. A failed witness is never trusted. Its suspects are the pair that
   breaks real-time order; or the read the replay rejects, the write that
   set the state it met and, for each write of the read's value, the
   complete op of largest timestamp that responded before that write was
   invoked (what superseded it); or the witness builder's own.
4. The suspects are closed: every complete read brings in every write
   whose value equals its return, unless the read responded before that
   write was invoked. A closed subset that the search rejects, whatever
   its size, is a re-validated counterexample.
5. Otherwise the whole history is searched, and its verdict is the
   check's. Only NODE_BUDGET bounds either search; a search that runs
   out of it fails the check.

The closure is sound. Restrict any linearization S of the whole history
to a closed subset X: real-time order carries over, and each open write
in X keeps S's choice of taking effect. For the register, a read's last
preceding write in S carries its value and was invoked before the read
responded, so it is in X and is still the read's last preceding write.
For the directory (a write takes effect when its timestamp is at least
the stored one), a read returns what the last-applied write of the
largest timestamp before it in S wrote; that write is in X, and among
X's writes before the read it still has the largest timestamp and is
the last of them applied. A read with no write before it in S has none
in X either. So S restricted to X linearizes X, and a closed subset
with no linearization proves the whole history has none.

Lemma monitors re-check the protocol's structural invariants (directory
monotonicity, the read-timestamp sandwich, the real-time/timestamp
partial order, unique write timestamps, and value integrity under
collision resistance) directly from annotations.

Real-time and precedence checks certify fast and explain exactly. Op a
precedes op b in real time when a.response < b.invoke, strictly: an op
that responds at the step another is invoked at is concurrent with it.
`_real_time_violation` checks a witness order with one forward scan that
keeps the latest invoke so far, and names the first violating pair
directly. `_max_ts_before` sorts complete ops by response and keeps a
running max of timestamps, so one bisect on an invoke step gives the
largest timestamp of any op that preceded it. `_precedence_failures`,
which both precedence lemmas use, certifies with it in O(n log n), and
only when it finds a violation does a pairwise scan run to name every
violating pair, so quadratic work is spent only on failing histories.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, Iterable, Sequence

from .history import DirOpRecord, OpRecord
from .mds_oracle import TimestampedStore
from .types import HarnessError, Timestamp

SMALL_LIMIT = 8  # histories this small skip the witness
NODE_BUDGET = 500_000  # search nodes per search

# Compares below every Timestamp (a tuple whose first field is a counter):
# the prefix max of an empty set.
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


@dataclass(frozen=True)
class _Spec:
    """What one linearizability check supplies to `_linearize`."""

    step: Callable[[Any, Any], Any]  # sequential spec: next state, or None if rejected
    init: Any  # the spec's initial state
    order_key: Callable[[Any], Any]  # the order `_search` tries ops in: invoke first
    is_write: Callable[[Any], bool]
    value: Callable[[Any], Any]  # the state a read observes or a write would install
    name: Callable[[Any], Any]  # how counterexamples and details name an op
    witness: Callable[[list], tuple]  # (order, "", []) or (None, reason, suspects)


# -- one linearizability search over a sequential spec -----------------------


def _search(ops: list, spec: _Spec) -> tuple[list | None, bool]:
    """Wing-Gong/Lowe search for a linearization of ``ops``: one walk over
    orderings in which an open write (an incomplete op) is optional, so a
    node is a solution once every complete op is placed. Ops are tried in
    ``spec.order_key`` order, an op only when no unplaced op responded
    before it was invoked and ``spec.step`` accepts it, and the walk is
    memoized on the placed set and the spec state. It visits at most
    NODE_BUDGET nodes.

    The real-time rule is one comparison per candidate: each node takes
    the earliest response among its unplaced ops, its horizon, and allows
    an op iff it was invoked at or before the horizon. The candidate's own
    response is in the minimum, which is harmless because no op responds
    before it is invoked. Both specs order by invoke first, so a node's
    scans start at its first unplaced op; the horizon's scan ends at the
    first op invoked at or after the running minimum (no later op can
    respond earlier), and the candidates end at the first op invoked
    after the horizon.

    The walk keeps its own stack, so no history is too deep for it: a
    frame is [placed, state, horizon, next candidate], and ``path`` holds
    the ops placed on the way to the top frame's node.

    Returns the accepted order (or None) and whether the budget ran out."""
    ordered = sorted(ops, key=spec.order_key)
    resp = [o.response if o.response is not None else float("inf") for o in ordered]
    need = sum(1 << i for i, o in enumerate(ordered) if o.complete)
    left = NODE_BUDGET
    seen: set[tuple[int, Any]] = set()
    frames: list[list] = []
    path: list = []
    placed, state = 0, spec.init
    while True:
        if placed & need == need:
            return path, False
        left -= 1
        if left >= 0 and (placed, state) not in seen:
            seen.add((placed, state))
            first = ((placed + 1) & ~placed).bit_length() - 1  # the first unplaced op
            horizon = float("inf")
            for j in range(first, len(ordered)):
                if ordered[j].invoke >= horizon:
                    break
                if not placed >> j & 1 and resp[j] < horizon:
                    horizon = resp[j]
            frames.append([placed, state, horizon, first])
        after = None
        while frames and after is None:
            frame = frames[-1]
            placed, state, horizon, i = frame
            del path[len(frames) - 1:]
            while after is None and i < len(ordered) and ordered[i].invoke <= horizon:
                op = ordered[i]
                after = None if placed >> i & 1 else spec.step(state, op)
                i += 1
            frame[3] = i
            if after is None:
                frames.pop()
        if after is None:
            return None, left < 0
        path.append(op)
        placed, state = placed | 1 << i - 1, after


# -- real-time precedence ------------------------------------------------------


def _real_time_violation(order: Sequence[Any]) -> tuple[Any, Any] | None:
    """The first pair (a, b), in position order, where ``a`` responded
    strictly before ``b`` was invoked yet is placed after it, or None.
    One forward scan keeps the latest invoke placed so far: ``a`` is the
    first op that responded before it, and ``b`` the first op placed
    ahead of ``a`` that was invoked after ``a`` responded."""
    latest_invoke = float("-inf")
    for i, a in enumerate(order):
        if a.response is not None and a.response < latest_invoke:
            return a, next(b for b in order[:i] if a.response < b.invoke)
        if a.invoke > latest_invoke:
            latest_invoke = a.invoke
    return None


def _max_ts_before(ops: Iterable[Any]) -> Callable[[int], tuple]:
    """Index the complete ``ops`` for precedence queries: the returned
    function maps a step ``s`` to the largest timestamp of any op whose
    response is strictly before ``s`` (real-time precedence is strict, so
    an op that responds at the step another is invoked does not precede
    it), or to ``_BELOW_EVERY_TS`` when none did."""
    done = sorted((o for o in ops if o.response is not None), key=lambda o: o.response)
    responses = [o.response for o in done]
    prefix_max = [_BELOW_EVERY_TS] + list(accumulate((o.ts for o in done), max))

    def query(step: int) -> tuple:
        return prefix_max[bisect_left(responses, step)]

    return query


def _precedence_failures(
    ops: list, fails: Callable[[Any, Any], bool], name: Callable[[Any], Any]
) -> list:
    """``[name(a), name(b)]`` for each pair of the complete ``ops`` where
    ``a`` responded strictly before ``b`` was invoked and ``fails(a.ts,
    b)``, a-outer, b-inner. ``fails`` must be monotone in ``ts`` (true for
    a timestamp, true for any larger one), so testing each ``b`` against
    the largest timestamp that preceded it decides whether any pair fails,
    and the pairwise scan runs only when one does."""
    max_ts_before = _max_ts_before(ops)
    if not any(fails(max_ts_before(b.invoke), b) for b in ops):
        return []
    return [[name(a), name(b)] for a in ops for b in ops
            if a.response < b.invoke and fails(a.ts, b)]


# -- the witness-then-confirm pipeline ---------------------------------------


def _closure(ops: list, suspects: list, spec: _Spec) -> list:
    """``suspects`` closed under the rule of step 4 in the module
    docstring, in history order."""
    picked = {id(o) for o in suspects}
    for read in suspects:
        if read.complete and not spec.is_write(read):
            value = spec.value(read)
            picked.update(id(w) for w in ops if spec.is_write(w) and spec.value(w) == value
                          and not read.response < w.invoke)
    return [o for o in ops if id(o) in picked]


def _mismatch_suspects(ops: list, prefix: list, state: Any, read: Any, spec: _Spec) -> list:
    """Step 3's suspects when the witness replay rejects ``read`` in
    ``state``, the state ``prefix`` left."""
    setter = [w for w in prefix if spec.is_write(w) and spec.value(w) == state][-1:]
    suspects = [read] + setter
    for write in ops:
        if spec.is_write(write) and spec.value(write) == spec.value(read):
            earlier = [o for o in ops if o.complete and o.response < write.invoke]
            if earlier:
                suspects.append(max(earlier, key=lambda o: o.ts))
    return suspects


def _linearize(ops: list, small_limit: int, spec: _Spec) -> tuple:
    """Check ``ops``, the complete ops plus the open writes, in the steps
    the module docstring lists. Returns the linearization found (None on
    failure), the detail, and the counterexample's names on failure."""

    def show(op: Any) -> str:
        return json.dumps(spec.name(op))

    def failed(detail: str, culprits: list) -> tuple:
        return None, detail, sorted(map(spec.name, culprits))

    def exhaustive() -> tuple:
        order, out_of_budget = _search(ops, spec)
        if order is not None:
            return order, "exhaustive", None
        if out_of_budget:
            return failed("exhaustive search exceeded its node budget", ops)
        return failed("exhaustive: no valid permutation", ops)

    if len(ops) <= small_limit:
        return exhaustive()

    order, reason, suspects = spec.witness(ops)
    if order is not None:
        state = spec.init
        for i, op in enumerate(order):
            after = spec.step(state, op)
            if after is None:
                reason = f"witness replay mismatch at read {show(op)}"
                suspects = _mismatch_suspects(ops, order[:i], state, op, spec)
                break
            state = after
        else:
            violation = _real_time_violation(order)
            if violation is None:
                return order, "timestamp witness", None
            a, b = violation
            reason = f"witness places op {show(b)} before op {show(a)} against real-time order"
            suspects = [a, b]

    subset = _closure(ops, suspects, spec)
    if subset:
        found, out_of_budget = _search(subset, spec)
        if found is None and not out_of_budget:
            return failed(f"{reason}; counterexample re-validated exhaustively", subset)
    order, detail, counterexample = exhaustive()
    if order is not None:
        detail = f"witness failed ({reason}); exhaustive fallback passed"
    return order, detail, counterexample


# -- register checking ---------------------------------------------------------


def _register_step(state: tuple, op: OpRecord) -> tuple | None:
    """Register spec. The state is a 1-tuple ``(value,)``, so BOTTOM
    (None) is a value and None means "rejected"."""
    if op.kind == "READ":
        return state if op.ret == state[0] else None
    return (op.arg,)


def _register_witness(ops: list[OpRecord]) -> tuple[list | None, str, list]:
    """BOTTOM-returning reads first, then writes in timestamp order, each
    accepted read right after the write whose timestamp it carries, ties in
    trace order. An order it builds always replays."""
    complete = [o for o in ops if o.complete]
    bot_reads = [o for o in complete if o.kind == "READ" and o.ret is None]
    val_reads = [o for o in complete if o.kind == "READ" and o.ret is not None]
    writes = [o for o in ops if o.kind == "WRITE"]

    for read in val_reads:
        if read.ts is None:
            return None, f"read {read.op_id} lacks a timestamp annotation", []
    writes_by_ts: dict[Timestamp, OpRecord] = {}
    for write in writes:
        if write.ts is None:
            if write.complete:
                return None, f"write {write.op_id} lacks a timestamp annotation", []
            continue  # never got a timestamp: unreadable, drop
        if write.ts in writes_by_ts:
            suspects = [writes_by_ts[write.ts], write]
            return None, f"duplicate write timestamp {write.ts.render()}", suspects
        writes_by_ts[write.ts] = write

    included = {w.op_id: w for w in writes if w.complete and w.ts is not None}
    for read in val_reads:
        write = writes_by_ts.get(read.ts)
        if write is None:
            return None, f"read {read.op_id} returned an unmatched timestamp", [read]
        if write.arg != read.ret:
            reason = f"read {read.op_id} disagrees with write {write.op_id} on the value"
            return None, reason, [read, write]
        included.setdefault(write.op_id, write)  # an open write that took effect

    def position(o: OpRecord) -> tuple:
        ts_key = _BELOW_EVERY_TS if o.kind == "READ" and o.ret is None else o.ts
        return ts_key, o.kind == "READ", o.invoke, o.op_id

    return sorted(bot_reads + val_reads + list(included.values()), key=position), "", []


_REGISTER = _Spec(
    step=_register_step,
    init=(None,),
    order_key=lambda o: (o.invoke, o.op_id),
    is_write=lambda o: o.kind == "WRITE",
    value=lambda o: (o.arg if o.kind == "WRITE" else o.ret,),
    name=lambda o: o.op_id,
    witness=_register_witness,
)


def check_register_linearizable(
    ops: Sequence[OpRecord], small_limit: int = SMALL_LIMIT
) -> CheckResult:
    """Linearizability of the register history: searched whole when small,
    witness-first when not. A pass lists its linearization as the witness."""
    _well_formed(ops)
    checkable = [o for o in ops if o.complete or o.kind == "WRITE"]
    order, detail, counterexample = _linearize(checkable, small_limit, _REGISTER)
    witness = None if order is None else [o.op_id for o in order]
    return CheckResult("linearizable", order is not None, detail, counterexample, witness)


# -- directory (timestamped store) checking ----------------------------------


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


def _directory_witness(ops: list[DirOpRecord]) -> tuple[list, str, list]:
    """Writes in timestamp order, each read right after the write whose
    (ts, payload) it observed; initial-state reads first. An open write is
    placed only when a read returned its record.

    A complete write W that a completed op had superseded when W was
    invoked is left out, and the order still proves the whole history
    linearizable. Let A be the op of largest timestamp that responded
    before W was invoked. An op that superseded A would also have done so
    before W was invoked, with a larger timestamp than A's, so A is not
    superseded and is in the order. Directory state never decreases,
    so at any slot after A it is at least A.ts > W.ts, and W is a no-op
    there. Every op that responded before W was invoked precedes, in real
    time, every op invoked after W responded, so an order that respects
    real time has a slot after all of the former (A among them) and
    before all of the latter, and W fits there without changing a state.
    `check_directory_linearizable` renders no witness, so no verdict byte
    depends on where W would go."""
    complete = [o for o in ops if o.complete]
    max_ts_before = _max_ts_before(complete)
    entries = [
        ((op.ts, op.op == "tsread", op.invoke), op)
        for op in complete
        if op.op == "tsread" or max_ts_before(op.invoke) <= op.ts  # not superseded
    ]
    read_backed = {(o.ts, o.md) for o in complete if o.op == "tsread"}
    for op in ops:
        if not op.complete and (op.ts, op.md) in read_backed:
            entries.append(((op.ts, False, op.invoke), op))
    entries.sort(key=lambda e: e[0])
    return [op for _, op in entries], "", []


_DIRECTORY = _Spec(
    step=_directory_step,
    init=TimestampedStore.INITIAL,
    order_key=lambda o: o.invoke,
    is_write=lambda o: o.op == "tswrite",
    value=lambda o: (o.ts, o.md),
    name=_dir_name,
    witness=_directory_witness,
)


def check_directory_linearizable(
    dir_ops: Sequence[DirOpRecord], small_limit: int = SMALL_LIMIT
) -> CheckResult:
    """Linearizability of the directory sub-history against timestamped-
    store semantics. Digest-array operations are not part of this check."""
    ops = [o for o in dir_ops if o.op == "tswrite" or (o.op == "tsread" and o.complete)]
    order, detail, counterexample = _linearize(ops, small_limit, _DIRECTORY)
    return CheckResult("directory-linearizable", order is not None, detail, counterexample)


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
    failures = _precedence_failures(
        ops, lambda ts, b: b.op == "tsread" and b.ts < ts, _dir_name
    )
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

    def overtaken(ts: tuple, b: OpRecord) -> bool:
        return ts >= b.ts if b.kind == "WRITE" else ts > b.ts

    failures = _precedence_failures(annotated, overtaken, lambda o: o.op_id)
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
            result.config.hash_mode.collision_resistant(),
        )
    )
    return verdict
