import hashlib
import json
import random
from collections import Counter
from typing import Sequence

import pytest

from splitstore.checker import CheckResult, check_register_linearizable
from splitstore.history import OpRecord
from splitstore.net import Delivery, Port
from splitstore.types import TS_INIT, Timestamp


class PortProbe:
    """Capture everything a process pushes through its port.

    Unit tests wire a process to a probe instead of a full simulation and
    then feed it messages directly. Like the simulator's port, the probe
    stamps its ``step`` into each history record a process begins or ends
    as the record's invoke or response; tests advance ``step`` themselves.
    """

    def __init__(self):
        self.sent = []
        self.notes = []
        self.begun = []  # history records, in begin order
        self.ended = []  # history records, in end order
        self.step = 0

    def attach(self, proc):
        proc.port = Port(
            self.sent.append,
            lambda pid, note, **payload: self.notes.append((pid, note, payload)),
            self._begin,
            self._end,
        )
        return proc

    def _begin(self, rec):
        rec.invoke = self.step
        self.begun.append(rec)

    def _end(self, rec):
        rec.response = self.step
        self.ended.append(rec)

    def take_sent(self):
        out = list(self.sent)
        self.sent.clear()
        return out


@pytest.fixture
def probe():
    return PortProbe()


# -- reading a run's trace ------------------------------------------------------


def trace_entries(result) -> list[dict]:
    """The run's trace as its file holds it: each written line, parsed."""
    return [json.loads(line) for line in result.trace_lines()]


def decode_events(result) -> list:
    """The run's event log decoded but unrendered, for tests that need a
    message's identity: a dict entry as logged, and (step, ev, reason, msg)
    for each send, deliver, drop or undelivered event.

    A reference decoder, written from the log format in the `simnet` module
    docstring rather than from the writer it is used to check."""
    decoded = []
    events = iter(result.events)
    for event in events:
        if isinstance(event, Delivery):
            decoded.append((event.created_step, "send", None, event.msg))
        elif isinstance(event, int):  # a delivery's step; its Delivery follows
            decoded.append((event, "deliver", None, next(events).msg))
        else:
            decoded.append(event)
    return decoded


def message_counts(result) -> Counter:
    """Messages sent per `MsgKind` over the run's event log. A message
    counts once, at its first event: its send, or the drop of a message
    sent to a crashed process, which has no send."""
    counts: Counter = Counter()
    seen = set()
    for event in decode_events(result):
        if isinstance(event, dict) or event[3] is None:  # None: an invocation
            continue
        msg = event[3]
        if id(msg) not in seen:
            seen.add(id(msg))
            counts[msg.kind] += 1
    return counts


def fingerprint(result) -> str:
    """The golden fingerprint of a run: sha256 of its trace file's lines,
    the bytes `write_outputs` writes after the header line."""
    return hashlib.sha256("".join(result.trace_lines()).encode()).hexdigest()


# -- register histories for checker self-validation ----------------------------


def check_register_exhaustive(ops: Sequence[OpRecord]) -> CheckResult:
    """Ground-truth linearizability: the search alone, whatever the size."""
    return check_register_linearizable(ops, small_limit=len(ops))


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
