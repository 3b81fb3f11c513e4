"""Data replica state machine.

A replica keeps a set of tagged values plus the timestamp of the newest
write it has seen committed. Writes ahead of the committed timestamp are
stored tentatively and acknowledged unconditionally; a commit advances
the committed timestamp and discards every older tagged value. Reads are
answered from the requested timestamp, bumped up to the committed one
when the request lags behind.
"""
from __future__ import annotations

from .net import Message, MsgKind, Process
from .types import HarnessError, Timestamp, TS_INIT

# The kinds this module compares or sends, bound once (see `MsgKind`).
WRITE, WRITE_ACK, COMMIT = MsgKind.WRITE, MsgKind.WRITE_ACK, MsgKind.COMMIT
READ, READ_VAL = MsgKind.READ, MsgKind.READ_VAL


class DataReplica(Process):
    def __init__(self, pid: str, writer_pids: frozenset[str]):
        super().__init__(pid)
        self.writer_pids = writer_pids
        self.committed: Timestamp = TS_INIT
        self.data: dict[Timestamp, bytes] = {}

    # -- handlers ---------------------------------------------------------

    def on_message(self, msg: Message) -> None:
        kind, src, _, fields = msg
        if kind is WRITE:
            self.on_write(src, fields["ts"], fields["val"])
        elif kind is COMMIT:
            self.on_commit(src, fields["ts"])
        elif kind is READ:
            self.on_read(src, fields["ts"])

    def on_write(self, src: str, ts: Timestamp, val: bytes) -> None:
        if src not in self.writer_pids:
            self.trace_note("write-rejected", src=src)
            return
        if ts > self.committed:
            prior = self.data.get(ts)
            if prior is not None and prior != val:
                raise HarnessError(f"conflicting values for timestamp {ts.render()}")
            self.data[ts] = val
        # The ack is unconditional: a stale write is simply subsumed.
        self.port.send(WRITE_ACK, self.pid, src, ts=ts)

    def on_commit(self, src: str, ts: Timestamp) -> None:
        if src not in self.writer_pids:
            return
        if ts > self.committed and ts in self.data:
            self.committed = ts
            self.data = {t: v for t, v in self.data.items() if t >= ts}

    def on_read(self, src: str, ts: Timestamp) -> None:
        if ts < self.committed:
            ts = self.committed
        if ts in self.data:
            self.port.send(READ_VAL, self.pid, src, ts=ts, val=self.data[ts])
        else:
            # No tagged value at the requested timestamp (the requester is
            # ahead of us or fabricated the timestamp): answer with the
            # committed pair instead of blocking. A fresh replica serves
            # the initial pair, whose absent value readers reject.
            self.port.send(
                READ_VAL, self.pid, src,
                ts=self.committed, val=self.data.get(self.committed),
            )

    # -- inspection -------------------------------------------------------

    def final_state(self) -> dict:
        return {
            "committed": self.committed,
            "data": [
                {"ts": t, "val": v} for t, v in sorted(self.data.items(), key=lambda kv: kv[0])
            ],
        }
