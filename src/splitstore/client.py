"""Writer and reader clients.

A write runs through five phases: read the directory to learn the
latest timestamp, publish the digest of the new value, send the value
to all data replicas, store the new directory record once a quorum of
acknowledgments is in, then fire commit messages and return. A read
learns the latest directory record, asks the replicas it names, and
accepts the first reply that passes the digest check; replies carrying
a newer timestamp than the directory record trigger one directory
re-read each, and are accepted only if the directory has caught up.

Clients are single-threaded state machines: the simulator delivers one
message at a time, and at most one operation per client is in flight.
A metadata driver calls each continuation it is given at most once. A
writer has one continuation in flight, so each of its continuations
fires in the phase that issued it and reads the operation from
``self.ctx``; so does a reader's first directory read. A reader's
re-reads and digest checks can still be in flight when its operation
ends, so those continuations carry their operation and drop a stale
answer.
The simulator hands each invocation's `history.OpRecord` to the client,
which sets its timestamp annotations and return value and ends it
through the port. A reader's operation in flight is that record itself:
its ``md_ts`` stays None until the first directory read answers, and
then holds the timestamp of the record the read fetches against.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from .history import OpRecord
from .net import Message, MsgKind, Process
from .types import DigestFacility, HarnessError, Metadata, Timestamp, TS_INIT


class WritePhase(enum.Enum):
    """The phases an in-flight write can be seen in. The commit messages
    go out in the handler that ends the write, so no step sees a commit
    phase."""

    READ_DIR = "READ-DIR"
    WRITE_HASH = "WRITE-HASH"
    WRITE_DATA = "WRITE-DATA"
    WRITE_DIR = "WRITE-DIR"


# The kinds and phases this module compares or sends, bound once (see
# `MsgKind`).
WRITE, WRITE_ACK, COMMIT = MsgKind.WRITE, MsgKind.WRITE_ACK, MsgKind.COMMIT
READ, READ_VAL = MsgKind.READ, MsgKind.READ_VAL
READ_DIR, WRITE_HASH = WritePhase.READ_DIR, WritePhase.WRITE_HASH
WRITE_DATA, WRITE_DIR = WritePhase.WRITE_DATA, WritePhase.WRITE_DIR


@dataclass
class WriteContext:
    op: OpRecord  # its arg is the value; its ts is set once the directory is read
    phase: WritePhase = READ_DIR
    acks: set[int] = field(default_factory=set)


class ClientBase(Process):
    """Shared plumbing: id mapping, driver routing, history records."""

    def __init__(
        self,
        pid: str,
        cid: int,
        digests: DigestFacility,
        data_pids: list[str],
        t: int,
    ):
        super().__init__(pid)
        self.cid = cid
        self.digests = digests
        self.data_pids = data_pids
        self.t = t
        self.driver: Any = None  # bound by build_world, dropped by Simulation.finish
        # the operation in flight: a writer's context, a reader's record
        self.ctx: WriteContext | OpRecord | None = None

    def replica_index(self, pid: str) -> int:
        return self.data_pids.index(pid) + 1

    def replica_pid(self, index: int) -> str:
        return self.data_pids[index - 1]

    def invoke(self, op: OpRecord) -> None:
        raise NotImplementedError

    def respond(self, op: OpRecord, ret: Any) -> None:
        op.ret = ret
        self.port.end(op)


class WriterClient(ClientBase):
    def invoke(self, op: OpRecord) -> None:
        if op.kind != "WRITE" or op.arg is None:
            raise HarnessError(f"writer {self.pid} got invocation {op.kind!r}")
        if self.ctx is not None:
            raise HarnessError(f"writer {self.pid} already has an operation in flight")
        self.ctx = WriteContext(op)
        self.driver.tsread(self._dir_read_done)

    def _dir_read_done(self, ts: Timestamp, md: Metadata | None) -> None:
        ctx = self.ctx
        op = ctx.op
        op.ts = ts.next_for(self.cid)
        ctx.phase = WRITE_HASH
        digest = self.digests.digest(op.arg)
        self.driver.hash_write(op.ts, digest, self._hash_written)

    def _hash_written(self) -> None:
        ctx = self.ctx
        ctx.phase = WRITE_DATA
        op = ctx.op
        send, me, ts, val = self.port.send, self.pid, op.ts, op.arg
        for pid in self.data_pids:
            send(WRITE, me, pid, ts=ts, val=val)

    def on_message(self, msg: Message) -> None:
        if self.driver.handle(msg):
            return
        kind, src, _, fields = msg
        if kind is WRITE_ACK:
            self._on_write_ack(src, fields["ts"])

    def _on_write_ack(self, src: str, ack_ts: Timestamp) -> None:
        ctx = self.ctx
        if ctx is None or ctx.phase is not WRITE_DATA:
            return
        ts = ctx.op.ts
        if ack_ts != ts or src not in self.data_pids:
            return  # ack for some other write, or from a stranger
        ctx.acks.add(self.replica_index(src))
        if len(ctx.acks) >= self.t + 1:
            ctx.phase = WRITE_DIR
            md = Metadata(ts=ts, replicas=frozenset(ctx.acks))
            self.driver.tswrite(md, self._dir_written)

    def _dir_written(self) -> None:
        ctx = self.ctx
        send, me, ts = self.port.send, self.pid, ctx.op.ts
        for pid in self.data_pids:
            send(COMMIT, me, pid, ts=ts)
        self.ctx = None
        self.respond(ctx.op, "OK")

    def final_state(self) -> dict:
        if self.ctx is None:
            return {"idle": True}
        return {"idle": False, "phase": self.ctx.phase.value, "ts": self.ctx.op.ts}


class ReaderClient(ClientBase):
    def invoke(self, op: OpRecord) -> None:
        if op.kind != "READ":
            raise HarnessError(f"reader {self.pid} got invocation {op.kind!r}")
        if self.ctx is not None:
            raise HarnessError(f"reader {self.pid} already has an operation in flight")
        self.ctx = op
        self.driver.tsread(self._dir_read_done)

    def _dir_read_done(self, ts: Timestamp, md: Metadata | None) -> None:
        op = self.ctx
        if md is None:
            # Nothing written yet: return the absent value.
            op.ts = TS_INIT
            op.md_ts = ts
            self.ctx = None
            self.respond(op, None)
            return
        ts, replicas = md
        op.md_ts = ts
        send, me = self.port.send, self.pid
        for index in sorted(replicas):
            send(READ, me, self.replica_pid(index), ts=ts)

    def on_message(self, msg: Message) -> None:
        if self.driver.handle(msg):
            return
        kind, src, _, fields = msg
        if kind is READ_VAL:
            self._on_read_val(src, fields["ts"], fields["val"])

    def _on_read_val(self, src: str, ts: Timestamp, val: bytes | None) -> None:
        op = self.ctx
        if op is None or op.md_ts is None:
            return
        md_ts = op.md_ts
        if ts == md_ts:
            self._check(op, ts, val, md2_ts=None)
        elif ts > md_ts:
            # The replica is ahead of the directory record we hold. Re-read
            # the directory once for this reply; accept only if it caught up.
            self.driver.tsread(
                lambda ts2, md2, op=op, ts=ts, val=val: self._revalidate(op, ts, val, ts2, md2)
            )
        else:
            self.trace_note("readval-below-directory", ts=ts, src=src)

    def _revalidate(
        self,
        op: OpRecord,
        ts: Timestamp,
        val: bytes | None,
        dir_ts: Timestamp,
        md2: Metadata | None,
    ) -> None:
        if self.ctx is not op:
            return
        if md2 is not None and md2.ts >= ts:
            self._check(op, ts, val, md2_ts=md2.ts)
        else:
            self.trace_note("readval-discarded", ts=ts, dir_ts=dir_ts)

    def _check(
        self, op: OpRecord, ts: Timestamp, val: bytes | None, md2_ts: Timestamp | None
    ) -> None:
        if val is None:
            self.trace_note("readval-absent-value", ts=ts)
            return
        self.driver.hash_read(
            ts,
            lambda digest, op=op, ts=ts, val=val, md2_ts=md2_ts: self._check_done(
                op, ts, val, md2_ts, digest
            ),
        )

    def _check_done(
        self,
        op: OpRecord,
        ts: Timestamp,
        val: bytes,
        md2_ts: Timestamp | None,
        digest: str | None,
    ) -> None:
        if self.ctx is not op:
            return
        if digest is None or digest != self.digests.digest(val):
            self.trace_note("digest-check-failed", ts=ts)
            return
        op.ts = ts
        if md2_ts is not None:
            op.md2_ts = md2_ts
        self.ctx = None
        self.respond(op, val)

    def final_state(self) -> dict:
        if self.ctx is None:
            return {"idle": True}
        return {"idle": False, "md_ts": self.ctx.md_ts}
