"""Writer and reader clients.

A write runs through five phases: read the directory to learn the
latest timestamp, publish the digest of the new value, send the value
to all data replicas, store the new directory record once a quorum of
acknowledgments is in, then fire commit messages and return. A read
learns the latest directory record, asks the replicas it names, and
accepts the first reply that passes the digest check: the digest of the
reply's value must equal the one the metadata service holds at the
reply's timestamp, its index. Replies carrying a newer timestamp than
the directory record trigger one directory re-read each, and are
checked only if the directory has caught up.

A reader's digest checks cost at most one metadata read (a hashread) per
index. It keeps at most one hashread per index in flight: a reply at an
index whose hashread is in flight waits on it and is checked against its
answer. It remembers every digest a hashread returns, so a later reply
at that index, in this read or a later one, is checked at once. A None
answer is not remembered. It refutes only the replies that arrived
before its hashread began; the replies that joined the hashread later
wait on one new hashread of the index.

Sharing is safe. An honest writer stores one digest per index, and the
digest array is write-once. A digest the metadata service returns is the
one the index's writer stored: the oracle holds what was stored, and a
replicated hashread returns a digest only on tm + 1 matching reports,
one of them from a correct replica. So a reply passes a shared or a
remembered check exactly when it would pass a hashread of its own that
returned a digest.

It keeps reads live. A correct data replica holds a value at an index
only after the writer's hashwrite of that index completed, so that
hashwrite completed before the reply arrived. A hashread that begins
after the reply arrived overlaps no write at its index, and under the
digest array's safe semantics it returns the stored digest. Every reply
is checked by a remembered digest, by a hashread that began after it
arrived (its own, or the one a None answer starts), or by a digest that
a hashread which began earlier returned; in each case a correct reply
passes. So, as with one hashread per reply, a read completes once a
correct reply at an acceptable timestamp arrives. A None answer
refutes every reply that arrived before its hashread began, and the new
hashread began after every reply it serves arrived, so each reply waits
on at most two hashreads.

When a READ ends, the reader asks its driver to abandon each hashread
still in flight. Every reply waiting on one belongs to that READ or an
earlier one, so no operation in flight needs its answer, and a
replicated hashread of an index whose writer crashed mid-hashwrite may
never end (see `mds_replicated`). The replicated driver abandons it, and
its digest is not remembered. The oracle answers every hashread, so its
driver abandons none.

Clients are single-threaded state machines: the simulator delivers one
message at a time, and at most one operation per client is in flight.
A metadata driver calls each continuation it is given at most once. A
writer has one continuation in flight, so each of its continuations
fires in the phase that issued it and reads the operation from
``self.ctx``; so does a reader's first directory read. A reader's
re-reads and digest checks can still be in flight when its operation
ends, so a re-read's continuation and each reply waiting on a hashread
carry their operation, and a stale one is dropped.

A writer's one data-plane reply is a WRITE-ACK and a reader's a
READ-VAL. Each client's `on_message` handles that kind itself, first,
and hands every other message to its driver's `handle`, which consumes
the metadata service's messages and ignores the rest: a stray data
reply, such as a READ-VAL at a writer, changes nothing.

The simulator hands each invocation's `history.OpRecord` to the client,
which sets its timestamp annotations and return value and ends it
through the port. A reader's operation in flight is that record itself:
its ``md_ts`` stays None until the first directory read answers, and
then holds the timestamp of the record the read fetches against.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, NamedTuple

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
        """Count a WRITE-ACK; the driver takes every other message."""
        kind, src, _, fields = msg
        if kind is not WRITE_ACK:
            self.driver.handle(msg)
            return
        ctx = self.ctx
        if ctx is None or ctx.phase is not WRITE_DATA:
            return
        ts = ctx.op.ts
        if fields["ts"] != ts or src not in self.data_pids:
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


class _Waiter(NamedTuple):
    """A reply at an index, waiting on the reader's hashread of the index."""

    op: OpRecord
    val: bytes
    md2_ts: Timestamp | None
    covered: bool  # it arrived before the hashread began: a None refutes it


class ReaderClient(ClientBase):
    def __init__(
        self,
        pid: str,
        cid: int,
        digests: DigestFacility,
        data_pids: list[str],
        t: int,
    ):
        super().__init__(pid, cid, digests, data_pids, t)
        # index -> the digest a hashread of it returned; the array is write-once
        self.known: dict[Timestamp, str] = {}
        # index -> the replies waiting on the one hashread of it in flight
        self.hashreads: dict[Timestamp, list[_Waiter]] = {}

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
        """Check a READ-VAL; the driver takes every other message."""
        kind, src, _, fields = msg
        if kind is not READ_VAL:
            self.driver.handle(msg)
            return
        op = self.ctx
        if op is None or op.md_ts is None:
            return
        ts, val, md_ts = fields["ts"], fields["val"], op.md_ts
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
        digest = self.known.get(ts)
        if digest is not None:
            self._check_done(op, ts, val, md2_ts, digest)
            return
        waiters = self.hashreads.get(ts)
        if waiters is not None:
            waiters.append(_Waiter(op, val, md2_ts, covered=False))
            return
        self._hash_read(ts, [_Waiter(op, val, md2_ts, covered=True)])

    def _hash_read(self, index: Timestamp, waiters: list[_Waiter]) -> None:
        self.hashreads[index] = waiters
        self.driver.hash_read(
            index, lambda digest, index=index: self._hash_read_done(index, digest)
        )

    def _hash_read_done(self, index: Timestamp, digest: str | None) -> None:
        """Check each reply waiting on the hashread of ``index``. A digest
        answers them all and is remembered. A None answer refutes only the
        replies that arrived before the hashread began; the others, if
        their operation is still in flight, wait on a new hashread."""
        waiters = self.hashreads.pop(index)
        if digest is not None:
            self.known[index] = digest
            for op, val, md2_ts, _ in waiters:
                self._check_done(op, index, val, md2_ts, digest)
            return
        late = []
        for waiter in waiters:
            if self.ctx is not waiter.op:
                continue
            if waiter.covered:
                self._check_done(waiter.op, index, waiter.val, waiter.md2_ts, None)
            else:
                late.append(waiter._replace(covered=True))
        if late:
            self._hash_read(index, late)

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
        # Every reply waiting on a hashread in flight belongs to an ended READ.
        for index in [i for i in self.hashreads if self.driver.abandon_hash_read(i)]:
            del self.hashreads[index]
        self.respond(op, val)

    def final_state(self) -> dict:
        if self.ctx is None:
            return {"idle": True}
        return {"idle": False, "md_ts": self.ctx.md_ts}
