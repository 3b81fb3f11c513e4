"""Oracle-mode metadata service.

The directory and the digest array are single logical processes whose
handlers run atomically, so their operations are trivially linearizable.
`TimestampedStore` is the one statement of the directory's semantics:
`DirectoryOracle` holds a (ts, md) pair, starts it at
`TimestampedStore.INITIAL` and applies every write with
`TimestampedStore.after_write`, and the checker's directory spec does the
same. `HashArraySpec` is the one statement of the digest array's
write-once and ownership rules: the hash-array oracle applies it, and so
does every replicated `MetaReplica`, which writes each digest a client
stores through its own `HashArraySpec`. Both answer a rewrite of an
index with a different digest, which the spec refuses, with a trace note
and no acknowledgement, and the checker convicts the run: the writer
blocks, or its reused timestamp shows. The checker does not use the spec
yet, so digest-array histories stay unchecked.

The directory is a timestamped store: a write carries its own timestamp
and takes effect only when that timestamp is at least the stored one,
and it always acknowledges.
"""
from __future__ import annotations

from typing import Any, Callable

from .history import DirOpLog, DirOpRecord
from .net import Message, MsgKind, Process
from .types import NIL, HarnessError, Metadata, Timestamp, TS_INIT

DIR_PID = "dir"
HASH_PID = "hash"

# The kinds this module compares or sends, bound once (see `MsgKind`).
DIR_READ, DIR_READ_RESP = MsgKind.DIR_READ, MsgKind.DIR_READ_RESP
DIR_WRITE, DIR_WRITE_RESP = MsgKind.DIR_WRITE, MsgKind.DIR_WRITE_RESP
HASH_READ, HASH_READ_RESP = MsgKind.HASH_READ, MsgKind.HASH_READ_RESP
HASH_WRITE, HASH_WRITE_RESP = MsgKind.HASH_WRITE, MsgKind.HASH_WRITE_RESP


class TimestampedStore:
    """Sequential timestamped register over (ts, payload) states, stated
    as its initial state and its write rule; a tsread returns the state.
    A write always acknowledges, whether or not it takes effect."""

    INITIAL: tuple[Timestamp, Any] = (TS_INIT, None)

    @staticmethod
    def after_write(
        state: tuple[Timestamp, Any], ts: Timestamp, payload: Any
    ) -> tuple[Timestamp, Any]:
        """The (ts, payload) state that tswrite(ts, payload) leaves behind."""
        return (ts, payload) if ts >= state[0] else state


class HashArraySpec:
    """Sequential write-once digest array indexed by timestamp. Index
    ``ts`` belongs to the writer whose id is ``ts.cid``: a write by any
    other writer raises, since no caller sends one. A second write with a
    different digest is refused and leaves the first: a writer that
    reuses a timestamp is a protocol fault, for the checker to convict."""

    def __init__(self) -> None:
        self.entries: dict[Timestamp, str] = {}

    def write(self, index: Timestamp, digest: str, writer: int) -> bool:
        """Store ``digest`` at ``index``; False if the write is refused."""
        if writer != index.cid:
            raise HarnessError(f"digest index {index.render()} written by client {writer}")
        return self.entries.setdefault(index, digest) == digest

    def read(self, index: Timestamp) -> str | None:
        return self.entries.get(index)


class DirectoryOracle(Process):
    """Directory as one trusted process. Write requests are accepted only
    from writer clients; the channel tells us who sent what."""

    def __init__(self, pid: str, client_ids: dict[str, int], writer_pids: frozenset[str]):
        super().__init__(pid)
        self.state = TimestampedStore.INITIAL  # the directory's (ts, md)
        self.client_ids = client_ids
        self.writer_pids = writer_pids

    def on_message(self, msg: Message) -> None:
        kind, src, _, fields = msg
        if kind is DIR_READ:
            ts, md = self.state
            self.port.send(DIR_READ_RESP, self.pid, src, tag=fields["tag"], ts=ts, md=md)
        elif kind is DIR_WRITE:
            if src not in self.writer_pids:
                self.trace_note("dir-write-rejected", src=src)
                return
            md: Metadata = fields["md"]
            ts = md.ts
            if ts.cid != self.client_ids[src]:
                raise HarnessError(
                    f"directory write from {src} with foreign timestamp {ts.render()}"
                )
            self.state = TimestampedStore.after_write(self.state, ts, md)
            self.port.send(DIR_WRITE_RESP, self.pid, src, tag=fields["tag"])

    def final_state(self) -> dict:
        ts, md = self.state
        return {"ts": ts, "md": md}


class HashArrayOracle(Process):
    """Digest array as one trusted process."""

    def __init__(self, pid: str, client_ids: dict[str, int]):
        super().__init__(pid)
        self.array = HashArraySpec()
        self.client_ids = client_ids

    def on_message(self, msg: Message) -> None:
        kind, src, _, fields = msg
        if kind is HASH_WRITE:
            index, digest = fields["index"], fields["digest"]
            if not self.array.write(index, digest, self.client_ids.get(src, NIL)):
                self.trace_note("hash-write-refused", src=src, index=index, digest=digest)
                return
            self.port.send(HASH_WRITE_RESP, self.pid, src, tag=fields["tag"])
        elif kind is HASH_READ:
            digest = self.array.read(fields["index"])
            self.port.send(HASH_READ_RESP, self.pid, src, tag=fields["tag"], digest=digest)

    def final_state(self) -> dict:
        return {"entries": {idx.render(): d for idx, d in self.array.entries.items()}}


# The responses an OracleMdsDriver consumes. A tuple: membership is tested
# by identity, where a frozenset would call MsgKind's Python-level __hash__.
RESPONSE_KINDS = (DIR_READ_RESP, DIR_WRITE_RESP, HASH_READ_RESP, HASH_WRITE_RESP)


class OracleMdsDriver:
    """Client-side access to the oracle metadata service.

    Each call sends one request and resolves the continuation when the
    matching response arrives; the owner routes inbound metadata messages
    here. The oracle answers each request once (a rejected write not at
    all), so a response always finds its call pending. Its `DirOpLog`
    records operation intervals for the checker.
    """

    def __init__(self, owner: Process):
        self.owner = owner
        self.log = DirOpLog(owner)
        self._pending: dict[int, tuple[DirOpRecord, Callable[..., None]]] = {}

    def _request(
        self, op: str, kind: MsgKind, dst: str, done: Callable[..., None], logged: dict,
        **fields: Any,
    ) -> None:
        rec = self.log.start(op, **logged)
        tag = rec.tag
        self._pending[tag] = (rec, done)
        owner = self.owner
        owner.port.send(kind, owner.pid, dst, tag=tag, **fields)

    def tsread(self, done: Callable[[Timestamp, Metadata | None], None]) -> None:
        self._request("tsread", DIR_READ, DIR_PID, done, {})

    def tswrite(self, md: Metadata, done: Callable[[], None]) -> None:
        self._request("tswrite", DIR_WRITE, DIR_PID, done, {"ts": md.ts, "md": md}, md=md)

    def hash_write(self, index: Timestamp, digest: str, done: Callable[[], None]) -> None:
        fields = {"index": index, "digest": digest}
        self._request("hashwrite", HASH_WRITE, HASH_PID, done, fields, **fields)

    def hash_read(self, index: Timestamp, done: Callable[[str | None], None]) -> None:
        self._request("hashread", HASH_READ, HASH_PID, done, {"index": index}, index=index)

    def abandon_hash_read(self, index: Timestamp) -> bool:
        """The oracle answers every hashread, so none is abandoned: its
        continuation fires when the answer arrives."""
        return False

    def handle(self, msg: Message) -> bool:
        """Consume a metadata response addressed to the owner: write its
        fields onto the operation's record, end the record and call the
        continuation with the fields as positional values. Returns False,
        and does nothing, when the message is not a metadata response."""
        kind, _, _, fields = msg
        if kind not in RESPONSE_KINDS:
            return False
        rec, done = self._pending.pop(fields["tag"])
        if kind is DIR_READ_RESP:
            rec.ts = ts = fields["ts"]
            rec.md = md = fields["md"]
            self.log.end(rec)
            done(ts, md)
        elif kind is HASH_READ_RESP:
            rec.digest = digest = fields["digest"]
            self.log.end(rec)
            done(digest)
        else:
            self.log.end(rec)
            done()
        return True
