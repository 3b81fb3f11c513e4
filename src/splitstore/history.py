"""Operation-history records produced by runs and consumed by the checker.

A record is filled in by the process that runs its operation and stamped
by the runtime: the simulator creates each client operation's `OpRecord`
at its invocation and hands it to the client, and `DirOpLog` creates each
directory and digest-array operation's `DirOpRecord`. The process sets
the record's protocol fields; the port stamps its invoke and response
steps, which no process reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .types import Timestamp, render_value

if TYPE_CHECKING:
    from .net import Process


@dataclass
class OpRecord:
    """One register operation as observed at the client boundary."""

    op_id: int
    client: str
    kind: str  # "WRITE" | "READ"
    arg: bytes | None
    invoke: int
    response: int | None = None
    ret: Any = None
    # protocol annotations used by the witness checker and lemma monitors
    ts: Timestamp | None = None
    md_ts: Timestamp | None = None
    md2_ts: Timestamp | None = None

    @property
    def complete(self) -> bool:
        return self.response is not None

    def render(self) -> dict:
        return {
            "op_id": self.op_id,
            "client": self.client,
            "kind": self.kind,
            "arg": None if self.arg is None else render_value(self.arg),
            "invoke": self.invoke,
            "response": self.response,
            "ret": render_value(self.ret) if isinstance(self.ret, bytes) else self.ret,
            "ts": self.ts.render() if self.ts else None,
            "md_ts": self.md_ts.render() if self.md_ts else None,
            "md2_ts": self.md2_ts.render() if self.md2_ts else None,
        }


@dataclass
class DirOpRecord:
    """One directory (or digest-array) operation as seen by a client driver."""

    proc: str
    op: str  # "tsread" | "tswrite" | "hashread" | "hashwrite"
    tag: int
    invoke: int | None = None  # stamped by the port's begin
    response: int | None = None
    ts: Timestamp | None = None
    md: Any = None
    index: Timestamp | None = None
    digest: str | None = None

    @property
    def complete(self) -> bool:
        return self.response is not None

    def render(self) -> dict:
        return {
            "proc": self.proc,
            "op": self.op,
            "tag": self.tag,
            "invoke": self.invoke,
            "response": self.response,
            "ts": self.ts.render() if self.ts else None,
            "md": self.md.render() if self.md is not None else None,
            "index": self.index.render() if self.index else None,
            "digest": self.digest,
        }


class DirOpLog:
    """One client's directory and digest-array operations. It numbers
    them; the number is the operation's tag, and the metadata driver uses
    it as its only request tag."""

    def __init__(self, owner: Process):
        self.owner = owner
        self.tag = 0

    def start(self, op: str, **fields: Any) -> DirOpRecord:
        """Number a new operation and begin its record."""
        self.tag = tag = self.tag + 1
        rec = DirOpRecord(self.owner.pid, op, tag, **fields)
        self.owner.port.begin(rec)
        return rec

    def end(self, rec: DirOpRecord, **result: Any) -> None:
        """Fill in the operation's result fields and end its record."""
        for key, value in result.items():
            setattr(rec, key, value)
        self.owner.port.end(rec)
