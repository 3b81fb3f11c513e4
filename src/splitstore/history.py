"""Operation-history records produced by runs and consumed by the checker.

Client operations arrive on the "op" record channel. Directory and
digest-array operations arrive on the "mds" channel: `DirOpLog` is the one
writer of its records and `assemble_dir_ops` the one reader.
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
    invoke: int
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
    """One client's "mds" records. It numbers the client's directory and
    digest-array operations; the number is the operation's tag, and the
    metadata driver uses it as its only request tag."""

    def __init__(self, owner: Process):
        self.owner = owner
        self.tag = 0

    def start(self, op: str, **fields: Any) -> int:
        """Number a new operation and record its start; returns its tag."""
        self.tag = tag = self.tag + 1
        self.owner.record("mds", proc=self.owner.pid, op=op, tag=tag, phase="start", **fields)
        return tag

    def end(self, op: str, tag: int, **fields: Any) -> None:
        self.owner.record("mds", proc=self.owner.pid, op=op, tag=tag, phase="end", **fields)


def assemble_dir_ops(entries: list[dict]) -> list[DirOpRecord]:
    """Pair up start/end records from the metadata-driver channel."""
    open_ops: dict[tuple, DirOpRecord] = {}
    done: list[DirOpRecord] = []
    for entry in entries:
        key = (entry["proc"], entry["op"], entry["tag"])
        if entry["phase"] == "start":
            rec = DirOpRecord(
                proc=entry["proc"], op=entry["op"], tag=entry["tag"],
                invoke=entry["step"],
                ts=entry.get("ts"), md=entry.get("md"),
                index=entry.get("index"), digest=entry.get("digest"),
            )
            open_ops[key] = rec
        else:
            rec = open_ops.pop(key)
            rec.response = entry["step"]
            if "ts" in entry:
                rec.ts = entry["ts"]
            if "md" in entry:
                rec.md = entry["md"]
            if "digest" in entry:
                rec.digest = entry["digest"]
            done.append(rec)
    done.extend(sorted(open_ops.values(), key=lambda r: (r.invoke, r.tag)))
    return sorted(done, key=lambda r: (r.invoke, r.proc, r.tag))
