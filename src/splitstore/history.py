"""Operation-history records produced by runs and consumed by the checker.

A record is filled in by the process that runs its operation and stamped
by the runtime: the simulator creates each client operation's `OpRecord`
at its invocation and hands it to the client, and `DirOpLog` creates each
directory and digest-array operation's `DirOpRecord`. The process sets
the record's protocol fields; the port stamps its invoke and response
steps, which no process reads.

A record's `render()` is its JSON value, stated once for both record
types: every dataclass field, in field order, as `net.render_field`
renders it. perfbench's outcome digest reads it. `cli.history_text`
writes the history file straight from the same field list
(`field_names`), with no rendered dict in between: the one output
encoder, `encoding.encoded`, writes each field in its indented layout,
as json writes `render_field(value)` with `indent=2`. It is tested
against `render()`.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Any

from .net import Process, render_field
from .types import Timestamp


@functools.cache
def field_names(cls: type) -> tuple[str, ...]:
    """A record class's field names in field order: `render()`'s keys."""
    return tuple(f.name for f in fields(cls))


class _Record:
    """What both record types share: their rendered form."""

    def render(self) -> dict:
        """The record's JSON value: each field, in field order, as
        `net.render_field` renders it."""
        return {name: render_field(getattr(self, name)) for name in field_names(type(self))}


@dataclass
class OpRecord(_Record):
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


@dataclass
class DirOpRecord(_Record):
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
