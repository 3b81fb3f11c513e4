"""Message and process plumbing shared by the protocol modules.

Processes never see the scheduler clock or each other's objects; they
only receive immutable messages and emit new ones through the runtime
port bound by the simulator. A process's ``on_message`` unpacks each
message once and calls its handler with the fields that handler reads. ``Port.send(kind, src, dst, **fields)`` is
the send path and the only way a message enters the network. Channels
are authenticated: a process passes its own pid as ``src``, never
another's. The step belongs to the runtime too: a process fills in the
fields of its own history records, and the port stamps their invoke and
response steps, which no process ever reads.
"""
from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Any, Callable, NamedTuple

from .types import Metadata, Timestamp, render_value


# A NamedTuple's generated __new__ is a Python function; `Port.send`
# builds each message with this one C call instead.
_new_tuple = tuple.__new__


class MsgKind(enum.Enum):
    """The one type of message kinds, for messages, `simnet.Match` and
    traces. Modules bind the members (and `WritePhase` and `ByzStrategy`
    members) they test per message to module globals at import: under
    Python 3.11 ``MsgKind.X`` runs the enum metaclass's ``__getattr__``,
    about ten times the cost of reading a global."""

    # data plane
    WRITE = "WRITE"
    WRITE_ACK = "WRITE-ACK"
    COMMIT = "COMMIT"
    READ = "READ"
    READ_VAL = "READ-VAL"
    # metadata plane, oracle mode
    DIR_READ = "DIR-READ"
    DIR_READ_RESP = "DIR-READ-RESP"
    DIR_WRITE = "DIR-WRITE"
    DIR_WRITE_RESP = "DIR-WRITE-RESP"
    HASH_READ = "HASH-READ"
    HASH_READ_RESP = "HASH-READ-RESP"
    HASH_WRITE = "HASH-WRITE"
    HASH_WRITE_RESP = "HASH-WRITE-RESP"
    # metadata plane, replicated mode
    META_STORE = "META-STORE"
    META_ACK = "META-ACK"
    META_QUERY = "META-QUERY"
    META_UPDATE = "META-UPDATE"
    META_UNSUB = "META-UNSUB"
    META_WRITEBACK = "META-WRITEBACK"
    META_ECHO = "META-ECHO"


class Message(NamedTuple):
    """An immutable message. As a tuple it is built by one tuple
    allocation, and its ``fields`` mapping proxy keeps it unhashable.

    A handler reads a message by unpacking it once, ``kind, src, _,
    fields = msg``, and looks its fields up by name in ``fields``; each
    process's ``on_message`` then passes a handler just the fields it
    reads, such as ``on_write(src, ts, val)``."""

    kind: MsgKind
    src: str
    dst: str
    fields: Any  # mapping proxy over an immutable-valued dict

    def render(self) -> dict:
        # One unpack: a tuple field read by name costs a descriptor call.
        kind, src, dst, fields = self
        out = {"kind": kind.value, "src": src, "dst": dst}
        for key in sorted(fields):
            out[key] = render_field(fields[key])
        return out


def make_message(kind: MsgKind, src: str, dst: str, **fields: Any) -> Message:
    # A ** parameter is a fresh dict that nothing else holds, so the proxy
    # is the only way to it and the message stays immutable without a copy.
    return Message(kind, src, dst, MappingProxyType(fields))


def render_field(value: Any) -> Any:
    """Render a message field or state entry for the JSON trace."""
    # Plain strs and ints are the most common values, and an exact type
    # test is cheaper than the isinstance chain; a bool is an int subclass,
    # so it stays on the chain. The value types come next: they are tuples,
    # so they must come before the tuple branch.
    if value is None:
        return value
    cls = type(value)
    if cls is str or cls is int:
        return value
    if isinstance(value, Timestamp):
        return value.render()
    if isinstance(value, Metadata):
        return value.render()
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, bytes):
        return render_value(value)
    if isinstance(value, (frozenset, set)):
        return sorted(render_field(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [render_field(v) for v in value]
    if isinstance(value, dict):
        return {str(k): render_field(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"unrenderable trace field of type {type(value).__name__}")


class Port:
    """Runtime interface handed to a process when a simulation starts.

    ``send`` builds the message and hands it to the sender, which queues
    it for asynchronous delivery; it is the one way a message enters the
    network. ``trace`` adds a free-form note to the trace; the note's
    payload is rendered only when the trace is read, so its values must
    be immutable. ``begin`` and ``end`` are the runtime's own callables.
    ``begin(rec)`` stamps the current step as a `history.DirOpRecord`'s
    invoke and adds the record to the run's directory operations; the
    simulator begins client operations itself. ``end(rec)`` stamps the
    current step as the response of a record the process has filled in,
    a `DirOpRecord` or a client's `history.OpRecord`.
    """

    def __init__(
        self,
        sender: Callable[[Message], None],
        tracer: Callable[..., None],
        begin: Callable[[Any], None],
        end: Callable[[Any], None],
    ):
        self._sender = sender
        self._tracer = tracer
        self.begin = begin
        self.end = end

    def send(self, kind: MsgKind, src: str, dst: str, **fields: Any) -> None:
        # make_message's body, inlined, and built by tuple.__new__: this
        # runs once per message, and the NamedTuple's own __new__ is a
        # Python-level function.
        self._sender(_new_tuple(Message, (kind, src, dst, MappingProxyType(fields))))

    def trace(self, proc: str, note: str, **payload: Any) -> None:
        self._tracer(proc, note, **payload)


class Process:
    """Base class for every simulated participant. A simulation binds its
    port when it starts and unbinds it when it finishes."""

    def __init__(self, pid: str):
        self.pid = pid
        self.port: Port | None = None

    def trace_note(self, note: str, **payload: Any) -> None:
        if self.port is not None:
            self.port.trace(self.pid, note, **payload)

    def on_message(self, msg: Message) -> None:
        raise NotImplementedError

    def final_state(self) -> dict:
        """State snapshot appended to the trace when the run ends. It is
        rendered only when read, after the run."""
        return {}


class Delivery(NamedTuple):
    """A schedulable event: a message delivery, or a client invocation
    when ``msg`` is None. Crashes and adversary actions fire outside the
    pending set. The simulator builds each with ``tuple.__new__``, as
    `Port.send` builds a message."""

    seq: int
    created_step: int
    msg: Message | None = None
    pid: str | None = None  # invocations only: the invoking client
