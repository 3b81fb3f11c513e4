"""Message and process plumbing shared by the protocol modules.

Processes never see the scheduler clock or each other's objects; they
only receive immutable messages and emit new ones through the runtime
port bound by the simulator. Channels are authenticated: the ``src``
field is set by the runtime, not by the sender.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, NamedTuple

from .types import Metadata, Timestamp, render_value


class MsgKind(enum.Enum):
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
    allocation; its ``fields`` mapping proxy keeps it unhashable, and
    ``msg[key]`` looks a field up by name, never a tuple slot."""

    kind: MsgKind
    src: str
    dst: str
    fields: Any  # mapping proxy over an immutable-valued dict

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

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
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, bytes):
        return render_value(value)
    # The value types are tuples, so they must be matched before the
    # tuple branch below renders them as lists.
    if isinstance(value, Timestamp):
        return value.render()
    if isinstance(value, Metadata):
        return value.render()
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
    network. ``trace`` adds a free-form note to the trace. ``record`` feeds
    structured side channels (client operation events, metadata
    sub-operations) that the simulator assembles into the history; the
    recorder is given the entry dict itself, keeps it and stamps the
    current step into it.
    """

    def __init__(
        self,
        sender: Callable[[Message], None],
        tracer: Callable[..., None],
        recorder: Callable[[str, dict], None],
    ):
        self._sender = sender
        self._tracer = tracer
        self._recorder = recorder

    def send(self, kind: MsgKind, src: str, dst: str, **fields: Any) -> None:
        # make_message's body, inlined: this runs once per message.
        self._sender(Message(kind, src, dst, MappingProxyType(fields)))

    def trace(self, proc: str, note: str, **payload: Any) -> None:
        self._tracer(proc, note, **payload)

    def record(self, channel: str, entry: dict) -> None:
        self._recorder(channel, entry)


class Process:
    """Base class for every simulated participant."""

    def __init__(self, pid: str):
        self.pid = pid
        self.port: Port | None = None

    def send(self, kind: MsgKind, dst: str, **fields: Any) -> None:
        assert self.port is not None, "process used outside a simulation"
        self.port.send(kind, self.pid, dst, **fields)

    def trace_note(self, note: str, **payload: Any) -> None:
        if self.port is not None:
            self.port.trace(self.pid, note, **payload)

    def record(self, channel: str, **entry: Any) -> None:
        assert self.port is not None, "process used outside a simulation"
        self.port.record(channel, entry)

    def on_message(self, msg: Message) -> None:
        raise NotImplementedError

    def final_state(self) -> dict:
        """State snapshot appended to the trace when the run ends."""
        return {}


@dataclass(slots=True)
class Delivery:
    """A schedulable event: a message delivery or a client invocation.
    Crashes and adversary actions fire outside the pending set."""

    seq: int
    kind: str  # "deliver" | "invoke"
    created_step: int
    msg: Message | None = None
    payload: dict | None = None  # invocations only: {"pid": client}
