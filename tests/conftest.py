import hashlib
import json

import pytest

from splitstore.net import Delivery, Port


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


def fingerprint(result) -> str:
    """The golden fingerprint of a run: sha256 of its trace file's lines,
    the bytes `write_outputs` writes after the header line."""
    return hashlib.sha256("".join(result.trace_lines()).encode()).hexdigest()
