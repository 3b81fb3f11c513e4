import pytest

from splitstore.net import Port


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
