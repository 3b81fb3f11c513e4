import pytest

from splitstore.net import Port


class PortProbe:
    """Capture everything a process pushes through its port.

    Unit tests wire a process to a probe instead of a full simulation and
    then feed it messages directly.
    """

    def __init__(self):
        self.sent = []
        self.notes = []
        self.records = []

    def attach(self, proc):
        proc.port = Port(
            self.sent.append,
            lambda pid, note, **payload: self.notes.append((pid, note, payload)),
            lambda channel, entry: self.records.append((channel, entry)),
        )
        return proc

    def take_sent(self):
        out = list(self.sent)
        self.sent.clear()
        return out


@pytest.fixture
def probe():
    return PortProbe()
