"""Core types shared by every layer: timestamps, metadata records, and
the digest facility used to validate data replies.

Values travel as ``bytes``. The absent value (a read that observed no
completed write) is represented by ``None`` and rendered as ``null`` in
JSON output.

``Timestamp`` and ``Metadata`` are ``NamedTuple``s. Every replica,
driver and reader hashes and compares them on every store, echo and
report; as tuples they hash, compare and order in C, and building one is
a single tuple allocation. A frozen dataclass hashes the tuple of its
fields, so these hashes are the ones the earlier dataclasses had, and set
and dict orders (and with them traces) are unchanged; so are the reprs.
The looseness a tuple brings: each type equals the plain tuple of its
fields, so a ``Timestamp`` equals, and orders against, ``(num, cid)``.
"""
from __future__ import annotations

import enum
import hashlib
from typing import NamedTuple

# Client id that sorts below every real client id. Real ids are positive.
NIL = 0


class ConfigError(Exception):
    """Raised for invalid run configurations before a simulation starts."""


class HarnessError(Exception):
    """Raised when the harness itself is misused (distinct from protocol
    misbehavior, which is reported through checker verdicts)."""


class Timestamp(NamedTuple):
    """Multi-writer timestamp: a counter paired with the writer id that
    produced it. Ordered lexicographically, counter first (the field order
    below is the comparison order)."""

    num: int
    cid: int

    def next_for(self, cid: int) -> "Timestamp":
        """The timestamp a writer with id ``cid`` produces after reading
        this one: counter bumped by one, writer id replaced."""
        if cid <= NIL:
            raise HarnessError(f"cannot increment on behalf of id {cid}")
        return Timestamp(self.num + 1, cid)

    def render(self) -> str:
        num, cid = self  # one unpack: a field read by name is a descriptor call
        return f"{num}:nil" if cid == NIL else f"{num}:{cid}"


# The timestamp every store starts from.
TS_INIT = Timestamp(0, NIL)


class Metadata(NamedTuple):
    """Directory record for the most recent write: its timestamp and the
    set of data replicas known to have acknowledged the value."""

    ts: Timestamp
    replicas: frozenset[int]

    def render(self) -> dict:
        ts, replicas = self
        return {"ts": ts.render(), "replicas": sorted(replicas)}


def render_value(val: bytes | None) -> str | None:
    if val is None:
        return None
    return val.decode("latin-1")


class HashMode(enum.Enum):
    """How digests are produced.

    PRODUCTION uses a real hash. FORGEABLE behaves like PRODUCTION until
    ``forge`` installs a second preimage, which models a broken hash.
    """

    PRODUCTION = "production"
    FORGEABLE = "forgeable"

    def collision_resistant(self) -> bool:
        """True when the mode guarantees distinct values get distinct
        digests, which is what the integrity monitor relies on."""
        return self is HashMode.PRODUCTION


class DigestFacility:
    """Produces digests for values.

    One instance is shared by all processes in a run, mirroring a hash
    function everyone agrees on. ``forge`` is rejected unless the mode is
    FORGEABLE, so a PRODUCTION digest is always the value's sha256 and two
    values share one only through a sha256 collision. Whether the digests
    can be trusted is the mode's fact (``HashMode.collision_resistant``);
    the checker's value-integrity lemma is what monitors it.
    """

    def __init__(self, mode: HashMode = HashMode.PRODUCTION):
        self.mode = mode
        self._forged: dict[bytes, str] = {}

    def digest(self, value: bytes) -> str:
        if value is None:
            raise HarnessError("cannot digest the absent value")
        if not isinstance(value, bytes):
            raise HarnessError(f"values are bytes, got {type(value).__name__}")
        if value in self._forged:
            return self._forged[value]
        return hashlib.sha256(value).hexdigest()

    def forge(self, value: bytes, target: str) -> None:
        """Install ``value`` as a second preimage of ``target``. Models an
        adversary that defeats the hash; only legal in FORGEABLE mode."""
        if self.mode is not HashMode.FORGEABLE:
            raise HarnessError(f"forge is not available in {self.mode.value} mode")
        self._forged[value] = target
