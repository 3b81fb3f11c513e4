import hashlib

import pytest

from splitstore.net import render_field
from splitstore.types import (
    NIL,
    TS_INIT,
    DigestFacility,
    HarnessError,
    HashMode,
    Metadata,
    Timestamp,
    render_value,
)


def test_initial_timestamp():
    assert TS_INIT.num == 0
    assert TS_INIT.cid == NIL
    assert TS_INIT.render() == "0:nil"


@pytest.mark.parametrize(
    "lo,hi",
    [
        (Timestamp(0, NIL), Timestamp(1, 1)),
        (Timestamp(1, 1), Timestamp(1, 2)),  # same round, higher client wins
        (Timestamp(1, 9), Timestamp(2, 1)),  # round dominates client id
        (Timestamp(3, 2), Timestamp(4, 1)),
    ],
)
def test_timestamp_order_is_lexicographic(lo, hi):
    assert lo < hi
    assert hi > lo
    assert lo <= hi
    assert not hi <= lo


def test_timestamp_increment_brands_the_client():
    ts = Timestamp(4, 7).next_for(2)
    assert ts == Timestamp(5, 2)
    assert TS_INIT.next_for(3) == Timestamp(1, 3)


def test_value_render_round_trips_arbitrary_bytes():
    for val in (b"", b"abc", bytes(range(256))):
        assert render_value(val).encode("latin-1") == val
    assert render_value(None) is None


def test_metadata_render():
    md = Metadata(ts=Timestamp(2, 1), replicas=frozenset({3, 1}))
    assert md.render() == {"ts": "2:1", "replicas": [1, 3]}


# The value-type contract. Set iteration order, dict order and therefore
# traces depend on these hashes; `MetaReplica.final_state` depends on
# these reprs.

VALUES = [
    Timestamp(3, 2),
    Metadata(ts=Timestamp(2, 1), replicas=frozenset({3, 1})),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_hash_is_the_hash_of_the_field_tuple(value):
    fields = tuple(getattr(value, name) for name in type(value).__annotations__)
    assert len(fields) == 2
    assert hash(value) == hash(fields)
    assert value == type(value)(*fields)
    assert hash(value) == hash(type(value)(*fields))


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_reject_attribute_assignment(value):
    for name in type(value).__annotations__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_sorted_orders_timestamps_by_num_then_cid():
    stamps = [Timestamp(2, 1), Timestamp(1, 3), TS_INIT, Timestamp(1, 1), Timestamp(2, 0)]
    assert sorted(stamps) == sorted(stamps, key=lambda ts: (ts.num, ts.cid))
    assert sorted(stamps) == [
        TS_INIT, Timestamp(1, 1), Timestamp(1, 3), Timestamp(2, 0), Timestamp(2, 1),
    ]
    assert max(stamps) == Timestamp(2, 1)


def test_reprs_are_exact():
    assert repr(Timestamp(1, 2)) == "Timestamp(num=1, cid=2)"
    assert repr(Metadata(ts=Timestamp(1, 2), replicas=frozenset({4}))) == (
        "Metadata(ts=Timestamp(num=1, cid=2), replicas=frozenset({4}))"
    )
    assert str(("hash", Timestamp(3, 1))) == "('hash', Timestamp(num=3, cid=1))"


def test_initial_timestamp_is_truthy():
    # OpRecord.render writes the timestamp only `if self.ts`.
    assert TS_INIT
    assert bool(Timestamp(0, NIL)) is True


def test_render_field_renders_value_types_by_their_own_render():
    ts = Timestamp(2, 1)
    md = Metadata(ts=ts, replicas=frozenset({3, 1}))
    md_out = {"ts": "2:1", "replicas": [1, 3]}
    assert render_field(ts) == "2:1"
    assert render_field(TS_INIT) == "0:nil"
    assert render_field(md) == md_out
    assert render_field((ts, md)) == ["2:1", md_out]
    assert render_field(((ts, md),)) == [["2:1", md_out]]
    assert render_field(frozenset({ts, TS_INIT})) == ["0:nil", "2:1"]
    assert render_field(frozenset({md})) == [md_out]


class TestDigestFacility:
    def test_production_mode_uses_sha256(self):
        d = DigestFacility(HashMode.PRODUCTION)
        assert d.digest(b"abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
        assert d.mode.collision_resistant()

    def test_forgeable_mode_accepts_planted_collisions(self):
        d = DigestFacility(HashMode.FORGEABLE)
        target = d.digest(b"real")
        d.forge(b"fake", target)
        assert d.digest(b"fake") == target
        assert not d.mode.collision_resistant()

    @pytest.mark.parametrize("mode", [HashMode.PRODUCTION])
    def test_forgery_requires_forgeable_mode(self, mode):
        d = DigestFacility(mode)
        with pytest.raises(HarnessError):
            d.forge(b"fake", d.digest(b"real"))
        # The refused forge leaves nothing behind: every digest in this
        # mode is the value's sha256, so two values share one only through
        # a sha256 collision.
        assert d.digest(b"fake") == hashlib.sha256(b"fake").hexdigest()
