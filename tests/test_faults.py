import pytest

from splitstore.faults import (
    FABRICATED_CID,
    JUNK_VALUE,
    ByzDataReplica,
    ByzStrategy,
)
from splitstore.net import MsgKind, make_message
from splitstore.types import ConfigError, Timestamp

WRITERS = frozenset({"w1"})


def byz(probe, strategy):
    return probe.attach(ByzDataReplica("d3", WRITERS, strategy))


def seed_pairs(replica):
    for num, val in ((1, b"committed"), (2, b"tentative")):
        replica.on_message(
            make_message(MsgKind.WRITE, "w1", "d3", ts=Timestamp(num, 1), val=val)
        )
    replica.on_message(
        make_message(MsgKind.COMMIT, "w1", "d3", ts=Timestamp(1, 1))
    )


def read(replica, ts):
    replica.on_message(make_message(MsgKind.READ, "r1", "d3", ts=ts))


def test_strategy_parse_round_trip():
    for strat in ByzStrategy:
        assert ByzStrategy.parse(strat.value) is strat
    with pytest.raises(ConfigError):
        ByzStrategy.parse("no-such-strategy")


def test_mute_replica_never_answers(probe):
    d = byz(probe, ByzStrategy.MUTE)
    d.on_message(make_message(MsgKind.WRITE, "w1", "d3", ts=Timestamp(1, 1), val=b"v"))
    read(d, Timestamp(1, 1))
    assert not probe.sent
    assert not d.data  # it does not even store


def test_stale_concurrent_serves_the_uncommitted_maximum(probe):
    d = byz(probe, ByzStrategy.STALE_CONCURRENT)
    seed_pairs(d)
    probe.take_sent()
    read(d, Timestamp(1, 1))  # an honest replica would answer (1,1)
    reply = probe.sent[-1]
    assert reply.fields["ts"] == Timestamp(2, 1)
    assert reply.fields["val"] == b"tentative"


def test_fabricate_high_ts_invents_a_timestamp(probe):
    d = byz(probe, ByzStrategy.FABRICATE_HIGH_TS)
    seed_pairs(d)
    probe.take_sent()
    read(d, Timestamp(1, 1))
    reply = probe.sent[-1]
    assert reply.fields["ts"] == Timestamp(101, FABRICATED_CID)
    assert reply.fields["val"] == JUNK_VALUE


def test_equivocate_alternates_between_answers(probe):
    d = byz(probe, ByzStrategy.EQUIVOCATE)
    seed_pairs(d)
    probe.take_sent()
    read(d, Timestamp(1, 1))
    read(d, Timestamp(1, 1))
    first, second = probe.sent[-2], probe.sent[-1]
    assert first.fields["ts"] != second.fields["ts"]


def test_state_switch_swaps_stored_values_on_command(probe):
    d = byz(probe, ByzStrategy.STATE_SWITCH)
    seed_pairs(d)
    probe.take_sent()
    d.apply_adversary("swap-values", {"pairs": [(Timestamp(1, 1), b"evil")]})
    read(d, Timestamp(1, 1))
    assert probe.sent[-1].fields["val"] == b"evil"


def test_corrupt_all_junks_every_pair(probe):
    d = byz(probe, ByzStrategy.STATE_SWITCH)
    seed_pairs(d)
    d.apply_adversary("corrupt-all", {})
    assert set(d.data.values()) == {JUNK_VALUE}


def test_unknown_adversary_action_is_rejected(probe):
    d = byz(probe, ByzStrategy.STATE_SWITCH)
    with pytest.raises(ConfigError):
        d.apply_adversary("no-such-action", {})


def test_byzantine_writes_still_ack_outside_mute(probe):
    # only MUTE breaks the write path; the read-side strategies depend on
    # the replica still collecting pairs like a correct one
    d = byz(probe, ByzStrategy.STALE_CONCURRENT)
    d.on_message(make_message(MsgKind.WRITE, "w1", "d3", ts=Timestamp(1, 1), val=b"v"))
    assert probe.sent[-1].kind is MsgKind.WRITE_ACK
    assert d.data == {Timestamp(1, 1): b"v"}
