import pytest

from splitstore.net import MsgKind, make_message
from splitstore.replica import DataReplica
from splitstore.types import TS_INIT, HarnessError, Timestamp

WRITERS = frozenset({"w1", "w2"})


def fresh(probe, pid="d1"):
    return probe.attach(DataReplica(pid, WRITERS))


def write(replica, src, ts, val):
    replica.on_message(make_message(MsgKind.WRITE, src, replica.pid, ts=ts, val=val))


def commit(replica, src, ts):
    replica.on_message(make_message(MsgKind.COMMIT, src, replica.pid, ts=ts))


def read(replica, src, ts):
    replica.on_message(make_message(MsgKind.READ, src, replica.pid, ts=ts))


def last_read_val(probe):
    msg = probe.sent[-1]
    assert msg.kind is MsgKind.READ_VAL
    return msg.fields["ts"], msg.fields["val"]


def test_write_stores_and_acks(probe):
    d = fresh(probe)
    ts = Timestamp(1, 1)
    write(d, "w1", ts, b"v")
    assert d.data == {ts: b"v"}
    ack = probe.sent[-1]
    assert ack.kind is MsgKind.WRITE_ACK and ack.dst == "w1" and ack.fields["ts"] == ts


def test_stale_write_is_acked_but_not_stored(probe):
    d = fresh(probe)
    write(d, "w1", Timestamp(2, 1), b"new")
    commit(d, "w1", Timestamp(2, 1))
    probe.take_sent()
    write(d, "w2", Timestamp(1, 2), b"old")
    assert Timestamp(1, 2) not in d.data
    # the late writer still gets its ack so it can finish
    assert probe.sent[-1].kind is MsgKind.WRITE_ACK


def test_same_timestamp_same_value_is_idempotent(probe):
    d = fresh(probe)
    write(d, "w1", Timestamp(1, 1), b"v")
    write(d, "w1", Timestamp(1, 1), b"v")
    assert d.data == {Timestamp(1, 1): b"v"}


def test_conflicting_value_for_one_timestamp_is_a_harness_bug(probe):
    d = fresh(probe)
    write(d, "w1", Timestamp(1, 1), b"v")
    with pytest.raises(HarnessError):
        write(d, "w1", Timestamp(1, 1), b"other")


def test_write_from_non_writer_is_dropped(probe):
    d = fresh(probe)
    write(d, "r1", Timestamp(1, 1), b"v")
    assert not d.data
    assert not probe.sent


def test_commit_prunes_older_tentative_values(probe):
    d = fresh(probe)
    write(d, "w1", Timestamp(1, 1), b"a")
    write(d, "w2", Timestamp(2, 2), b"b")
    write(d, "w1", Timestamp(3, 1), b"c")
    commit(d, "w2", Timestamp(2, 2))
    assert d.committed == Timestamp(2, 2)
    assert set(d.data) == {Timestamp(2, 2), Timestamp(3, 1)}


def test_commit_without_the_value_does_nothing(probe):
    d = fresh(probe)
    commit(d, "w1", Timestamp(5, 1))
    assert d.committed == TS_INIT


def test_commit_never_regresses(probe):
    d = fresh(probe)
    write(d, "w1", Timestamp(3, 1), b"c")
    commit(d, "w1", Timestamp(3, 1))
    write(d, "w2", Timestamp(1, 2), b"a")  # ignored, too old
    commit(d, "w2", Timestamp(1, 2))
    assert d.committed == Timestamp(3, 1)


def test_read_serves_the_requested_tentative_value(probe):
    d = fresh(probe)
    write(d, "w1", Timestamp(2, 1), b"v")
    probe.take_sent()
    read(d, "r1", Timestamp(2, 1))
    assert last_read_val(probe) == (Timestamp(2, 1), b"v")


def test_read_bumps_stale_requests_to_the_committed_value(probe):
    d = fresh(probe)
    write(d, "w1", Timestamp(4, 1), b"new")
    commit(d, "w1", Timestamp(4, 1))
    probe.take_sent()
    read(d, "r1", Timestamp(1, 2))
    assert last_read_val(probe) == (Timestamp(4, 1), b"new")


def test_read_ahead_of_the_replica_falls_back_to_committed(probe):
    d = fresh(probe)
    write(d, "w1", Timestamp(1, 1), b"v")
    commit(d, "w1", Timestamp(1, 1))
    probe.take_sent()
    read(d, "r1", Timestamp(9, 2))
    assert last_read_val(probe) == (Timestamp(1, 1), b"v")


def test_fresh_replica_answers_reads_with_the_empty_pair(probe):
    d = fresh(probe)
    read(d, "r1", TS_INIT)
    assert last_read_val(probe) == (TS_INIT, None)


def test_final_state_snapshot(probe):
    d = fresh(probe)
    write(d, "w1", Timestamp(1, 1), b"a")
    commit(d, "w1", Timestamp(1, 1))
    state = d.final_state()
    assert state["committed"] == Timestamp(1, 1)
    assert state["data"] == [{"ts": Timestamp(1, 1), "val": b"a"}]
