import pytest

from splitstore.history import DirOpRecord
from splitstore.mds_oracle import (
    RESPONSE_KINDS,
    DirectoryOracle,
    HashArrayOracle,
    HashArraySpec,
    OracleMdsDriver,
    TimestampedStore,
)
from splitstore.net import MsgKind, Process, make_message
from splitstore.scenarios import SCENARIO_NAMES, random_config, run_scenario
from splitstore.simnet import run
from splitstore.types import TS_INIT, HarnessError, Metadata, Timestamp


# -- sequential store ---------------------------------------------------------

CLIENTS = {"w1": 1, "w2": 2, "r1": 3}
WRITERS = frozenset({"w1", "w2"})
after_write = TimestampedStore.after_write


def test_store_starts_empty():
    assert TimestampedStore.INITIAL == (TS_INIT, None)
    assert DirectoryOracle("dir", CLIENTS, WRITERS).state == (TS_INIT, None)


def test_store_write_then_read():
    state = after_write(TimestampedStore.INITIAL, Timestamp(1, 1), "payload")
    assert state == (Timestamp(1, 1), "payload")


def test_store_ignores_older_timestamps_but_still_acks(probe):
    newer = (Timestamp(2, 1), "new")
    assert after_write(newer, Timestamp(1, 2), "old") == newer
    # The directory applies that rule, and acknowledges the older write too.
    dir_proc = probe.attach(DirectoryOracle("dir", CLIENTS, WRITERS))
    new = Metadata(ts=Timestamp(2, 1), replicas=frozenset({1}))
    old = Metadata(ts=Timestamp(1, 2), replicas=frozenset({2}))
    dir_proc.on_message(make_message(MsgKind.DIR_WRITE, "w1", "dir", tag=1, md=new))
    dir_proc.on_message(make_message(MsgKind.DIR_WRITE, "w2", "dir", tag=4, md=old))
    assert [(m.kind, m.dst, m.fields["tag"]) for m in probe.take_sent()] == [
        (MsgKind.DIR_WRITE_RESP, "w1", 1), (MsgKind.DIR_WRITE_RESP, "w2", 4)]
    assert dir_proc.state == (new.ts, new)
    dir_proc.on_message(make_message(MsgKind.DIR_READ, "r1", "dir", tag=1))
    (resp,) = probe.sent
    assert (resp.fields["ts"], resp.fields["md"]) == (new.ts, new)


def test_store_equal_timestamp_overwrites():
    # the guard is greater-or-equal, not strictly greater
    state = after_write((Timestamp(1, 1), "first"), Timestamp(1, 1), "second")
    assert state == (Timestamp(1, 1), "second")


def test_store_timestamp_never_decreases():
    state = TimestampedStore.INITIAL
    for ts in (Timestamp(1, 2), Timestamp(1, 1), Timestamp(3, 1), Timestamp(2, 2)):
        after = after_write(state, ts, ts.render())
        assert after[0] >= state[0]
        state = after


# -- digest array -------------------------------------------------------------


def test_hash_array_is_write_once_per_writer():
    a = HashArraySpec()
    idx = Timestamp(1, 1)
    a.write(idx, "d" * 64, writer=1)
    a.write(idx, "d" * 64, writer=1)  # same writer, same digest: fine
    assert a.read(idx) == "d" * 64


def test_hash_array_rejects_a_second_writer():
    a = HashArraySpec()
    idx = Timestamp(1, 1)
    a.write(idx, "d" * 64, writer=1)
    with pytest.raises(HarnessError):
        a.write(idx, "d" * 64, writer=2)


def test_hash_array_rejects_conflicting_digests():
    a = HashArraySpec()
    idx = Timestamp(1, 1)
    assert a.write(idx, "a" * 64, writer=1)
    assert not a.write(idx, "b" * 64, writer=1)  # refused, not raised
    assert a.read(idx) == "a" * 64
    assert a.write(idx, "a" * 64, writer=1)  # the first digest again is fine


def test_hash_array_miss_returns_none():
    assert HashArraySpec().read(Timestamp(7, 1)) is None


# -- process wrappers ---------------------------------------------------------


def test_directory_process_end_to_end(probe):
    dir_proc = probe.attach(DirectoryOracle("dir", CLIENTS, WRITERS))
    md = Metadata(ts=Timestamp(1, 1), replicas=frozenset({1, 2}))
    dir_proc.on_message(make_message(MsgKind.DIR_WRITE, "w1", "dir", tag=1, md=md))
    assert probe.sent[-1].kind is MsgKind.DIR_WRITE_RESP
    dir_proc.on_message(make_message(MsgKind.DIR_READ, "r1", "dir", tag=1))
    resp = probe.sent[-1]
    assert resp.kind is MsgKind.DIR_READ_RESP
    assert resp.fields["ts"] == Timestamp(1, 1) and resp.fields["md"] == md


def test_directory_ignores_writes_from_readers(probe):
    dir_proc = probe.attach(DirectoryOracle("dir", CLIENTS, WRITERS))
    md = Metadata(ts=Timestamp(1, 3), replicas=frozenset({1}))
    dir_proc.on_message(make_message(MsgKind.DIR_WRITE, "r1", "dir", tag=1, md=md))
    assert dir_proc.state == (TS_INIT, None)
    assert not probe.sent


def test_directory_flags_foreign_timestamps(probe):
    dir_proc = probe.attach(DirectoryOracle("dir", CLIENTS, WRITERS))
    md = Metadata(ts=Timestamp(1, 2), replicas=frozenset({1}))
    with pytest.raises(HarnessError):
        dir_proc.on_message(make_message(MsgKind.DIR_WRITE, "w1", "dir", tag=1, md=md))


def test_hash_process_checks_index_ownership(probe):
    arr = probe.attach(HashArrayOracle("hash", CLIENTS))
    arr.on_message(
        make_message(MsgKind.HASH_WRITE, "w1", "hash", tag=1,
                     index=Timestamp(1, 1), digest="e" * 64)
    )
    assert probe.sent[-1].kind is MsgKind.HASH_WRITE_RESP
    with pytest.raises(HarnessError):
        arr.on_message(
            make_message(MsgKind.HASH_WRITE, "w2", "hash", tag=2,
                         index=Timestamp(2, 1), digest="e" * 64)
        )


def test_hash_process_refuses_a_second_digest_without_an_ack(probe):
    arr = probe.attach(HashArrayOracle("hash", CLIENTS))
    idx = Timestamp(2, 1)
    for tag, digest in ((1, "a" * 64), (2, "b" * 64)):
        arr.on_message(
            make_message(MsgKind.HASH_WRITE, "w1", "hash", tag=tag, index=idx, digest=digest)
        )
    # the first write is acknowledged, the second only noted
    assert [(m.kind, m.fields["tag"]) for m in probe.sent] == [(MsgKind.HASH_WRITE_RESP, 1)]
    assert probe.notes == [
        ("hash", "hash-write-refused", {"src": "w1", "index": idx, "digest": "b" * 64}),
    ]
    assert arr.array.read(idx) == "a" * 64


def test_hash_process_read_miss(probe):
    arr = probe.attach(HashArrayOracle("hash", CLIENTS))
    arr.on_message(
        make_message(MsgKind.HASH_READ, "r1", "hash", tag=1, index=Timestamp(3, 1))
    )
    assert probe.sent[-1].fields["digest"] is None


# -- client driver ------------------------------------------------------------


def test_oracle_driver_records_each_call_and_its_response(probe):
    """Each call sends one tagged request and begins one record; its
    response fills in and ends that record and hands the response's fields
    to done."""
    driver = OracleMdsDriver(probe.attach(Process("r1")))
    md = Metadata(ts=Timestamp(1, 1), replicas=frozenset({1, 2}))
    idx, digest = Timestamp(1, 1), "d" * 64
    done = []
    driver.tsread(lambda ts, got: done.append(("tsread", ts, got)))
    driver.tswrite(md, lambda: done.append(("tswrite",)))
    driver.hash_write(idx, digest, lambda: done.append(("hashwrite",)))
    driver.hash_read(idx, lambda got: done.append(("hashread", got)))
    assert [(m.kind, m.dst, dict(m.fields)) for m in probe.take_sent()] == [
        (MsgKind.DIR_READ, "dir", {"tag": 1}),
        (MsgKind.DIR_WRITE, "dir", {"tag": 2, "md": md}),
        (MsgKind.HASH_WRITE, "hash", {"tag": 3, "index": idx, "digest": digest}),
        (MsgKind.HASH_READ, "hash", {"tag": 4, "index": idx}),
    ]

    def record(op, tag, response=None, **fields):
        return DirOpRecord("r1", op, tag, invoke=0, response=response, **fields)

    assert probe.begun == [
        record("tsread", 1),
        record("tswrite", 2, ts=md.ts, md=md),
        record("hashwrite", 3, index=idx, digest=digest),
        record("hashread", 4, index=idx),
    ]
    assert probe.ended == []
    probe.step = 1
    for reply in (
        make_message(MsgKind.HASH_READ_RESP, "hash", "r1", tag=4, digest=digest),
        make_message(MsgKind.DIR_WRITE_RESP, "dir", "r1", tag=2),
        make_message(MsgKind.DIR_READ_RESP, "dir", "r1", tag=1, ts=md.ts, md=md),
        make_message(MsgKind.HASH_WRITE_RESP, "hash", "r1", tag=3),
    ):
        assert driver.handle(reply)
    assert done == [("hashread", digest), ("tswrite",), ("tsread", md.ts, md), ("hashwrite",)]
    assert probe.ended == [
        record("hashread", 4, 1, index=idx, digest=digest),
        record("tswrite", 2, 1, ts=md.ts, md=md),
        record("tsread", 1, 1, ts=md.ts, md=md),
        record("hashwrite", 3, 1, index=idx, digest=digest),
    ]
    # each response ends the record its call began
    assert all(ended is probe.begun[i] for ended, i in zip(probe.ended, (3, 1, 0, 2)))
    # the oracle answers each request once, so a second response to a
    # finished call is a harness fault, not something to skip; the data
    # plane's messages are not the driver's
    with pytest.raises(KeyError):
        driver.handle(make_message(MsgKind.DIR_WRITE_RESP, "dir", "r1", tag=2))
    assert not driver.handle(make_message(MsgKind.READ_VAL, "d1", "r1", ts=md.ts, val=b"v"))
    assert len(probe.begun) == len(probe.ended) == len(done) == 4 and not probe.sent


def test_every_oracle_request_is_answered_at_most_once_and_only_while_pending(monkeypatch):
    """The directory and the digest array answer each request once, and a
    rejected write not at all, so every response the driver meets finds its
    call pending and no call is answered twice. This is why `handle` pops
    the tag without a default: there is no superseded call to skip."""
    handle = OracleMdsDriver.handle
    answered: set[tuple[OracleMdsDriver, int]] = set()

    def handle_checked(driver, msg):
        kind, _, _, fields = msg
        if kind in RESPONSE_KINDS:
            tag = fields["tag"]
            assert (driver, tag) not in answered, (driver.owner.pid, kind, tag)
            assert tag in driver._pending, (driver.owner.pid, kind, tag)
            answered.add((driver, tag))
        return handle(driver, msg)

    monkeypatch.setattr(OracleMdsDriver, "handle", handle_checked)
    for seed in range(60):
        run(random_config(seed, mds_mode="oracle"))
    for name in SCENARIO_NAMES:
        run_scenario(name)
    assert answered
