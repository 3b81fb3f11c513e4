"""End-to-end behavior of writer and reader clients, driven through small
scripted simulations so the schedules are explicit."""
import itertools
from collections import Counter, defaultdict

import pytest

from conftest import decode_events, trace_entries
from splitstore.client import ReaderClient, WritePhase, WriterClient
from splitstore.history import OpRecord
from splitstore.mds_oracle import DIR_PID, HASH_PID, OracleMdsDriver
from splitstore.mds_replicated import Pair, ReplicatedMdsDriver
from splitstore.net import MsgKind, make_message
from splitstore.scenarios import SCENARIO_NAMES, random_config, run_scenario
from splitstore.simnet import Config, Match, run
from splitstore.types import TS_INIT, DigestFacility, Metadata, Timestamp


def one_shot_config(**kw):
    base = dict(seed=0, writers=1, readers=1, ops=1,
                workload={"w1": [("WRITE", b"v")], "r1": [("READ", None)]})
    base.update(kw)
    return Config(**base)


def test_write_then_read_round_trip():
    def script(s, world):
        s.invoke("w1")
        s.drain()
        s.invoke("r1")
        s.drain()

    res = run(one_shot_config(), script=script)
    write, read = res.history
    assert write.ret == "OK" and write.ts == Timestamp(1, 1)
    assert read.ret == b"v" and read.ts == Timestamp(1, 1)


def test_write_completes_with_one_replica_starved():
    # quorum is t+1 = 2 of 3 data replicas
    def script(s, world):
        s.invoke("w1")
        s.drain(Match(dst="d1"), Match(src="d1"))

    res = run(one_shot_config(), script=script)
    assert res.history[0].ret == "OK"


def test_write_blocks_below_the_ack_quorum():
    def script(s, world):
        s.invoke("w1")
        s.drain(Match(dst="d1"), Match(src="d1"), Match(dst="d2"), Match(src="d2"))

    res = run(one_shot_config(), script=script)
    assert res.history[0].response is None


def test_response_does_not_wait_for_commit_delivery():
    """The commit round is fire-and-forget: the writer answers as soon as
    the directory accepted the metadata."""
    def script(s, world):
        s.invoke("w1")
        s.drain(Match(kind=MsgKind.COMMIT))

    res = run(one_shot_config(), script=script)
    assert res.history[0].ret == "OK"
    leftover = [e for e in trace_entries(res) if e["ev"] == "undelivered"]
    assert any(e["msg"]["kind"] == "COMMIT" for e in leftover)


def test_read_of_untouched_register_returns_no_value():
    def script(s, world):
        s.invoke("r1")
        s.drain()

    res = run(one_shot_config(), script=script)
    read = res.history[0]
    assert read.ret is None
    assert read.ts == Timestamp(0, 0)


def test_readers_never_store_values_back():
    res = run(Config(seed=5, writers=2, readers=2, ops=3))
    reader_pids = {"r1", "r2"}
    for entry in trace_entries(res):
        if entry["ev"] != "send":
            continue
        msg = entry["msg"]
        if msg["src"] in reader_pids:
            assert msg["kind"] not in ("WRITE", "COMMIT")


def test_concurrent_writers_pick_distinct_timestamps():
    res = run(Config(seed=9, writers=2, readers=0, ops=4))
    stamps = [op.ts for op in res.history if op.kind == "WRITE" and op.complete]
    assert len(stamps) == len(set(stamps)) == 8


def test_second_write_supersedes_the_first():
    # a drain also fires the client's queued follow-up operations
    cfg = Config(
        seed=0, writers=1, readers=1, ops=2,
        workload={"w1": [("WRITE", b"a"), ("WRITE", b"b")],
                  "r1": [("READ", None), ("READ", None)]},
    )

    def script(s, world):
        s.invoke("w1")
        s.drain()
        s.invoke("r1")
        s.drain()

    res = run(cfg, script=script)
    reads = [op for op in res.history if op.kind == "READ"]
    assert reads[0].ret == b"b"
    assert reads[0].ts == Timestamp(2, 1)


def test_crash_during_the_data_round_hides_the_value():
    """Stop a writer before it can tell the directory about the new
    timestamp: readers must keep returning the old state."""
    cfg = Config(
        seed=0, writers=1, readers=1, ops=1,
        workload={"w1": [("WRITE", b"v")], "r1": [("READ", None)]},
    )

    def script(s, world):
        s.invoke("w1")
        # the replicas store the value but their acks never arrive,
        # so the directory round is never started
        s.drain(Match(kind=MsgKind.WRITE_ACK))
        s.crash("w1")
        s.invoke("r1")
        s.drain()

    res = run(cfg, script=script)
    reads = [op for op in res.history if op.kind == "READ"]
    assert reads[0].ret is None


def test_crash_after_directory_write_leaves_the_value_readable():
    cfg = Config(
        seed=0, writers=1, readers=1, ops=1,
        workload={"w1": [("WRITE", b"v")], "r1": [("READ", None)]},
    )

    def script(s, world):
        s.invoke("w1")
        s.drain(Match(kind=MsgKind.COMMIT))
        s.crash("w1")  # dies with the commit round still in flight
        s.invoke("r1")
        s.drain()

    res = run(cfg, script=script)
    reads = [op for op in res.history if op.kind == "READ"]
    assert reads[0].ret == b"v"


def test_a_reply_without_a_value_is_noted_and_the_read_completes_elsewhere(probe):
    """A READ-VAL at the directory's timestamp that carries no value is
    noted as readval-absent-value and starts no digest read; the read then
    completes from another replica's reply."""
    digests = DigestFacility()
    reader = probe.attach(ReaderClient("r1", 3, digests, ["d1", "d2", "d3"], t=1))
    reader.driver = OracleMdsDriver(reader)
    op = OpRecord(op_id=1, client="r1", kind="READ", arg=None, invoke=0)
    reader.invoke(op)
    (dir_read,) = probe.take_sent()
    md = Metadata(ts=Timestamp(1, 1), replicas=frozenset({1, 2}))
    reader.on_message(make_message(MsgKind.DIR_READ_RESP, DIR_PID, "r1",
                                   tag=dir_read.fields["tag"], ts=md.ts, md=md))
    assert [(m.kind, m.dst) for m in probe.take_sent()] == [
        (MsgKind.READ, "d1"), (MsgKind.READ, "d2")]
    reader.on_message(make_message(MsgKind.READ_VAL, "d1", "r1", ts=md.ts, val=None))
    assert probe.notes == [("r1", "readval-absent-value", {"ts": md.ts})]
    assert probe.sent == [] and reader.ctx is not None
    reader.on_message(make_message(MsgKind.READ_VAL, "d2", "r1", ts=md.ts, val=b"v"))
    (hash_read,) = probe.take_sent()
    assert hash_read.kind is MsgKind.HASH_READ and hash_read.fields["index"] == md.ts
    reader.on_message(make_message(MsgKind.HASH_READ_RESP, HASH_PID, "r1",
                                   tag=hash_read.fields["tag"], digest=digests.digest(b"v")))
    assert probe.ended[-1] is op and reader.ctx is None
    assert (op.ret, op.ts, op.md_ts, op.md2_ts) == (b"v", md.ts, md.ts, None)


def test_a_reader_shows_its_directory_timestamp_once_the_directory_answers(probe):
    """A reader's final state names the timestamp of the record its read
    fetches against: none while its directory read is unanswered, then
    the record's timestamp, and it is idle once the read returns."""
    digests = DigestFacility()
    reader = probe.attach(ReaderClient("r1", 3, digests, ["d1", "d2", "d3"], t=1))
    reader.driver = OracleMdsDriver(reader)
    assert reader.final_state() == {"idle": True}
    op = OpRecord(op_id=1, client="r1", kind="READ", arg=None, invoke=0)
    reader.invoke(op)
    assert reader.final_state() == {"idle": False, "md_ts": None}
    (dir_read,) = probe.take_sent()
    md = Metadata(ts=Timestamp(2, 1), replicas=frozenset({1, 2}))
    reader.on_message(make_message(MsgKind.DIR_READ_RESP, DIR_PID, "r1",
                                   tag=dir_read.fields["tag"], ts=md.ts, md=md))
    assert reader.final_state() == {"idle": False, "md_ts": Timestamp(2, 1)}
    reader.on_message(make_message(MsgKind.READ_VAL, "d1", "r1", ts=md.ts, val=b"v"))
    (hash_read,) = [m for m in probe.take_sent() if m.kind is MsgKind.HASH_READ]
    reader.on_message(make_message(MsgKind.HASH_READ_RESP, HASH_PID, "r1",
                                   tag=hash_read.fields["tag"], digest=digests.digest(b"v")))
    assert reader.final_state() == {"idle": True}
    assert (op.ret, op.md_ts) == (b"v", Timestamp(2, 1))


# A writer's driver calls in the order it makes them, with the phase the
# writer is in while each is in flight.
WRITER_CALLS = {"tsread": WritePhase.READ_DIR, "hash_write": WritePhase.WRITE_HASH,
                "tswrite": WritePhase.WRITE_DIR}


def test_each_driver_continuation_fires_at_most_once_and_in_phase_order(monkeypatch):
    """Over random_config 0-59 in both metadata modes and every scenario, a
    metadata driver calls each continuation it is given at most once, and
    a writer's continuations fire in phase order, each while the writer is
    in the phase that made the call. So a writer's continuations need no
    staleness guard."""
    ids = itertools.count()
    fired = Counter()  # continuation id -> calls
    order = defaultdict(list)  # (run, writer) -> its calls, as their continuations fire

    def tracked(call, name):
        def track(driver, *args):
            *request, done = args
            owner, key = driver.owner, next(ids)

            def once(*result):
                fired[key] += 1
                assert fired[key] == 1, (owner.pid, name)
                if isinstance(owner, WriterClient):
                    ctx = owner.ctx
                    assert ctx is not None and ctx.phase is WRITER_CALLS[name], (
                        owner.pid, name, ctx)
                    order[runs, owner.pid].append(name)
                done(*result)

            call(driver, *request, once)
        return track

    for cls in (OracleMdsDriver, ReplicatedMdsDriver):
        for name in ("tsread", "tswrite", "hash_write", "hash_read"):
            monkeypatch.setattr(cls, name, tracked(getattr(cls, name), name))
    runs = 0
    for seed in range(60):
        for mode in ("oracle", "replicated"):
            runs += 1
            run(random_config(seed, mds_mode=mode))
    for name in SCENARIO_NAMES:
        runs += 1
        run_scenario(name, 0)
    cycle = list(WRITER_CALLS)
    for calls in order.values():
        assert calls == (cycle * len(calls))[:len(calls)], calls
    assert max(fired.values()) == 1 and len(fired) > 3000, len(fired)
    assert max(len(calls) for calls in order.values()) >= 3 * 3  # three whole writes


# -- digest checks: one hashread per index ------------------------------------

META_PIDS = ["m1", "m2", "m3", "m4"]


def probed_reader(probe, mode):
    """Reader r1 with t = t_M = 1 over data replicas d1-d3 and the
    metadata service of ``mode``, wired to the probe."""
    reader = probe.attach(ReaderClient("r1", 3, DigestFacility(), ["d1", "d2", "d3"], t=1))
    if mode == "oracle":
        reader.driver = OracleMdsDriver(reader)
    else:
        reader.driver = ReplicatedMdsDriver(reader, META_PIDS, 1, [1, 2], cid=3)
    return reader


def answer(reader, rec, md=None, digest=None):
    """Answer the reader's metadata read ``rec`` as a fault-free service
    would: the oracle with its one response; the replicas with a tsread's
    snapshots from three of them, a digest's reports from t_M + 1 = 2, and
    an unwritten index's empty reports from 2t_M + 1 = 3."""
    if isinstance(reader.driver, OracleMdsDriver):
        if rec.op == "tsread":
            msg = make_message(MsgKind.DIR_READ_RESP, DIR_PID, "r1", tag=rec.tag,
                               ts=md.ts, md=md)
        else:
            msg = make_message(MsgKind.HASH_READ_RESP, HASH_PID, "r1", tag=rec.tag,
                               digest=digest)
        reader.on_message(msg)
        return
    if rec.op == "tsread":
        updates = tuple(
            {"reg": ("dir", cid), "pairs": (Pair(md.ts, md),), "current": md.ts}
            if cid == md.ts.cid else {"reg": ("dir", cid), "pairs": (), "current": TS_INIT}
            for cid in (1, 2))
        reporters = META_PIDS[:3]
    elif digest is None:
        updates = ({"reg": ("hash", rec.index), "pairs": (), "current": TS_INIT},)
        reporters = META_PIDS[:3]
    else:
        updates = ({"reg": ("hash", rec.index), "pairs": (Pair(rec.index, digest),),
                    "current": rec.index},)
        reporters = META_PIDS[:2]
    for pid in reporters:
        reader.on_message(make_message(MsgKind.META_UPDATE, pid, "r1", tag=rec.tag,
                                       updates=updates))


def hashreads(probe):
    return [rec for rec in probe.begun if rec.op == "hashread"]


def read_val(reader, src, ts, val):
    reader.on_message(make_message(MsgKind.READ_VAL, src, "r1", ts=ts, val=val))


@pytest.mark.parametrize("mode", ["oracle", "replicated"])
def test_replies_at_one_index_share_one_hashread_and_remember_its_digest(probe, mode):
    """The t + 1 READ-VALs at the directory's index start one hashread,
    and each is checked against its answer: a Byzantine reply with a wrong
    value fails its check and the correct one passes. The reader keeps the
    digest, so a second READ at the same directory timestamp checks both
    its replies at once and starts no hashread."""
    reader = probed_reader(probe, mode)
    digest = reader.digests.digest
    md = Metadata(ts=Timestamp(1, 1), replicas=frozenset({1, 2}))
    for op_id in (1, 2):
        op = OpRecord(op_id=op_id, client="r1", kind="READ", arg=None, invoke=0)
        reader.invoke(op)
        answer(reader, probe.begun[-1], md=md)
        assert [(m.kind, m.dst) for m in probe.take_sent() if m.kind is MsgKind.READ] == [
            (MsgKind.READ, "d1"), (MsgKind.READ, "d2")]
        read_val(reader, "d1", md.ts, b"forged")
        read_val(reader, "d2", md.ts, b"v")
        if op_id == 1:
            (hashread,) = hashreads(probe)
            assert hashread.index == md.ts and reader.ctx is op and probe.notes == []
            answer(reader, hashread, digest=digest(b"v"))
        assert probe.notes[-1] == ("r1", "digest-check-failed", {"ts": md.ts})
        assert len(probe.notes) == op_id
        assert probe.ended[-1] is op and reader.ctx is None
        assert (op.ret, op.ts, op.md_ts) == (b"v", md.ts, md.ts)
    assert len(hashreads(probe)) == 1 and reader.known == {md.ts: digest(b"v")}
    assert reader.hashreads == {}


@pytest.mark.parametrize("mode", ["oracle", "replicated"])
def test_a_none_answer_sends_the_replies_that_joined_later_to_a_new_hashread(probe, mode):
    """A Byzantine replica answers with index 1:2 while w2's hashwrite of it
    is still in flight, so the hashread its reply starts can answer None.
    The correct reply at 1:2 that arrives meanwhile waits on that hashread.
    The None refutes the Byzantine reply only; the correct one waits on a
    new hashread, and the READ returns its value."""
    reader = probed_reader(probe, mode)
    digest = reader.digests.digest
    md1 = Metadata(ts=Timestamp(1, 1), replicas=frozenset({1, 2}))
    md2 = Metadata(ts=Timestamp(2, 1), replicas=frozenset({1, 2}))
    index = Timestamp(1, 2)
    op = OpRecord(op_id=1, client="r1", kind="READ", arg=None, invoke=0)
    reader.invoke(op)
    answer(reader, probe.begun[-1], md=md1)
    for src in ("d2", "d1"):  # d2 lies ahead of w2's hashwrite; d1 follows it
        read_val(reader, src, index, b"w")
        reread = probe.begun[-1]
        assert reread.op == "tsread"
        answer(reader, reread, md=md2)  # the directory has moved past 1:2
    (first,) = hashreads(probe)
    assert first.index == index and probe.notes == []
    answer(reader, first, digest=None)
    assert probe.notes == [("r1", "digest-check-failed", {"ts": index})]
    assert reader.ctx is op
    first_again, second = hashreads(probe)
    assert first_again is first and second.index == index
    assert second.invoke == first.response  # it begins as the first one ends
    answer(reader, second, digest=digest(b"w"))
    assert probe.ended[-1] is op and reader.ctx is None
    assert (op.ret, op.ts, op.md_ts, op.md2_ts) == (b"w", index, md1.ts, md2.ts)
    assert reader.known == {index: digest(b"w")} and reader.hashreads == {}


@pytest.mark.parametrize("mode", ["oracle", "replicated"])
def test_a_read_that_ends_abandons_its_replicated_hashreads_in_flight(probe, mode):
    """A READ checks one reply at the directory's 1:1 and one at 2:1 that a
    re-read vouches for; the hashread of 2:1 answers first and the READ
    returns. The hashread of 1:1 is still in flight and no READ waits on
    it. A replicated reader abandons it: it unsubscribes at every replica,
    the record keeps no response, and a late answer is ignored. The
    oracle answers every hashread, so there the hashread runs on and its
    digest is remembered."""
    reader = probed_reader(probe, mode)
    digest = reader.digests.digest
    md1 = Metadata(ts=Timestamp(1, 1), replicas=frozenset({1, 2}))
    md2 = Metadata(ts=Timestamp(2, 1), replicas=frozenset({1, 2}))
    op = OpRecord(op_id=1, client="r1", kind="READ", arg=None, invoke=0)
    reader.invoke(op)
    answer(reader, probe.begun[-1], md=md1)
    read_val(reader, "d1", md1.ts, b"v1")
    read_val(reader, "d2", md2.ts, b"v2")
    answer(reader, probe.begun[-1], md=md2)  # the re-read
    first, second = hashreads(probe)
    assert (first.index, second.index) == (md1.ts, md2.ts)
    probe.take_sent()
    answer(reader, second, digest=digest(b"v2"))
    assert probe.ended[-1] is op and (op.ret, op.ts) == (b"v2", md2.ts)
    unsubs = [(m.dst, m.fields["tag"]) for m in probe.take_sent() if m.kind is MsgKind.META_UNSUB]
    if mode == "oracle":
        assert unsubs == [] and list(reader.hashreads) == [md1.ts]
        answer(reader, first, digest=digest(b"v1"))
        assert first.digest == digest(b"v1") and probe.ended[-1] is first
        assert reader.known == {md1.ts: digest(b"v1"), md2.ts: digest(b"v2")}
    else:
        # the second hashread's own unsubscribes, then the first one's
        assert unsubs == [(pid, tag) for tag in (second.tag, first.tag) for pid in META_PIDS]
        assert reader.hashreads == {} and reader.driver._reads == {}
        answer(reader, first, digest=digest(b"v1"))
        assert first.response is None and first.digest is None and probe.ended[-1] is op
        assert reader.known == {md2.ts: digest(b"v2")}
    assert reader.hashreads == {}


def client_state(client):
    """A client's state and its driver's, as reprs: every field, and
    every record, context and request that they hold."""
    driver = client.driver
    return repr(vars(client)), repr(vars(driver)), repr(vars(driver.log))


@pytest.mark.parametrize("mode", ["oracle", "replicated"])
def test_a_client_ignores_the_other_clients_data_reply(probe, mode):
    """A writer in its data round given a READ-VAL, and a reader waiting
    for READ-VALs given a WRITE-ACK, each at the timestamp in flight,
    send nothing, note nothing and change no state of their own or of
    their driver's. The reply each one does wait for still acts."""
    writer = probe.attach(WriterClient("w1", 1, DigestFacility(), ["d1", "d2", "d3"], t=1))
    if mode == "oracle":
        writer.driver = OracleMdsDriver(writer)
    else:
        writer.driver = ReplicatedMdsDriver(writer, META_PIDS, 1, [1, 2], cid=1)
    write = OpRecord(op_id=1, client="w1", kind="WRITE", arg=b"v", invoke=0)
    writer.invoke(write)
    answer(writer, probe.begun[-1], md=Metadata(ts=Timestamp(1, 2), replicas=frozenset({1})))
    hash_write = probe.begun[-1]
    assert hash_write.op == "hashwrite"
    if mode == "oracle":
        writer.on_message(make_message(MsgKind.HASH_WRITE_RESP, HASH_PID, "w1",
                                       tag=hash_write.tag))
    else:
        store = next(m for m in probe.sent if m.kind is MsgKind.META_STORE)
        for pid in META_PIDS[:3]:
            writer.on_message(make_message(MsgKind.META_ACK, pid, "w1", reg=store.fields["reg"],
                                           key=store.fields["key"], seq=store.fields["seq"]))
    assert writer.ctx.phase is WritePhase.WRITE_DATA and write.ts == Timestamp(2, 1)
    probe.take_sent()
    before = client_state(writer)
    writer.on_message(make_message(MsgKind.READ_VAL, "d1", "w1", ts=write.ts, val=b"v"))
    assert probe.sent == [] and probe.notes == [] and client_state(writer) == before
    writer.on_message(make_message(MsgKind.WRITE_ACK, "d1", "w1", ts=write.ts))
    assert writer.ctx.acks == {1}

    reader = probed_reader(probe, mode)
    md = Metadata(ts=Timestamp(1, 1), replicas=frozenset({1, 2}))
    read = OpRecord(op_id=2, client="r1", kind="READ", arg=None, invoke=0)
    reader.invoke(read)
    answer(reader, probe.begun[-1], md=md)
    assert read.md_ts == md.ts
    probe.take_sent()
    before, begun = client_state(reader), len(probe.begun)
    reader.on_message(make_message(MsgKind.WRITE_ACK, "d1", "r1", ts=md.ts))
    assert probe.sent == [] and probe.notes == [] and client_state(reader) == before
    assert len(probe.begun) == begun
    read_val(reader, "d1", md.ts, b"v")
    assert probe.begun[-1].op == "hashread" and list(reader.hashreads) == [md.ts]


def test_no_reader_has_two_hashreads_of_one_index_in_flight():
    """Over random_config 0-59 in both metadata modes, no reader's hashreads
    of one index overlap, and readers do share: replies reach a reader at
    an index whose hashread is in flight, and READs return a value with no
    hashread of their own."""
    joins = remembered = 0
    for seed in range(60):
        for mode in ("oracle", "replicated"):
            result = run(random_config(seed, mds_mode=mode))
            readers = {op.client for op in result.history if op.kind == "READ"}
            by_index = defaultdict(list)
            for rec in result.dir_ops:  # in invoke order
                if rec.op == "hashread" and rec.proc in readers:
                    by_index[rec.proc, rec.index].append(rec)
            for recs in by_index.values():
                for before, after in zip(recs, recs[1:]):
                    assert before.response is not None, (seed, mode, before)
                    assert before.response <= after.invoke, (seed, mode, before, after)
            for event in decode_events(result):
                if isinstance(event, dict) or event[1] != "deliver":
                    continue
                step, _, _, msg = event
                if msg is None or msg.kind is not MsgKind.READ_VAL:
                    continue
                joins += any(
                    rec.invoke < step and (rec.response is None or step < rec.response)
                    for rec in by_index.get((msg.dst, msg.fields["ts"]), ()))
            for op in result.history:
                if op.kind == "READ" and op.complete and op.ret is not None:
                    remembered += not any(
                        op.invoke <= rec.invoke <= op.response
                        for rec in by_index.get((op.client, op.ts), ()))
    assert joins >= 50 and remembered >= 10, (joins, remembered)  # 98 and 27
