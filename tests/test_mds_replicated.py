"""The quorum metadata service: unit tests against a hand-pumped replica
group, then whole-system runs through the simulator."""
import random
from collections import Counter, deque

import pytest

from conftest import decode_events, message_counts
from splitstore.checker import check_run
from splitstore.faults import (
    FABRICATED_CID, ByzMetaReplica, ByzStrategy, CrashSpec,
)
from splitstore.mds_replicated import (
    INITIAL_PAIR, MetaReplica, Pair, ReplicatedMdsDriver,
)
from splitstore.history import DirOpRecord
from splitstore.net import MsgKind, Port, Process, make_message
from splitstore.scenarios import random_config
from splitstore.simnet import Config, Match, Simulation, build_world, run
from splitstore.types import TS_INIT, DigestFacility, Metadata, Timestamp

CLIENTS = {"w1": 1, "w2": 2, "r1": 3}


def payload_token(payload):
    """A string token for a pair's payload, for the reference order."""
    if payload is None:
        return ""
    if isinstance(payload, Metadata):
        return f"md:{payload.ts.render()}|{','.join(map(str, sorted(payload.replicas)))}"
    return f"raw:{payload!r}"


def pair_sort_key(pair):
    """The tests' reference pair order: the key, then the payload's token.
    It is total, so it also orders pairs that share a key, which the
    service never compares; where keys differ it is the tuple order."""
    return (pair.key, payload_token(pair.payload))


class Router:
    """Synchronous pump for a group of metadata replicas."""

    def __init__(self, tm=1, m=4, byz=None):
        pids = [f"m{i}" for i in range(1, m + 1)]
        byz = byz or {}
        self.replicas = {
            pid: ByzMetaReplica(pid, pids, tm, CLIENTS, [1, 2], byz[pid])
            if pid in byz else MetaReplica(pid, pids, tm, CLIENTS, [1, 2])
            for pid in pids
        }
        self.queue = deque()
        self.outbox = []  # traffic addressed to clients
        for rep in self.replicas.values():
            # replicas keep no history records, so they get no begin or end
            rep.port = Port(self._route, lambda *a, **k: None, None, None)

    def _route(self, msg):
        if msg.dst in self.replicas:
            self.queue.append(msg)
        else:
            self.outbox.append(msg)

    def inject(self, kind, src, dst, **fields):
        self.replicas[dst].on_message(make_message(kind, src, dst, **fields))

    def pump(self):
        while self.queue:
            msg = self.queue.popleft()
            self.replicas[msg.dst].on_message(msg)

    def acks(self, dst):
        return [m for m in self.outbox if m.kind is MsgKind.META_ACK and m.dst == dst]


MD = Metadata(ts=Timestamp(1, 1), replicas=frozenset({1, 2}))


def store_to(router, pids, reg=("dir", 1), key=Timestamp(1, 1), payload=MD, seq=1):
    for pid in pids:
        router.inject(MsgKind.META_STORE, "w1", pid, reg=reg, key=key,
                      payload=payload, seq=seq)


def test_quorum_store_establishes_everywhere():
    r = Router()
    store_to(r, ["m1", "m2", "m3"])
    r.pump()
    for rep in r.replicas.values():
        reg = rep.registers[("dir", 1)]
        assert reg.current.key == Timestamp(1, 1)
        assert any(p.key == Timestamp(1, 1) for p in reg.established)
    # every replica acknowledges once it has established the pair
    assert len(r.acks("w1")) == 4


def test_two_direct_stores_are_enough_to_establish():
    # t_m + 1 distinct echoes, and only direct receivers echo up front
    r = Router()
    store_to(r, ["m1", "m2"])
    r.pump()
    assert all(
        rep.registers[("dir", 1)].current.key == Timestamp(1, 1)
        for rep in r.replicas.values()
    )


def test_one_store_cannot_establish():
    r = Router()
    store_to(r, ["m1"])
    r.pump()
    for rep in r.replicas.values():
        assert rep.registers[("dir", 1)].current == INITIAL_PAIR
    assert not r.acks("w1")


def test_a_single_forged_echo_is_ignored():
    """One lying replica is below the echo threshold, so a pair nobody
    stored can never become visible."""
    r = Router()
    fake = Metadata(ts=Timestamp(9, 1), replicas=frozenset({1}))
    for dst in ("m1", "m2", "m3"):
        r.inject(MsgKind.META_ECHO, "m4", dst,
                 reg=("dir", 1), key=Timestamp(9, 1), payload=fake, storers=())
    r.pump()
    for pid in ("m1", "m2", "m3"):
        reg = r.replicas[pid].registers[("dir", 1)]
        assert reg.current == INITIAL_PAIR
        assert not reg.established


def test_store_for_a_foreign_register_is_rejected():
    r = Router()
    r.inject(MsgKind.META_STORE, "w2", "m1",
             reg=("dir", 1), key=Timestamp(1, 1), payload=MD, seq=1)
    r.pump()
    assert r.replicas["m1"].registers[("dir", 1)].pairs == {}


def test_digest_register_rejects_a_second_digest(probe):
    rep = probe.attach(MetaReplica("m1", ["m1", "m2", "m3", "m4"], 1, CLIENTS, [1, 2]))
    idx = Timestamp(1, 1)
    for seq, digest in ((1, "a" * 64), (2, "b" * 64)):
        rep.on_message(make_message(MsgKind.META_STORE, "w1", "m1",
                                    reg=("hash", idx), key=idx, payload=digest, seq=seq))
    # the first digest is established and acked at once; the second is only noted
    assert [(m.kind, m.dst, m.fields) for m in probe.sent] == [
        (MsgKind.META_ACK, "w1", {"reg": ("hash", idx), "key": idx, "seq": 1})
    ]
    assert probe.notes == [
        ("m1", "meta-store-refused", {"src": "w1", "reg": ("hash", idx), "payload": "b" * 64}),
    ]
    assert list(rep.registers[("hash", idx)].pairs) == [Pair(idx, "a" * 64)]
    assert rep.digests.read(idx) == "a" * 64


HASH_IDX = Timestamp(1, 1)
HASH_PAIR = Pair(HASH_IDX, "a" * 64)


def registers_of(rep):
    """A replica's register state, for comparing before and after."""
    return {
        reg: (rs.established, {pair: (set(st.echoes), set(st.storers), st.established)
                               for pair, st in rs.pairs.items()})
        for reg, rs in rep.registers.items()
    }


@pytest.mark.parametrize("tm", [1, 2])
def test_a_hash_store_is_established_and_acked_with_no_echo(probe, tm):
    """A correct replica establishes its owner's digest as soon as it
    accepts the store: it acks the storer and pushes the pair to a
    subscribed reader, and echoes nothing, at whatever t_M."""
    pids = [f"m{i}" for i in range(1, 3 * tm + 2)]
    rep = probe.attach(MetaReplica("m1", pids, tm, CLIENTS, [1, 2]))
    rep.on_message(make_message(MsgKind.META_QUERY, "r1", "m1", scope=("hash", HASH_IDX), tag=5))
    probe.take_sent()  # the snapshot
    rep.on_message(make_message(MsgKind.META_STORE, "w1", "m1", reg=("hash", HASH_IDX),
                                key=HASH_IDX, payload=HASH_PAIR.payload, seq=3))
    assert [(m.kind, m.dst) for m in probe.sent] == [
        (MsgKind.META_ACK, "w1"), (MsgKind.META_UPDATE, "r1")]
    assert probe.sent[1].fields["updates"] == (
        {"reg": ("hash", HASH_IDX), "pairs": (HASH_PAIR,), "current": HASH_IDX},)
    assert rep.registers[("hash", HASH_IDX)].established == (HASH_PAIR,)
    # a repeated store is acked again and pushes nothing
    probe.take_sent()
    rep.on_message(make_message(MsgKind.META_STORE, "w1", "m1", reg=("hash", HASH_IDX),
                                key=HASH_IDX, payload=HASH_PAIR.payload, seq=4))
    assert [(m.kind, m.fields["seq"]) for m in probe.sent] == [(MsgKind.META_ACK, 4)]


@pytest.mark.parametrize("kind", ["echo", "write-back", "foreign store"])
def test_only_the_owners_store_changes_a_digest_register(probe, kind):
    """A META-ECHO or a META-WRITEBACK of a digest register, from any
    sender, and a META-STORE from a client that does not own the index,
    leave a correct replica's registers as they were and send nothing,
    whether the replica holds the index's digest or not."""
    rep = probe.attach(MetaReplica("m1", ["m1", "m2", "m3", "m4"], 1, CLIENTS, [1, 2]))
    other = Timestamp(2, 1)
    rep.on_message(make_message(MsgKind.META_STORE, "w1", "m1", reg=("hash", HASH_IDX),
                                key=HASH_IDX, payload=HASH_PAIR.payload, seq=1))
    probe.take_sent()
    before = registers_of(rep)
    for idx in (HASH_IDX, other):
        for digest in ("a" * 64, "b" * 64):
            fields = dict(reg=("hash", idx), key=idx, payload=digest)
            if kind == "echo":
                msgs = [make_message(MsgKind.META_ECHO, src, "m1", storers=(("w1", 1),), **fields)
                        for src in ("m2", "m3", "m4")]
            elif kind == "write-back":
                msgs = [make_message(MsgKind.META_WRITEBACK, "r1", "m1", seq=9, **fields)]
            else:
                msgs = [make_message(MsgKind.META_STORE, src, "m1", seq=9, **fields)
                        for src in ("w2", "r1", "stranger")]
            for msg in msgs:
                rep.on_message(msg)
    assert registers_of(rep) == before
    assert probe.sent == []
    assert rep.digests.entries == {HASH_IDX: "a" * 64}


def test_subscribers_get_snapshot_and_live_updates():
    r = Router()
    store_to(r, ["m1", "m2", "m3"], key=Timestamp(1, 1))
    r.pump()
    r.inject(MsgKind.META_QUERY, "r1", "m1", scope="dir", tag=7)
    snapshot = [m for m in r.outbox if m.kind is MsgKind.META_UPDATE and m.dst == "r1"]
    assert snapshot
    seen = {p.key for u in snapshot[-1].fields["updates"] for p in u["pairs"]}
    assert Timestamp(1, 1) in seen
    # a later establishment is pushed incrementally
    md2 = Metadata(ts=Timestamp(2, 2), replicas=frozenset({2, 3}))
    for pid in ("m1", "m2", "m3"):
        r.inject(MsgKind.META_STORE, "w2", pid,
                 reg=("dir", 2), key=Timestamp(2, 2), payload=md2, seq=2)
    r.pump()
    updates = [m for m in r.outbox if m.kind is MsgKind.META_UPDATE and m.dst == "r1"]
    pushed = {p.key for u in updates[-1].fields["updates"] for p in u["pairs"]}
    assert Timestamp(2, 2) in pushed


def test_scrambled_replica_snapshots_its_scrambled_state_in_order():
    r = Router(byz={"m4": ByzStrategy.STATE_SWITCH})
    for num in (1, 2, 10):
        md = Metadata(ts=Timestamp(num, 1), replicas=frozenset({1, 2}))
        store_to(r, ["m1", "m2", "m3", "m4"], key=Timestamp(num, 1), payload=md, seq=num)
        r.pump()
    m4 = r.replicas["m4"]

    def snapshot(tag):
        r.inject(MsgKind.META_QUERY, "r1", "m4", scope="dir", tag=tag)
        update = r.outbox[-1].fields["updates"][0]
        assert update["reg"] == ("dir", 1)
        return update["pairs"]

    before = snapshot(1)
    assert len(before) == 3
    m4.apply_adversary("scramble", {})
    established = m4.registers[("dir", 1)].established
    # no new establishment between the scramble and the query
    assert tuple(snapshot(2)) == tuple(sorted(established, key=pair_sort_key))
    assert tuple(snapshot(2)) != tuple(before)


def test_a_late_establishment_keeps_pair_order():
    """A replica may establish a lower pair after a higher one, when the
    lower pair's echoes reach it last. Its established pairs stay in pair
    order, so its current stays the higher pair, in snapshots and in the
    live push of the lower one."""
    r = Router()
    m1 = r.replicas["m1"]
    r.inject(MsgKind.META_QUERY, "r1", "m1", scope="dir", tag=7)
    pairs = [Pair(Timestamp(n, 1), Metadata(ts=Timestamp(n, 1), replicas=frozenset({1, 2})))
             for n in (1, 2)]
    for pair in reversed(pairs):
        for src in ("m2", "m3"):
            r.inject(MsgKind.META_ECHO, src, "m1", reg=("dir", 1), key=pair.key,
                     payload=pair.payload, storers=(("w1", pair.key.num),))
    reg = m1.registers[("dir", 1)]
    assert reg.established == tuple(pairs)
    assert reg.current == pairs[1]
    pushed = [m.fields["updates"] for m in r.outbox if m.kind is MsgKind.META_UPDATE][1:]
    assert pushed == [
        ({"reg": ("dir", 1), "pairs": (pair,), "current": pairs[1].key},)
        for pair in reversed(pairs)
    ]
    r.inject(MsgKind.META_QUERY, "r1", "m1", scope="dir", tag=8)
    assert r.outbox[-1].fields["updates"][0] == {
        "reg": ("dir", 1), "pairs": tuple(pairs), "current": pairs[1].key}


def test_unsubscribe_stops_the_updates():
    r = Router()
    r.inject(MsgKind.META_QUERY, "r1", "m1", scope="dir", tag=7)
    r.inject(MsgKind.META_UNSUB, "r1", "m1", tag=7)
    before = len(r.outbox)
    store_to(r, ["m1", "m2", "m3"])
    r.pump()
    updates = [m for m in r.outbox[before:]
               if m.kind is MsgKind.META_UPDATE and m.dst == "r1"]
    assert not updates


def test_an_unsubscribe_that_overtakes_its_query_leaves_a_tombstone():
    """A META-UNSUB for a read the replica does not hold leaves a
    tombstone; that read's late META-QUERY consumes it, subscribes nothing
    and is sent no snapshot, and no later establishment is pushed to it.
    In the usual order the unsubscribe removes the listener and leaves no
    tombstone. Another read of the same client is not affected."""
    r = Router()
    m1 = r.replicas["m1"]
    r.inject(MsgKind.META_UNSUB, "r1", "m1", tag=7)
    assert m1.tombstones == {("r1", 7)} and m1.listeners == {}
    r.inject(MsgKind.META_QUERY, "r1", "m1", scope="dir", tag=7)
    assert m1.tombstones == set() and m1.listeners == {}
    r.inject(MsgKind.META_QUERY, "r1", "m1", scope="dir", tag=8)
    r.inject(MsgKind.META_UNSUB, "r1", "m1", tag=8)
    assert m1.tombstones == set() and m1.listeners == {}
    store_to(r, ["m1", "m2", "m3"])
    r.pump()
    assert m1.registers[("dir", 1)].current.key == Timestamp(1, 1)
    assert [m.fields["tag"] for m in r.outbox
            if m.kind is MsgKind.META_UPDATE and m.src == "m1"] == [8]


FAKE_TS = Timestamp(999, FABRICATED_CID)
FAKE_PAIRS = {
    "dir": Pair(FAKE_TS, Metadata(ts=FAKE_TS, replicas=frozenset({1}))),
    "hash": Pair(FAKE_TS, "00" * 32),
}


@pytest.mark.parametrize(
    "strategy",
    [ByzStrategy.STALE_CONCURRENT, ByzStrategy.FABRICATE_HIGH_TS, ByzStrategy.EQUIVOCATE],
    ids=lambda s: s.value,
)
def test_byzantine_snapshot_replies(strategy):
    """A lying replica's snapshot for each register against the honest m1's:
    STALE reports nothing, FABRICATE-HIGH-TS an invented high pair, and
    EQUIVOCATE fabricates on odd tags only. Live pushes stay honest, and
    STALE sends none."""
    r = Router(byz={"m4": strategy})
    idx = Timestamp(1, 1)
    store_to(r, ["m1", "m2", "m3", "m4"])
    store_to(r, ["m1", "m2", "m3", "m4"], reg=("hash", idx), key=idx, payload="d" * 64, seq=2)
    r.pump()
    for tag, scope in ((1, "dir"), (2, "dir"), (3, ("hash", idx)), (4, ("hash", idx))):
        r.inject(MsgKind.META_QUERY, "r1", "m1", scope=scope, tag=tag)
        honest = r.outbox[-1].fields["updates"]
        r.inject(MsgKind.META_QUERY, "r1", "m4", scope=scope, tag=tag)
        reply = r.outbox[-1]
        assert (reply.kind, reply.src, reply.dst, reply.fields["tag"]) == (
            MsgKind.META_UPDATE, "m4", "r1", tag)
        regs = [u["reg"] for u in honest]
        assert regs == ([("dir", 1), ("dir", 2)] if scope == "dir" else [scope])
        if strategy is ByzStrategy.STALE_CONCURRENT:
            want = tuple({"reg": reg, "pairs": (), "current": TS_INIT} for reg in regs)
        elif strategy is ByzStrategy.FABRICATE_HIGH_TS or tag % 2 == 1:
            want = tuple(
                {"reg": reg, "pairs": (FAKE_PAIRS[reg[0]],), "current": FAKE_TS}
                for reg in regs
            )
        else:
            want = honest
        assert reply.fields["updates"] == want
        stored = MD if scope == "dir" else "d" * 64
        assert honest[0]["pairs"] == (Pair(idx, stored),)
    before = len(r.outbox)
    md2 = Metadata(ts=Timestamp(2, 2), replicas=frozenset({2, 3}))
    for pid in ("m1", "m2", "m3"):
        r.inject(MsgKind.META_STORE, "w2", pid,
                 reg=("dir", 2), key=Timestamp(2, 2), payload=md2, seq=1)
    r.pump()
    pushed = [m for m in r.outbox[before:] if m.src == "m4" and m.kind is MsgKind.META_UPDATE]
    if strategy is ByzStrategy.STALE_CONCURRENT:
        assert pushed == []
    else:
        update = {"reg": ("dir", 2), "pairs": (Pair(md2.ts, md2),), "current": md2.ts}
        assert [(m.fields["tag"], m.fields["updates"]) for m in pushed] == [
            (1, (update,)), (2, (update,))]


# -- incremental read evaluation against a recount ------------------------------


class RecountRead:
    """Reference read evaluation: keep every replica's reports and recount
    them from scratch on each message."""

    def __init__(self, tm, writer_cids, scope):
        self.tm = tm
        self.quorum = 2 * tm + 1
        self.writer_cids = writer_cids
        self.scope = scope
        self.snapshots = set()
        self.reports = {}  # reg -> pid -> set of pairs
        self.currents = {}  # reg -> pid -> key

    def add(self, src, updates):
        self.snapshots.add(src)
        for update in updates:
            reg = update["reg"]
            pairs = self.reports.setdefault(reg, {}).setdefault(src, set())
            pairs.update(update["pairs"])
            self.currents.setdefault(reg, {})[src] = update["current"]

    def confirmed(self, reg):
        counts = Counter()
        for pairs in self.reports.get(reg, {}).values():
            counts.update(pairs)
        return [pair for pair, n in counts.items() if n >= self.tm + 1]

    def decision(self):
        """None while undecided, else what the read does next. A hashread
        returns a pair tm + 1 replicas report at once, and waits for 2tm + 1
        repliers only to return None."""
        if self.scope != "dir":
            confirmed = self.confirmed(self.scope)
            if confirmed:
                return ("digest", max(confirmed, key=pair_sort_key).payload)
            if len(self.snapshots) < self.quorum:
                return None
            empties = sum(1 for pid in self.snapshots
                          if not self.reports.get(self.scope, {}).get(pid))
            return ("digest", None) if empties >= self.quorum else None
        if len(self.snapshots) < self.quorum:
            return None
        best = best_reg = None
        for cid in self.writer_cids:
            reg = ("dir", cid)
            candidate = max(self.confirmed(reg) + [INITIAL_PAIR], key=pair_sort_key)
            evidence = sum(1 for key in self.currents.get(reg, {}).values()
                           if key <= candidate.key)
            if evidence < self.quorum:
                return None
            if best is None or pair_sort_key(candidate) > pair_sort_key(best):
                best, best_reg = candidate, reg
        if best.key == TS_INIT:
            return ("tsread", TS_INIT, None)
        reporters = sum(1 for pairs in self.reports[best_reg].values() if best in pairs)
        if reporters >= self.quorum:
            return ("tsread", best.key, best.payload)
        return ("writeback", best_reg, best.key, best.payload)


class DriverOwner:
    """Stands in for the client process that owns a driver. Its port
    records each message the driver sends, as (kind, dst, fields), and
    keeps the history records the driver begins and ends."""

    pid = "r1"

    def __init__(self):
        self.sent = []
        self.begun = []
        self.ended = []
        self.port = Port(self._record, None, self.begun.append, self.ended.append)

    def _record(self, msg):
        assert msg.src == self.pid
        self.sent.append((msg.kind, msg.dst, dict(msg.fields)))


def pair_pool(scope, writer_cids, liar):
    """Candidate pairs per register: a key-only initial pair, stored pairs
    and a pair no writer stored. A liar's pool also holds each stored key
    with other payloads, as a scrambled replica reports it. At most tm
    replicas lie, so, as in a run, no two pairs that reach tm + 1
    reporters share a key."""
    if scope != "dir":
        index = scope[1]
        digests = ("aa", "bb", "ff") if liar else ("aa",)
        return {scope: [Pair(index, d * 32) for d in digests]}
    pool = {}
    for cid in writer_cids:
        pairs = [INITIAL_PAIR]
        for num in (1, 2, 3):
            ts = Timestamp(num, cid)
            for replicas in ({1, 2}, {2, 3}) if liar else ({1, 2},):
                pairs.append(Pair(ts, Metadata(ts=ts, replicas=frozenset(replicas))))
        fake = Timestamp(999, 99)
        pairs.append(Pair(fake, Metadata(ts=fake, replicas=frozenset({1}))))
        pool[("dir", cid)] = pairs
    return pool


def random_updates(rng, pool, sent_before, sparse):
    """One META-UPDATE's updates: a snapshot of every register or a live
    update of one, with empty, repeated and fabricated pairs and currents
    that may go down. ``sparse`` is the chance of an empty report."""
    regs = sorted(pool)
    if rng.random() < 0.4:
        regs = [rng.choice(regs)]
    updates = []
    for reg in regs:
        roll = rng.random()
        if roll < sparse:
            pairs = ()
        elif roll < sparse + 0.2 and sent_before.get(reg):
            pairs = tuple(rng.sample(sent_before[reg], k=min(2, len(sent_before[reg]))))
        else:
            pairs = tuple(rng.sample(pool[reg], k=rng.randint(1, min(3, len(pool[reg])))))
        sent_before.setdefault(reg, []).extend(pairs)
        roll = rng.random()
        if roll < sparse:
            current = TS_INIT
        else:
            current = rng.choice([p.key for p in pool[reg]])
        updates.append({"reg": reg, "pairs": pairs, "current": current})
    return tuple(updates)


def driver_decision(owner, done_calls, scope):
    if done_calls:
        (args,) = done_calls
        return ("digest", args[0]) if scope != "dir" else ("tsread",) + args
    writebacks = [f for kind, _, f in owner.sent if kind is MsgKind.META_WRITEBACK]
    if writebacks:
        f = writebacks[0]
        assert f["reg"][0] == "dir"
        return ("writeback", f["reg"], f["key"], f["payload"])
    return None


@pytest.mark.parametrize("tm", [1, 2])
@pytest.mark.parametrize("op", ["tsread", "hashread"])
def test_incremental_read_evaluation_matches_a_recount(tm, op):
    """After every META-UPDATE, the driver has decided exactly when the
    recount decides, and on the same pair or digest."""
    rng = random.Random(f"{op}-{tm}")
    meta_pids = [f"m{i}" for i in range(1, 3 * tm + 2)]
    writer_cids = [1, 2]
    outcomes = Counter()
    for _ in range(300):
        sparse = rng.choice([0.2, 0.6, 0.9])
        owner = DriverOwner()
        driver = ReplicatedMdsDriver(owner, meta_pids, tm, writer_cids, cid=3)
        done_calls = []
        if op == "tsread":
            scope = "dir"
            driver.tsread(lambda *args: done_calls.append(args))
        else:
            scope = ("hash", Timestamp(rng.randint(1, 3), 1))
            driver.hash_read(scope[1], lambda *args: done_calls.append(args))
        tag = owner.sent[0][2]["tag"]
        reference = RecountRead(tm, writer_cids, scope)
        pools = {pid: pair_pool(scope, writer_cids, liar=pid in meta_pids[-tm:])
                 for pid in meta_pids}
        sent_before = {pid: {} for pid in meta_pids}
        for step in range(40):
            src = rng.choice(meta_pids)
            updates = random_updates(rng, pools[src], sent_before[src], sparse)
            reference.add(src, updates)
            driver.handle(make_message(MsgKind.META_UPDATE, src, "r1", tag=tag, updates=updates))
            want = reference.decision()
            got = driver_decision(owner, done_calls, scope)
            assert got == want, (step, got, want)
            # the read's record ends exactly when it hands its result on
            assert owner.ended == (owner.begun if done_calls else [])
            if want is not None:
                outcomes[want[0], want[-1] is None] += 1
                if len(reference.snapshots) < reference.quorum:
                    outcomes["before a quorum of snapshots"] += 1
                break
            if len(reference.snapshots) >= reference.quorum:
                outcomes["not yet after a quorum of snapshots"] += 1
    # the streams reach every outcome, and often stay undecided after a
    # quorum of snapshots has arrived; a tsread returns the initial state,
    # writes back, or returns a pair 2t_M+1 replicas reported; a hashread
    # returns a digest or None, and a digest also before 2t_M+1 repliers
    if op == "tsread":
        kinds = {("writeback", False), ("tsread", True), ("tsread", False)}
    else:
        kinds = {("digest", False), ("digest", True), "before a quorum of snapshots"}
    assert kinds <= set(outcomes), outcomes
    assert outcomes["not yet after a quorum of snapshots"] >= 100, outcomes


def test_replicated_driver_records_each_call_and_its_result(probe):
    """Each call begins one record. A store ends it at its 2t_M+1-th ack;
    a tsread only after its write-back quorum, with ts and md; a hashread
    with its digest, at its t_M+1-th report of it. Late acks and updates
    end nothing."""
    meta_pids = ["m1", "m2", "m3", "m4"]
    driver = ReplicatedMdsDriver(
        probe.attach(Process("w1")), meta_pids, 1, [1, 2], cid=1
    )
    md = Metadata(ts=Timestamp(1, 1), replicas=frozenset({1, 2}))
    idx, digest = md.ts, "d" * 64
    done = []

    def feed(kind, src, **fields):
        probe.step += 1
        assert driver.handle(make_message(kind, src, "w1", **fields))

    def record(op, tag, response=None, invoke=0, **fields):
        return DirOpRecord("w1", op, tag, invoke=invoke, response=response, **fields)

    driver.tswrite(md, lambda: done.append(("tswrite",)))
    driver.hash_write(idx, digest, lambda: done.append(("hashwrite",)))
    assert probe.begun == [
        record("tswrite", 1, ts=md.ts, md=md),
        record("hashwrite", 2, index=idx, digest=digest),
    ]
    stores = [(m.kind, m.fields["seq"]) for m in probe.take_sent()]
    assert stores == [(MsgKind.META_STORE, 1)] * 4 + [(MsgKind.META_STORE, 2)] * 4
    for seq, reg, key in ((1, ("dir", 1), md.ts), (2, ("hash", idx), idx)):
        for src in ("m1", "m2", "m3"):
            assert len(probe.ended) == seq - 1
            feed(MsgKind.META_ACK, src, reg=reg, key=key, seq=seq)
    assert probe.ended == [
        record("tswrite", 1, 3, ts=md.ts, md=md),
        record("hashwrite", 2, 6, index=idx, digest=digest),
    ]
    assert done == [("tswrite",), ("hashwrite",)]

    driver.tsread(lambda ts, got: done.append(("tsread", ts, got)))
    driver.hash_read(idx, lambda got: done.append(("hashread", got)))
    assert probe.begun[2:] == [
        record("tsread", 3, invoke=6), record("hashread", 4, invoke=6, index=idx),
    ]
    probe.take_sent()
    empty_dir2 = {"reg": ("dir", 2), "pairs": (), "current": TS_INIT}
    dir_updates = ({"reg": ("dir", 1), "pairs": (Pair(md.ts, md),), "current": md.ts}, empty_dir2)
    # m3 has not established the pair yet, so only 2t_M replicas report it
    lagging = ({"reg": ("dir", 1), "pairs": (), "current": TS_INIT}, empty_dir2)
    for src, updates in (("m1", dir_updates), ("m2", dir_updates), ("m3", lagging)):
        feed(MsgKind.META_UPDATE, src, tag=3, updates=updates)
    # the tsread writes the confirmed pair back before it returns
    writebacks = [m for m in probe.take_sent() if m.kind is MsgKind.META_WRITEBACK]
    assert [(m.fields["reg"], m.fields["key"], m.fields["payload"], m.fields["seq"])
            for m in writebacks] == [
        (("dir", 1), md.ts, md, 3)] * 4
    for src in ("m1", "m2"):
        feed(MsgKind.META_ACK, src, reg=("dir", 1), key=md.ts, seq=3)
    assert len(probe.ended) == 2
    feed(MsgKind.META_ACK, "m3", reg=("dir", 1), key=md.ts, seq=3)
    hash_updates = ({"reg": ("hash", idx), "pairs": (Pair(idx, digest),), "current": idx},)
    # m2 has not established the digest yet, so the t_M+1-th report is m3's
    hash_lagging = ({"reg": ("hash", idx), "pairs": (), "current": TS_INIT},)
    for src, updates in (("m1", hash_updates), ("m2", hash_lagging), ("m3", hash_updates)):
        feed(MsgKind.META_UPDATE, src, tag=4, updates=updates)
    assert probe.ended[2:] == [
        record("tsread", 3, 12, invoke=6, ts=md.ts, md=md),
        record("hashread", 4, 15, invoke=6, index=idx, digest=digest),
    ]
    assert all(ended is begun for ended, begun in zip(probe.ended, probe.begun))
    assert done[2:] == [("tsread", md.ts, md), ("hashread", digest)]

    # late acks and updates, for stores and reads that have ended
    feed(MsgKind.META_ACK, "m4", reg=("dir", 1), key=md.ts, seq=1)
    feed(MsgKind.META_ACK, "m4", reg=("dir", 1), key=md.ts, seq=3)
    feed(MsgKind.META_UPDATE, "m4", tag=3, updates=dir_updates)
    feed(MsgKind.META_UPDATE, "m4", tag=4, updates=hash_updates)
    assert len(probe.begun) == len(probe.ended) == len(done) == 4


@pytest.mark.parametrize("tm", [1, 2])
@pytest.mark.parametrize("reporters", ["2tm", "2tm+1"])
def test_a_tsread_skips_the_write_back_of_a_pair_a_quorum_reported(probe, tm, reporters):
    """A tsread whose chosen pair 2t_M+1 replicas report returns it at that
    update, unsubscribes everywhere and writes nothing back. With 2t_M
    reporters, and a third replier whose current is not above the pair,
    its evidence is complete too, but it writes the pair back to every
    replica and has not returned."""
    meta_pids = [f"m{i}" for i in range(1, 3 * tm + 2)]
    driver = ReplicatedMdsDriver(probe.attach(Process("r1")), meta_pids, tm, [1, 2], cid=3)
    md = Metadata(ts=Timestamp(2, 1), replicas=frozenset({1, 2}))
    done = []
    driver.tsread(lambda ts, got: done.append((ts, got)))
    tag = probe.begun[0].tag
    probe.take_sent()
    empty_dir2 = {"reg": ("dir", 2), "pairs": (), "current": TS_INIT}
    reporting = ({"reg": ("dir", 1), "pairs": (Pair(md.ts, md),), "current": md.ts}, empty_dir2)
    # at or below the pair: it reports an older pair of the same register
    older = Pair(Timestamp(1, 1), Metadata(ts=Timestamp(1, 1), replicas=frozenset({1, 2})))
    lagging = ({"reg": ("dir", 1), "pairs": (older,), "current": older.key}, empty_dir2)
    count = 2 * tm if reporters == "2tm" else 2 * tm + 1
    repliers = [(pid, reporting) for pid in meta_pids[:count]]
    if reporters == "2tm":
        repliers.append((meta_pids[count], lagging))
    for pid, updates in repliers:
        assert probe.ended == [] and probe.sent == []
        probe.step += 1
        assert driver.handle(make_message(MsgKind.META_UPDATE, pid, "r1", tag=tag,
                                          updates=updates))
    sent = [(m.kind, m.dst) for m in probe.take_sent()]
    if reporters == "2tm":
        assert sent == [(MsgKind.META_WRITEBACK, pid) for pid in meta_pids]
        assert probe.ended == [] and done == []
    else:
        assert sent == [(MsgKind.META_UNSUB, pid) for pid in meta_pids]
        assert probe.ended == [DirOpRecord("r1", "tsread", tag, invoke=0,
                                           response=probe.step, ts=md.ts, md=md)]
        assert done == [(md.ts, md)]


@pytest.mark.parametrize("tm", [1, 2])
def test_a_hashread_returns_a_digest_on_tm_plus_1_matching_reports(probe, tm):
    """A hashread of a written index ends at its t_M+1-th matching report,
    before 2t_M+1 replicas have replied, and unsubscribes everywhere. A
    hashread of an unwritten index waits for 2t_M+1 empty reports and
    returns None."""
    meta_pids = [f"m{i}" for i in range(1, 3 * tm + 2)]
    driver = ReplicatedMdsDriver(probe.attach(Process("r1")), meta_pids, tm, [1, 2], cid=3)
    written, unwritten = Timestamp(1, 1), Timestamp(2, 1)
    digest = "d" * 64
    done = []
    driver.hash_read(written, lambda got: done.append(("written", got)))
    driver.hash_read(unwritten, lambda got: done.append(("unwritten", got)))
    probe.take_sent()

    def feed(pid, rec, pairs):
        probe.step += 1
        current = pairs[0].key if pairs else TS_INIT
        updates = ({"reg": ("hash", rec.index), "pairs": pairs, "current": current},)
        assert driver.handle(make_message(MsgKind.META_UPDATE, pid, "r1", tag=rec.tag,
                                          updates=updates))

    first, second = probe.begun
    for pid in meta_pids[:tm]:
        feed(pid, first, (Pair(written, digest),))
    assert probe.sent == [] and probe.ended == [] and done == []
    feed(meta_pids[tm], first, (Pair(written, digest),))  # t_M+1 < 2t_M+1 repliers
    assert done == [("written", digest)]
    assert probe.ended == [DirOpRecord("r1", "hashread", first.tag, invoke=0,
                                       response=probe.step, index=written, digest=digest)]
    assert [(m.kind, m.dst) for m in probe.take_sent()] == [
        (MsgKind.META_UNSUB, pid) for pid in meta_pids]

    for pid in meta_pids[:2 * tm]:
        feed(pid, second, ())
    assert probe.sent == [] and len(probe.ended) == 1
    feed(meta_pids[2 * tm], second, ())  # the 2t_M+1-th empty report
    assert done[1:] == [("unwritten", None)]
    assert probe.ended[1:] == [DirOpRecord("r1", "hashread", second.tag, invoke=0,
                                           response=probe.step, index=unwritten)]


def test_a_tsread_in_write_back_takes_no_more_reports(probe):
    """Once a tsread writes its pair back, later reports change nothing:
    updates that confirm a higher pair and fresh snapshots send no second
    write-back, the record ends once, with the first pair, at the
    write-back's third ack, and one META-UNSUB then goes to each replica."""
    meta_pids = ["m1", "m2", "m3", "m4"]
    driver = ReplicatedMdsDriver(probe.attach(Process("r1")), meta_pids, 1, [1, 2], cid=3)
    md1 = Metadata(ts=Timestamp(1, 1), replicas=frozenset({1, 2}))
    md2 = Metadata(ts=Timestamp(2, 1), replicas=frozenset({2, 3}))
    done = []

    def feed(kind, src, **fields):
        probe.step += 1
        assert driver.handle(make_message(kind, src, "r1", **fields))

    driver.tsread(lambda ts, md: done.append((ts, md)))
    tag = probe.begun[0].tag
    probe.take_sent()
    empty_dir2 = {"reg": ("dir", 2), "pairs": (), "current": TS_INIT}
    snapshot = ({"reg": ("dir", 1), "pairs": (Pair(md1.ts, md1),), "current": md1.ts}, empty_dir2)
    # m3 has not established the pair yet, so only 2t_M replicas report it
    lagging = ({"reg": ("dir", 1), "pairs": (), "current": TS_INIT}, empty_dir2)
    for src, updates in (("m1", snapshot), ("m2", snapshot), ("m3", lagging)):
        feed(MsgKind.META_UPDATE, src, tag=tag, updates=updates)
    assert [(m.kind, m.dst, m.fields["key"], m.fields["seq"]) for m in probe.take_sent()] == [
        (MsgKind.META_WRITEBACK, pid, md1.ts, 1) for pid in meta_pids]

    # the window: every replica confirms a higher pair, m4's first snapshot
    # lists it, and the other replicas snapshot again
    higher = ({"reg": ("dir", 1), "pairs": (Pair(md2.ts, md2),), "current": md2.ts},)
    both = ({"reg": ("dir", 1), "pairs": (Pair(md1.ts, md1), Pair(md2.ts, md2)),
             "current": md2.ts}, empty_dir2)
    for src in meta_pids:
        feed(MsgKind.META_UPDATE, src, tag=tag, updates=higher)
    for src in meta_pids:
        feed(MsgKind.META_UPDATE, src, tag=tag, updates=both)
    feed(MsgKind.META_ACK, "m1", reg=("dir", 1), key=md1.ts, seq=1)
    feed(MsgKind.META_UPDATE, "m2", tag=tag, updates=higher)
    feed(MsgKind.META_ACK, "m2", reg=("dir", 1), key=md1.ts, seq=1)
    assert probe.sent == [] and probe.ended == [] and done == []

    feed(MsgKind.META_ACK, "m3", reg=("dir", 1), key=md1.ts, seq=1)
    assert probe.ended == [DirOpRecord("r1", "tsread", tag, invoke=0, response=probe.step,
                                       ts=md1.ts, md=md1)]
    assert done == [(md1.ts, md1)]
    assert [(m.kind, m.dst, m.fields["tag"]) for m in probe.take_sent()] == [
        (MsgKind.META_UNSUB, pid, tag) for pid in meta_pids]

    # a late ack and a late update end nothing and send nothing
    feed(MsgKind.META_ACK, "m4", reg=("dir", 1), key=md1.ts, seq=1)
    feed(MsgKind.META_UPDATE, "m4", tag=tag, updates=higher)
    assert probe.sent == [] and len(probe.ended) == len(done) == 1


# the payloads a scrambled replica reports in place of the stored ones
SCRAMBLED = (
    Metadata(ts=Timestamp(998, FABRICATED_CID), replicas=frozenset({1})),
    "ff" * 32,
)


def test_replicas_report_established_pairs_in_pair_order(monkeypatch):
    """Over the replicated seeds of the campaign, which cover every metadata
    strategy, scramble among them: every META-UPDATE entry an honest
    replica sends lists its pairs strictly ascending in pair order, and in
    a query's reply its current is the last pair's key, or TS_INIT when it
    lists none. Every honest replica's final state keeps the same rule. A
    scrambled replica's entries are still ascending. In every honest or
    scrambled entry keys strictly increase, and no two pairs that tm + 1
    replicas report to one read share a key: the service compares pairs
    as tuples, and these are why keys decide every comparison. Every
    entry of every replica, Byzantine ones included, carries a `Timestamp`
    current, as `update_entry` builds it, so the driver takes each current
    without testing it for None."""
    send, final_state = Port.send, MetaReplica.final_state
    byz = {}  # pid -> strategy, for the run in progress
    queried = set()  # (replica, client, tag) of each query not yet answered
    reporters = {}  # (client, tag, reg, pair) -> replicas that reported it
    confirmed = {}  # (client, tag, reg, key) -> the pair tm + 1 replicas reported
    tm = 1
    seen = Counter()

    def ascending(pairs):
        keys = [pair_sort_key(p) for p in pairs]
        return all(a < b for a, b in zip(keys, keys[1:]))

    def confirm(src, dst, tag, entry):
        assert type(entry["current"]) is Timestamp, (src, entry)
        reg = entry["reg"]
        for pair in entry["pairs"]:
            pids = reporters.setdefault((dst, tag, reg, pair), set())
            pids.add(src)
            if len(pids) == tm + 1:
                other = confirmed.setdefault((dst, tag, reg, pair.key), pair)
                assert other == pair, (dst, tag, reg, other, pair)
                seen["confirmed"] += 1

    def send_checked(port, kind, src, dst, **fields):
        if kind is MsgKind.META_UPDATE:
            for entry in fields["updates"]:
                confirm(src, dst, fields["tag"], entry)
        if kind is MsgKind.META_QUERY:
            queried.add((dst, src, fields["tag"]))
        elif kind is MsgKind.META_UPDATE and byz.get(src) in (None, ByzStrategy.STATE_SWITCH):
            reply = (src, dst, fields["tag"]) in queried
            queried.discard((src, dst, fields["tag"]))
            for entry in fields["updates"]:
                pairs = entry["pairs"]
                assert ascending(pairs), (src, entry)
                assert all(a.key < b.key for a, b in zip(pairs, pairs[1:])), (src, entry)
                if byz.get(src) is not None:
                    seen["scrambled"] += any(
                        p.key != TS_INIT and p.payload in SCRAMBLED for p in pairs)
                elif reply:
                    assert entry["current"] == (pairs[-1].key if pairs else TS_INIT), entry
                    seen["reply of 2+ pairs"] += len(pairs) >= 2
                else:
                    assert len(pairs) == 1 and entry["current"] >= pairs[0].key, entry
                    seen["push"] += 1
        send(port, kind, src, dst, **fields)

    def final_state_checked(rep):
        out = final_state(rep)
        if rep.pid not in byz:
            for reg in out.values():
                pairs = [Pair(p["key"], p["payload"]) for p in reg["established"]]
                assert ascending(pairs), (rep.pid, reg)
                assert reg["current"] == (pairs[-1].key if pairs else TS_INIT), (rep.pid, reg)
                seen["final register"] += 1
        return out

    monkeypatch.setattr(Port, "send", send_checked)
    monkeypatch.setattr(MetaReplica, "final_state", final_state_checked)
    strategies = set()
    for seed in range(1, 240):
        cfg = random_config(seed)
        if cfg.mds_mode != "replicated":
            continue
        assert cfg.tm == tm
        byz.clear()
        byz.update(cfg.byz_meta)
        strategies.update(cfg.byz_meta.values())
        queried.clear()
        reporters.clear()
        confirmed.clear()
        run(cfg)
    assert strategies == set(ByzStrategy)
    assert min(seen.values()) > 0 and len(seen) == 5, seen


def test_only_a_pair_not_yet_established_can_establish(monkeypatch):
    """`_take` acks an established pair's storers and returns, so
    `_maybe_establish`, which only `_take` calls, never meets an
    established pair."""
    take, maybe_establish = MetaReplica._take, MetaReplica._maybe_establish
    seen = Counter()

    def take_counting(rep, reg, pair, storers, echoer=None):
        rs = rep.registers.get(reg)
        st = rs.pairs.get(pair) if rs is not None else None
        seen["intake of an established pair"] += st is not None and st.established
        take(rep, reg, pair, storers, echoer)

    def maybe_establish_checked(rep, reg, pair, st):
        assert not st.established, (rep.pid, reg, pair)
        maybe_establish(rep, reg, pair, st)
        seen["established" if st.established else "still short of echoes"] += 1

    monkeypatch.setattr(MetaReplica, "_take", take_counting)
    monkeypatch.setattr(MetaReplica, "_maybe_establish", maybe_establish_checked)
    for seed in range(1, 240):
        cfg = random_config(seed)
        if cfg.mds_mode == "replicated":
            run(cfg)
    assert len(seen) == 3 and min(seen.values()) > 0, seen


def test_a_read_has_replied_to_it_every_replica_it_holds_a_current_from(monkeypatch):
    """Every entry of a META-UPDATE records its sender's current, and a
    hashread's scope is one register, so whenever a hashread is evaluated
    the replicas that have sent it an update, counted here from the
    delivered messages, are exactly its register's ``currents`` keys. A
    tsread needs 2*tm + 1 currents at or below its candidate in every
    register, so by the time it decides, 2*tm + 1 replicas have replied.
    Over random_config 0-59 in replicated mode and the replicated-long
    shape (ops 30) at seeds 0-7."""
    handle = ReplicatedMdsDriver.handle
    evaluate_hashread = ReplicatedMdsDriver._evaluate_hashread
    evaluate_tsread = ReplicatedMdsDriver._evaluate_tsread
    senders = {}  # (run, client, tag) -> the replicas whose updates reached the read
    seen = Counter()
    runs = 0

    def handle_counting(driver, msg):
        if msg.kind is MsgKind.META_UPDATE:
            senders.setdefault((runs, msg.dst, msg.fields["tag"]), set()).add(msg.src)
        return handle(driver, msg)

    def repliers(driver, read):
        return senders[runs, driver.owner.pid, read.rec.tag]

    def evaluate_hashread_checked(driver, read):
        assert repliers(driver, read) == read.currents[read.scope].keys()
        evaluate_hashread(driver, read)
        seen["hashread decided" if read.rec.tag not in driver._reads else
             "hashread undecided"] += 1

    def evaluate_tsread_checked(driver, read):
        evaluate_tsread(driver, read)
        if read.rec.tag not in driver._reads:
            assert len(repliers(driver, read)) >= driver.quorum
            seen["tsread decided"] += 1

    monkeypatch.setattr(ReplicatedMdsDriver, "handle", handle_counting)
    monkeypatch.setattr(ReplicatedMdsDriver, "_evaluate_hashread", evaluate_hashread_checked)
    monkeypatch.setattr(ReplicatedMdsDriver, "_evaluate_tsread", evaluate_tsread_checked)
    configs = [random_config(seed, mds_mode="replicated") for seed in range(60)]
    configs += [Config(seed=seed, t=1, tm=1, writers=2, readers=2, ops=30,
                       mds_mode="replicated") for seed in range(8)]
    for cfg in configs:
        runs += 1
        run(cfg)
    assert len(seen) == 3 and min(seen.values()) > 100, seen


# -- full-system runs ---------------------------------------------------------


def replicated_config(**kw):
    base = dict(seed=11, ops=2, mds_mode="replicated")
    base.update(kw)
    return Config(**base)


def test_fault_free_replicated_run_is_clean():
    res = run(replicated_config())
    assert res.quiescent
    assert check_run(res).ok


@pytest.mark.parametrize("strategy", list(ByzStrategy))
def test_one_byzantine_metadata_replica_is_tolerated(strategy):
    cfg = replicated_config(byz_meta={"m4": strategy})
    res = run(cfg)
    verdict = check_run(res)
    assert verdict.ok, verdict.failed()


def test_writer_crash_mid_write_leaves_readers_live():
    cfg = replicated_config(
        seed=23, crashes=(CrashSpec(process="w1", at_phase="WRITE-DIR"),)
    )
    res = run(cfg)
    verdict = check_run(res)
    assert verdict.ok, verdict.failed()
    reads = [op for op in res.history if op.client.startswith("r")]
    assert reads and all(op.complete for op in reads)


def test_byzantine_metadata_plus_data_replica_together():
    cfg = replicated_config(
        seed=31,
        byz_data={"d3": ByzStrategy.EQUIVOCATE},
        byz_meta={"m2": ByzStrategy.FABRICATE_HIGH_TS},
    )
    res = run(cfg)
    verdict = check_run(res)
    assert verdict.ok, verdict.failed()


@pytest.mark.parametrize("byz", ["none", "byzantine"])
@pytest.mark.parametrize("tm", [1, 2])
def test_no_run_echoes_a_digest_and_each_hash_ack_follows_its_store(tm, byz):
    """Whole runs at t = t_M, without and with t_M Byzantine metadata
    replicas: no replica sends a META-ECHO of a digest register, and a
    correct replica acks a hashwrite in the step it takes the owner's
    META-STORE. Every hashwrite completes and every run passes."""
    strategies = [ByzStrategy.STALE_CONCURRENT, ByzStrategy.EQUIVOCATE]
    byz_meta = {} if byz == "none" else {
        f"m{3 * tm + 1 - i}": strategies[i] for i in range(tm)}
    acks = 0
    for seed in range(6):
        res = run(Config(seed=seed, t=tm, tm=tm, ops=4, mds_mode="replicated",
                         byz_meta=byz_meta))
        verdict = check_run(res)
        assert verdict.ok and res.quiescent, verdict.failed()
        assert all(op.complete for op in res.dir_ops if op.op == "hashwrite")
        stored = set()
        for event in decode_events(res):
            if isinstance(event, dict):
                continue
            step, ev, _reason, msg = event
            if msg is None or msg.fields.get("reg", ("",))[0] != "hash":
                continue
            assert msg.kind is not MsgKind.META_ECHO, (seed, msg)
            if ev == "deliver" and msg.kind is MsgKind.META_STORE:
                stored.add((step, msg.dst, msg.src, msg.fields["seq"]))
            elif ev == "send" and msg.kind is MsgKind.META_ACK and msg.src not in byz_meta:
                assert (step, msg.src, msg.dst, msg.fields["seq"]) in stored, (seed, msg)
                acks += 1
    # 2 writers x 4 hashwrites a run, each acked by every correct replica
    assert acks >= 6 * 2 * 4 * (2 * tm + 1)


@pytest.mark.parametrize("mode", ["oracle", "replicated"])
@pytest.mark.parametrize("readers", [1, 2])
def test_a_run_with_no_writers_reads_the_initial_state(mode, readers):
    """With no writer there is no directory register to wait on: every
    read returns the absent value, and the run ends quiescent and clean."""
    for seed in range(5):
        res = run(Config(seed=seed, writers=0, readers=readers, mds_mode=mode))
        assert res.quiescent
        verdict = check_run(res)
        assert verdict.ok, verdict.failed()
        assert len(res.history) == readers * res.config.ops
        assert all(op.kind == "READ" and op.complete and op.ret is None
                   for op in res.history)


@pytest.mark.parametrize("tm", [1, 2, 3])
def test_most_tsreads_skip_their_write_back(tm):
    """By the time a tsread's evidence is complete, 2t_M+1 replicas usually
    report the pair it chose, so at most one tsread in ten writes back,
    counted over seeds 0-9 together. A tsread writes back when it overlaps
    the tswrite of the pair it chose, and one seed's readers can overlap
    writes more often than that (seed 1 at t_M = 2: 21 of 121). Every read
    that queries the 3t_M+1 replicas also unsubscribes at each."""
    replicas = 3 * tm + 1
    write_backs = tsreads = 0
    for seed in range(10):
        res = run(Config(seed=seed, t=tm, tm=tm, ops=30, mds_mode="replicated"))
        counts = message_counts(res)
        assert counts[MsgKind.META_WRITEBACK] % replicas == 0
        assert counts[MsgKind.META_QUERY] == counts[MsgKind.META_UNSUB]
        write_backs += counts[MsgKind.META_WRITEBACK] // replicas
        tsreads += sum(1 for op in res.dir_ops if op.op == "tsread")
    assert 0 < write_backs <= tsreads // 10


@pytest.mark.parametrize("t", [1, 2, 3])
def test_a_lone_writers_messages_follow_a_closed_form(t):
    """One writer, no readers, no faults, t = t_M. Each write sends 2t+1
    each of WRITE, WRITE-ACK and COMMIT. In oracle mode it also sends one
    each of DIR-READ, DIR-WRITE and HASH-WRITE, and their responses. In
    replicated mode each metadata store (a tswrite or a hashwrite) sends
    M META-STORE and M META-ACK, where M = 3t_M+1; a tswrite also sends
    M(M-1) META-ECHO, and a hashwrite none. Each tsread sends M
    META-QUERY and M META-UNSUB. Its META-UPDATEs depend on
    the schedule, so they are bounds: a tsread hears a snapshot from at
    least 2t_M+1 replicas (a replica that takes the unsubscribe first
    sends none), and beyond one snapshot per query a replica pushes at
    most one update per store it takes."""
    ops, data = 4, 2 * t + 1
    oracle = message_counts(run(Config(seed=1, t=t, tm=t, writers=1, readers=0, ops=ops)))
    assert oracle == {
        **{kind: data * ops for kind in (MsgKind.WRITE, MsgKind.WRITE_ACK, MsgKind.COMMIT)},
        **{kind: ops for kind in (
            MsgKind.DIR_READ, MsgKind.DIR_READ_RESP, MsgKind.DIR_WRITE, MsgKind.DIR_WRITE_RESP,
            MsgKind.HASH_WRITE, MsgKind.HASH_WRITE_RESP,
        )},
    }
    res = run(Config(seed=1, t=t, tm=t, writers=1, readers=0, ops=ops, mds_mode="replicated"))
    counts = message_counts(res)
    m = 3 * t + 1
    tswrites = sum(1 for op in res.dir_ops if op.op == "tswrite")
    stores = tswrites + sum(1 for op in res.dir_ops if op.op == "hashwrite")
    tsreads = sum(1 for op in res.dir_ops if op.op == "tsread")
    assert (tswrites, stores, tsreads) == (ops, 2 * ops, ops)
    assert {kind: counts.pop(kind) for kind in (
        MsgKind.WRITE, MsgKind.WRITE_ACK, MsgKind.COMMIT,
        MsgKind.META_STORE, MsgKind.META_ECHO, MsgKind.META_ACK,
    )} == {
        MsgKind.WRITE: data * ops, MsgKind.WRITE_ACK: data * ops, MsgKind.COMMIT: data * ops,
        MsgKind.META_STORE: m * stores, MsgKind.META_ECHO: m * (m - 1) * tswrites,
        MsgKind.META_ACK: m * stores,
    }
    assert counts.keys() == {MsgKind.META_QUERY, MsgKind.META_UNSUB, MsgKind.META_UPDATE}
    assert counts[MsgKind.META_QUERY] == counts[MsgKind.META_UNSUB] == m * tsreads
    assert (2 * t + 1) * tsreads <= counts[MsgKind.META_UPDATE] <= m * (tsreads + stores)
    # A replica acks a store once it has established the pair. A tswrite's
    # pair needs t_M+1 echoes of it, its own and t_M delivered from its
    # peers; a hashwrite's needs only the owner's store.
    echoed: dict = {}
    for event in decode_events(res):
        if isinstance(event, dict):
            continue
        _step, ev, _reason, msg = event
        pair = (msg.fields.get("reg"), msg.fields.get("key"))
        if ev == "deliver" and msg.kind is MsgKind.META_ECHO:
            echoed.setdefault((msg.dst, *pair), set()).add(msg.src)
        elif ev == "send" and msg.kind is MsgKind.META_ACK and pair[0][0] == "dir":
            assert len(echoed.get((msg.src, *pair), ())) >= t, (msg.src, pair)


COLLECT_DEFECT = (
    "known defect: a tsread takes a collect over the per-writer registers, not "
    "an atomic snapshot, so its evidence for each register can come from reports "
    "of different ages. "
)


@pytest.mark.parametrize("seed", [
    pytest.param(3755, marks=pytest.mark.xfail(strict=True, reason=COLLECT_DEFECT + (
        "r1's tsread [71,169] returns w1's 1:1, although w2's tswrite 1:2 [65,96] "
        "completed before w1's tswrite 1:1 [100,146] began. dir/2's evidence that "
        "no pair above the initial one completed is m2's snapshot, sent at step 79 "
        "before m2 established 1:2 at 85; m1's snapshot, sent at 77 before m1 "
        "established 1:2 at 81 and delivered at 92, after m1's live push of 1:2 "
        "(delivered at 83), so it lowered m1's recorded current back to the initial "
        "key; and the stale-concurrent m4. dir/1's 1:1 is confirmed by m1's and m2's "
        "live updates, sent at 114 and 126; the read writes it back at 130"
    ))),
    # Witnesses of earlier read paths, which pass since digest stores stopped
    # echoing and moved their schedules; the defect is not mended.
    5628,
    12623,
])
def test_a_collect_read_is_directory_linearizable(seed):
    """The known witnesses of the collect defect: t = t_M = 1, two
    writers, one reader, six ops each, a stale-concurrent m4. Seed 3755
    is the one failing seed of this shape in 0-17999; it fails directory
    linearizability with a tsread that returns w1's 1:1 after w2's
    tswrite 1:2 completed. Seeds 5628 and 12623 failed the same way
    before digest stores stopped echoing, and are kept as runs that
    must pass."""
    cfg = Config(seed=seed, readers=1, ops=6, mds_mode="replicated",
                 byz_meta={"m4": ByzStrategy.STALE_CONCURRENT})
    verdict = check_run(run(cfg))
    assert verdict.ok, verdict.failed()


def test_a_hashread_of_a_crashed_writers_index_is_abandoned_with_its_read():
    """The trap of the digest-register rule, scripted at t = t_M = 1 with
    a mute m4 and a Byzantine d3. w1 reads the directory at w2's 1:2 and
    crashes mid-hashwrite of 2:1: its store reaches m1 only. r1's READ
    fetches at 1:2, and d3 forges a reply at 2:1. A re-read finds the
    directory at w3's 2:3, so r1 starts a hashread of 2:1; it hears one
    report of w1's digest (m1) and two empty ones (m2, m3), neither t_M+1
    matching nor 2t_M+1 empty, and can never end. The correct replies at
    1:2 end the READ, which abandons that hashread: its META-UNSUBs go
    out, its record keeps no response, and no correct replica keeps a
    listener or a tombstone for it."""
    cfg = Config(seed=0, writers=3, readers=1, ops=1, mds_mode="replicated",
                 byz_meta={"m4": ByzStrategy.MUTE}, byz_data={"d3": ByzStrategy.MUTE},
                 workload={"w1": [("WRITE", b"a")], "w2": [("WRITE", b"b")],
                           "w3": [("WRITE", b"c")], "r1": [("READ", None)]})
    trapped = Timestamp(2, 1)
    lost = [Match(kind=MsgKind.META_STORE, src="w1", dst=pid) for pid in ("m2", "m3")]
    replies = [Match(kind=MsgKind.READ_VAL, src=pid) for pid in ("d1", "d2")]
    seen = {}

    def script(s, world):
        s.invoke("w2")
        s.drain()
        s.invoke("w1")
        s.drain(*lost, Match(kind=MsgKind.META_ACK, dst="w1"))
        s.crash("w1")
        s.invoke("r1")
        s.drain(*lost, *replies)  # r1 fetches at 1:2; the replies wait
        s.invoke("w3")
        s.drain(*lost, *replies)
        world.processes["d3"].port.send(MsgKind.READ_VAL, "d3", "r1", ts=trapped, val=b"x")
        s.drain(*lost, *replies)
        driver = world.processes["r1"].driver
        (read,) = driver._reads.values()
        assert read.rec.op == "hashread" and read.rec.index == trapped
        seen["reports"] = {pair: sorted(pids) for pair, pids in
                           read.reporters[("hash", trapped)].items()}
        seen["repliers"] = sorted(read.currents[("hash", trapped)])
        s.drain(*lost)
        seen["listeners"] = {pid: (world.processes[pid].listeners, world.processes[pid].tombstones)
                             for pid in ("m1", "m2", "m3")}
        seen["in flight"] = (dict(driver._reads), dict(world.processes["r1"].hashreads))

    res = run(cfg, script=script)
    digest = DigestFacility().digest(b"a")
    assert seen["reports"] == {Pair(trapped, digest): ["m1"]}
    assert seen["repliers"] == ["m1", "m2", "m3"]
    read = next(op for op in res.history if op.kind == "READ")
    assert (read.ret, read.ts) == (b"b", Timestamp(1, 2))
    (hashread,) = [rec for rec in res.dir_ops if rec.op == "hashread" and rec.index == trapped]
    assert hashread.response is None and hashread.digest is None
    unsubs = [e[3].dst for e in decode_events(res) if not isinstance(e, dict)
              and e[1] == "send" and e[3] is not None and e[3].kind is MsgKind.META_UNSUB
              and e[3].fields["tag"] == hashread.tag]
    assert unsubs == ["m1", "m2", "m3", "m4"]
    assert seen["listeners"] == {pid: ({}, set()) for pid in ("m1", "m2", "m3")}
    assert seen["in flight"] == ({}, {})
    # only the lost stores are left: the run is otherwise quiescent
    assert not res.quiescent and check_run(res).ok


def test_a_finished_read_leaves_no_listener_at_a_live_replica():
    """A replica can take a read's META-UNSUB before that read's
    META-QUERY. It then keeps a tombstone, which the late query consumes,
    so at quiescence no live replica holds a finished read's listener or
    any tombstone. A read is finished when it has ended or its reader has
    abandoned it (a hashread no READ waits on), so at quiescence every
    read of a live client is. The runs do take that order, many times,
    and do abandon hashreads."""
    raced = abandoned = 0
    configs = [cfg for cfg in (random_config(seed) for seed in range(1, 120, 2))
               if cfg.mds_mode == "replicated"]
    configs += [replicated_config(seed=seed, ops=30) for seed in range(8)]
    for cfg in configs:
        world = build_world(cfg)
        result = Simulation(world).run()
        assert result.quiescent  # no META-UNSUB is left in flight
        finished = {(op.proc, op.tag) for op in result.dir_ops
                    if op.op in ("tsread", "hashread") and op.proc not in result.crashed}
        abandoned += sum(1 for op in result.dir_ops
                         if op.op == "hashread" and not op.complete
                         and op.proc not in result.crashed)
        left = [
            (pid, key) for pid, proc in sorted(world.processes.items())
            if isinstance(proc, MetaReplica) and pid not in result.crashed
            for key in proc.listeners if key in finished
        ]
        assert left == [], (cfg.seed, cfg.ops, left)
        tombstones = [
            (pid, proc.tombstones) for pid, proc in sorted(world.processes.items())
            if isinstance(proc, MetaReplica) and pid not in result.crashed and proc.tombstones
        ]
        assert tombstones == [], (cfg.seed, cfg.ops, tombstones)
        queried = set()
        for event in decode_events(result):
            if isinstance(event, dict) or event[1] != "deliver":
                continue
            msg = event[3]
            if msg.kind is MsgKind.META_QUERY:
                queried.add((msg.dst, msg.src, msg.fields["tag"]))
            elif msg.kind is MsgKind.META_UNSUB:
                raced += (msg.dst, msg.src, msg.fields["tag"]) not in queried
    assert raced >= 100 and abandoned > 0, (raced, abandoned)
