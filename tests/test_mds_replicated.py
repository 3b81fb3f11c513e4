"""The quorum metadata service: unit tests against a hand-pumped replica
group, then whole-system runs through the simulator."""
from collections import deque

import pytest

from splitstore.checker import check_run
from splitstore.faults import ByzSpec, ByzStrategy, CrashSpec
from splitstore.mds_replicated import INITIAL_PAIR, MetaReplica
from splitstore.net import MsgKind, Port, make_message
from splitstore.scenarios import random_config
from splitstore.simnet import Config, run
from splitstore.types import HarnessError, Metadata, Timestamp

CLIENTS = {"w1": 1, "w2": 2, "r1": 3}


class Router:
    """Synchronous pump for a group of metadata replicas."""

    def __init__(self, tm=1, m=4):
        pids = [f"m{i}" for i in range(1, m + 1)]
        self.replicas = {
            pid: MetaReplica(pid, pids, tm, CLIENTS, [1, 2]) for pid in pids
        }
        self.queue = deque()
        self.outbox = []  # traffic addressed to clients
        for rep in self.replicas.values():
            rep.port = Port(self._route, lambda *a, **k: None, lambda *a, **k: None)

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


def test_digest_register_rejects_a_second_digest():
    r = Router()
    idx = Timestamp(1, 1)
    r.inject(MsgKind.META_STORE, "w1", "m1",
             reg=("hash", idx), key=idx, payload="a" * 64, seq=1)
    with pytest.raises(HarnessError):
        r.inject(MsgKind.META_STORE, "w1", "m1",
                 reg=("hash", idx), key=idx, payload="b" * 64, seq=2)


def test_subscribers_get_snapshot_and_live_updates():
    r = Router()
    store_to(r, ["m1", "m2", "m3"], key=Timestamp(1, 1))
    r.pump()
    r.inject(MsgKind.META_QUERY, "r1", "m1", scope="dir", tag=7)
    snapshot = [m for m in r.outbox if m.kind is MsgKind.META_UPDATE and m.dst == "r1"]
    assert snapshot
    seen = {p.key for u in snapshot[-1]["updates"] for p in u["pairs"]}
    assert Timestamp(1, 1) in seen
    # a later establishment is pushed incrementally
    md2 = Metadata(ts=Timestamp(2, 2), replicas=frozenset({2, 3}))
    for pid in ("m1", "m2", "m3"):
        r.inject(MsgKind.META_STORE, "w2", pid,
                 reg=("dir", 2), key=Timestamp(2, 2), payload=md2, seq=2)
    r.pump()
    updates = [m for m in r.outbox if m.kind is MsgKind.META_UPDATE and m.dst == "r1"]
    pushed = {p.key for u in updates[-1]["updates"] for p in u["pairs"]}
    assert Timestamp(2, 2) in pushed


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
    cfg = replicated_config(byz_meta={"m4": ByzSpec(strategy)})
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
        byz_data={"d3": ByzSpec(ByzStrategy.EQUIVOCATE)},
        byz_meta={"m2": ByzSpec(ByzStrategy.FABRICATE_HIGH_TS)},
    )
    res = run(cfg)
    verdict = check_run(res)
    assert verdict.ok, verdict.failed()


@pytest.mark.xfail(strict=True, reason=(
    "known defect: a tsread lets an older snapshot overwrite a newer current. "
    "In r1's tsread [100,198], m3's snapshot (sent at step 106) arrives at 170, "
    "after m3's later live update, and resets m3's dir currents to 0:nil. With "
    "the stale-concurrent m4 and m1's snapshot from before w2's tswrite 1:2 "
    "completed at 140, three replicas then vouch that dir/2 holds nothing, and "
    "the read returns w1's 1:1, whose tswrite began at 142"
))
def test_seed_2333_stale_snapshot_read_is_directory_linearizable():
    res = run(random_config(2333))
    assert res.config.mds_mode == "replicated"
    verdict = check_run(res)
    assert verdict.ok, verdict.failed()
