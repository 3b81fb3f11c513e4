"""Adversary strategies and fault-plan types.

Byzantine processes are modeled as subclasses of the correct process that
replace selected handlers. Every strategy is reactive and deterministic:
outputs depend only on the process state and the inbound event, so runs
stay reproducible. STATE-SWITCH is the one scripted strategy; it swaps
replica state when the scheduler delivers an adversary action to it.
A run's `Config.adversary` plan may name only a Byzantine class's
`PLAN_ACTIONS`, the actions that take no params; a `Script` may also
pass params (the data replica's `swap-values`).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from .mds_replicated import MetaReplica, Pair, update_entry
from .net import Message, MsgKind
from .replica import DataReplica
from .types import ConfigError, Metadata, Timestamp, TS_INIT


class ByzStrategy(enum.Enum):
    STALE_CONCURRENT = "stale-concurrent"
    FABRICATE_HIGH_TS = "fabricate-high-ts"
    STATE_SWITCH = "state-switch"
    MUTE = "mute"
    EQUIVOCATE = "equivocate"

    @classmethod
    def parse(cls, name: str) -> "ByzStrategy":
        for strat in cls:
            if strat.value == name:
                return strat
        raise ConfigError(f"unknown Byzantine strategy {name!r}")


# The strategies and kinds this module compares or sends, bound once
# (see `MsgKind`).
STALE_CONCURRENT = ByzStrategy.STALE_CONCURRENT
FABRICATE_HIGH_TS = ByzStrategy.FABRICATE_HIGH_TS
MUTE, EQUIVOCATE = ByzStrategy.MUTE, ByzStrategy.EQUIVOCATE
READ_VAL = MsgKind.READ_VAL


@dataclass(frozen=True)
class CrashSpec:
    """When to crash a process: at a step, after N completed ops, or when a
    writer's in-flight operation first reaches a protocol phase."""
    process: str
    at_step: int | None = None
    after_ops: int | None = None
    at_phase: str | None = None


FABRICATED_CID = 99
JUNK_VALUE = b"\xde\xad"


class ByzDataReplica(DataReplica):
    """Data replica under an adversary strategy.

    WRITE/COMMIT handling stays correct for every strategy except MUTE;
    the strategies differ in how they answer READ. That keeps the
    adversary focused on the attacks the read path must survive (serving
    concurrent uncommitted pairs, inventing timestamps, equivocating, or
    swapping state) without also destroying the write path, which MUTE
    covers.
    """

    def __init__(self, pid: str, writer_pids: frozenset[str], strategy: ByzStrategy):
        super().__init__(pid, writer_pids)
        self.strategy = strategy
        self._flip = 0

    def on_message(self, msg: Message) -> None:
        if self.strategy is MUTE:
            kind, src, _, _ = msg
            self.trace_note("byz-mute-drop", kind=kind.value, src=src)
            return
        super().on_message(msg)

    def on_read(self, src: str, ts: Timestamp) -> None:
        strat = self.strategy
        if strat is STALE_CONCURRENT:
            self._reply_max_pair(src)
        elif strat is FABRICATE_HIGH_TS:
            fake = Timestamp(ts.num + 100, FABRICATED_CID)
            self.trace_note("byz-fabricate", ts=fake)
            self.port.send(READ_VAL, self.pid, src, ts=fake, val=JUNK_VALUE)
        elif strat is EQUIVOCATE:
            self._flip += 1
            if self._flip % 2 == 0:
                super().on_read(src, ts)
            else:
                self._reply_max_pair(src)
        else:
            # STATE-SWITCH answers correctly from whatever its state is now.
            super().on_read(src, ts)

    def _reply_max_pair(self, src: str) -> None:
        if self.data:
            ts = max(self.data)
            self.trace_note("byz-stale-concurrent", ts=ts)
            self.port.send(READ_VAL, self.pid, src, ts=ts, val=self.data[ts])
        else:
            self.port.send(READ_VAL, self.pid, src, ts=self.committed, val=None)

    # The actions a run's fault plan may schedule: those that take no params.
    PLAN_ACTIONS = ("corrupt-all",)

    def apply_adversary(self, action: str, params: dict) -> None:
        if action == "swap-values":
            for ts, val in params["pairs"]:
                if ts in self.data:
                    self.trace_note("byz-state-switch", ts=ts)
                    self.data[ts] = val
        elif action == "corrupt-all":
            for ts in list(self.data):
                self.data[ts] = JUNK_VALUE
            self.trace_note("byz-state-switch", ts=self.committed)
        else:
            raise ConfigError(f"unknown adversary action {action!r} for {self.pid}")


class ByzMetaReplica(MetaReplica):
    """Metadata replica under an adversary strategy.

    MUTE drops everything. STALE keeps its internal state honest (so it
    cannot be blamed for breaking echo liveness) but reports only the
    initial, empty view and never pushes updates. FABRICATE-HIGH-TS
    reports an invented high pair, in place of its view, for every
    register. EQUIVOCATE serves honest snapshots to even tags and
    fabricated ones to odd tags. The snapshot strategies override only
    `MetaReplica._report` and build their entries with
    `mds_replicated.update_entry`; live pushes stay honest except under
    STALE. STATE-SWITCH corrupts established payloads on an adversary
    action: the register's sorted tuple of established pairs, which its
    snapshots ship, is replaced by the scrambled pairs in pair order, while
    each pair's own state keeps the honest truth, so the replica still
    echoes and acks honestly.
    """

    def __init__(
        self,
        pid: str,
        peer_pids: list[str],
        tm: int,
        client_ids: dict[str, int],
        writer_cids: list[int],
        strategy: ByzStrategy,
    ):
        super().__init__(pid, peer_pids, tm, client_ids, writer_cids)
        self.strategy = strategy

    def on_message(self, msg: Message) -> None:
        if self.strategy is MUTE:
            kind, src, _, _ = msg
            self.trace_note("byz-mute-drop", kind=kind.value, src=src)
            return
        super().on_message(msg)

    def _notify(self, reg: tuple, pair: Pair) -> None:
        if self.strategy is STALE_CONCURRENT:
            return  # stale: never push updates
        super()._notify(reg, pair)

    def _report(self, reg: tuple, tag: int) -> dict:
        strat = self.strategy
        if strat is STALE_CONCURRENT:
            return update_entry(reg, (), TS_INIT)
        if strat is FABRICATE_HIGH_TS or (strat is EQUIVOCATE and tag % 2 == 1):
            fake_ts = Timestamp(999, FABRICATED_CID)
            payload: Any
            if reg[0] == "dir":
                payload = Metadata(ts=fake_ts, replicas=frozenset({1}))
            else:
                payload = "00" * 32
            return update_entry(reg, (Pair(fake_ts, payload),), fake_ts)
        return super()._report(reg, tag)

    # The actions a run's fault plan may schedule: those that take no params.
    PLAN_ACTIONS = ("scramble",)

    def apply_adversary(self, action: str, params: dict) -> None:
        if action != "scramble":
            raise ConfigError(f"unknown adversary action {action!r} for {self.pid}")
        fake_ts = Timestamp(998, FABRICATED_CID)
        for reg, rs in self.registers.items():
            scrambled = set()
            for pair in rs.established:
                if reg[0] == "dir" and pair.payload is not None:
                    scrambled.add(Pair(pair.key, Metadata(ts=fake_ts, replicas=frozenset({1}))))
                elif reg[0] == "hash" and pair.payload is not None:
                    scrambled.add(Pair(pair.key, "ff" * 32))
                else:
                    scrambled.add(pair)
            rs.established = tuple(sorted(scrambled))
        self.trace_note("byz-state-switch")

