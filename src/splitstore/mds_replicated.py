"""Replicated metadata service over 3*tm + 1 metadata replicas.

The directory becomes one single-writer register per writer client; a
directory read returns the highest pair across all of them. The digest
array reuses the same register machinery with write-once usage: each
replica writes every digest a client stores through its own
`mds_oracle.HashArraySpec`, which refuses a rewrite with a different
digest. Directory registers replicate by echoes; a digest register
needs none, because only its owner's store can establish it (below).

Directory registers replicate by reliable broadcast (Bracha,
"Asynchronous Byzantine Agreement Protocols", Information and
Computation 1987). A client stores a (key, payload) pair by sending it
to every replica. A correct replica echoes a pair to its peers when it
accepts the owner's META-STORE of it, or once tm + 1 distinct replicas
have echoed the pair to it (amplification). It establishes the pair
once 2*tm + 1 distinct replicas, itself included, have echoed it; only
then does it acknowledge the storers and push the pair to its
listeners. Only a peer's echo counts. Two properties follow, with at
most tm of the 3*tm + 1 replicas faulty:

- No fabrication. The tm Byzantine replicas' echoes stay below the
  amplification threshold, so the first correct replica to echo a pair
  took it from its owner's store. A correct replica therefore
  establishes only pairs that their owner stored.
- Totality. If one correct replica establishes a pair, 2*tm + 1
  replicas echoed it, tm + 1 of them correct. Each correct echo goes to
  every peer, so every correct replica hears tm + 1 echoes and
  amplifies; then each of the 2*tm + 1 correct replicas hears 2*tm + 1
  echoes and establishes the pair. No reader has to spread it, even when
  the storing client crashed mid-broadcast. In particular, every pair
  whose store completed (2*tm + 1 acks) is established at every correct
  replica in the end.

Digest registers are write-once, and the index's owner is the only
client that may store one. A correct replica establishes a ("hash",
index) pair as soon as it accepts the owner's META-STORE (the sender is
the owner, over an authenticated channel, and the replica's
`HashArraySpec` takes the digest); it then acks the storer and pushes
the pair to its listeners. It echoes nothing for it, and a META-ECHO of
a digest register, from any sender, changes nothing. That saves M(M - 1)
echoes per hashwrite, for M = 3*tm + 1 replicas, and half of all
metadata stores are hashwrites. A hashread returns a digest on tm + 1
matching reports, and None on 2*tm + 1 empty ones (see the read
paragraphs below). The rule keeps that:

- Safety. tm + 1 matching reports include one from a correct replica,
  and a correct replica holds only the digest the index's owner stored.
  An honest writer stores one digest per index, so a returned digest is
  the one its hashwrite stored (the write-once register of Malkhi &
  Reiter's Byzantine quorum systems, Distributed Computing 1998).
- A hashread that overlaps no hashwrite of its index is live and
  answers right. A completed hashwrite had 2*tm + 1 acks, each sent by a
  replica that holds the digest, and tm + 1 of them are correct and hold
  it for good. They report it to a read that began after the write
  ended, so the read gets tm + 1 matching reports. A None answer needs
  2*tm + 1 empty reports, and at most 2*tm replicas are not among those
  tm + 1. An index nobody stored is reported empty by every correct
  replica, and 2*tm + 1 of them answer.
- A hashread that overlaps a live writer's hashwrite is live. The
  writer's store reaches every correct replica, and each one that takes
  it pushes it to the subscribed reader, so the reader gets tm + 1
  matching reports, unless 2*tm + 1 empty ones came first.
- The trap: a writer that crashes mid-hashwrite can leave its store at
  1 to tm correct replicas only. A hashread of that index can then get
  neither tm + 1 matching reports nor 2*tm + 1 empty ones, for ever.
  Only a Byzantine data replica's READ-VAL names such an index: a
  correct data replica holds a value only after its hashwrite completed.
  The READ stays live, because no correct reply waits on that index,
  but the hashread would hold its listeners at the replicas for ever.
  So a reader abandons a hashread once every reply waiting on it belongs
  to a READ that has ended, that is, when the READ that started it ends
  (``ReplicatedMdsDriver.abandon_hash_read``). Abandoning sends the
  META-UNSUBs and leaves the hashread's record with no response. No
  waiter needs its answer: `client.ReaderClient._check_done` drops a
  reply of an ended READ. The cost is that an abandoned hashread's
  digest is not remembered, so a later READ that needs the index starts
  a new hashread. Outside the trap the rule rarely fires: a READ seldom
  ends with a hashread of another index in flight. In replicated runs of
  2 writers and 2 readers at 30 ops (seeds 0-39), 7 of 1,619 hashreads
  are abandoned and the mean run takes 4,776.2 steps, against 4,778.4
  without the rule; in the replicated runs of `random_config` 0-999,
  18 of 951 are, and the mean run takes 405.5 steps either way.

A reader subscribes to all replicas and collects, per register, the
established pairs each replica reports plus each replica's current
(highest established) key. Every entry of every update records its
sender's current, and every update carries an entry for each register in
the query's scope, so the replicas that have replied to a read are the
replicas with a current recorded for any one of its registers. It
accepts the highest candidate confirmed by tm + 1 matching reports, but
only returns once, for every register, 2*tm + 1 replicas report a
current key at or below the accepted candidate (so 2*tm + 1 replicas
have replied); that rules out missing a completed store, because a
completed store keeps tm + 1 correct replicas at or above its key
forever. A directory read in a run with no writers has no register to
wait on, and returns the initial state.

Once its evidence holds, a directory read fixes the chosen pair and
chooses no more. It returns the fixed pair once 2*tm + 1 replicas report
it (the "fast read" of Dutta, Guerraoui, Levy & Chakraborty, "How Fast
can a Distributed Atomic Read be?", PODC 2004; for Byzantine quorums,
Guerraoui & Vukolic, "Refined Quorum Systems", PODC 2007). The initial
pair needs no reporters: it is the state every replica starts from.

- Atomicity: a later read cannot return a lower pair. A report lists a
  pair as established at its sender, and establishment at a correct
  replica is permanent, so 2*tm + 1 reporters put the pair at tm + 1
  correct replicas for good, before the read returns. A later read needs
  2*tm + 1 of the 3*tm + 1 replicas to report a current at or below its
  candidate, and 2*tm + 1 + tm + 1 > 3*tm + 1, so its evidence includes
  one of those tm + 1, whose every report to it has a current at or
  above the pair: its candidate for the pair's register is not below the
  pair.
- Liveness. The fixed pair has tm + 1 reporters, so a correct replica
  established it, and by totality every correct replica does. Each of
  the 2*tm + 1 correct replicas lists it in its snapshot or pushes it to
  the subscribed reader when it establishes it. The wait is bounded
  because the pair stays fixed while higher pairs are confirmed.
- Readers write nothing. A reader sends the metadata service only
  META-QUERY and META-UNSUB, and a replica takes a pair only from its
  owner's store or a peer's echo. So any number of Byzantine readers, as
  the paper allows, can change no register; their queries and
  unsubscribes change only their own listeners and tombstones.

A digest needs no 2*tm + 1 repliers. Its register is write-once and only
safe semantics are promised: a hashread that overlaps no hashwrite of
its index returns the digest a completed hashwrite stored, or None if
none was invoked. A hashread returns a digest as soon as tm + 1 replicas
report it. Only a None answer waits for 2*tm + 1 repliers, 2*tm + 1 of
them with empty reports. Why that is safe and live is argued above, with
the digest registers.

A read's subscription is the listeners pattern of Martin, Alvisi &
Dahlin ("Minimal Byzantine Storage", DISC 2002): the reader's
META-QUERY registers it at a replica, which replies with a snapshot and
then pushes each later establishment in the query's scope, and the
reader's META-UNSUB ends the registration once the read ends or is
abandoned. Channels
are not FIFO, so a META-UNSUB can reach a replica before its own
META-QUERY. The replica then keeps a tombstone for the (client, tag),
and the late query consumes it: it subscribes nothing and sends no
snapshot. A per-client tag floor would not do, because a client's reads
overlap and end out of tag order. The tombstones stay bounded: a reader
sends its META-UNSUB to a replica only after its META-QUERY to the same
replica, and a tag names one read, so each tombstone is consumed when
that query is delivered, and a quiescent run leaves none at a live
replica.

Neither side recomputes a quorum from scratch per message. A replica
keeps each register's established pairs as one tuple in pair order,
which gains each pair as it is established and is exactly what a
snapshot ships; the register's current pair is the tuple's last entry. A
reader counts each report once, as it arrives: per register it keeps the
replicas that reported each pair and the highest pair that has reached
tm + 1 of them, until a tsread fixes its pair. Only the current-key
evidence, one entry per replica, is recounted on each evaluation.

Pairs compare as the tuples they are, and their keys decide every
comparison, because no two pairs that are compared share a key. A
correct replica establishes only pairs that their owner stored, and
those carry one payload per key: a writer stores one record per
timestamp, and a digest index is written once. A scramble
(``faults.ByzMetaReplica``) replaces payloads but keeps keys, so a
scrambled register's pairs still have distinct keys. And every pair a
reader confirms has tm + 1 reporters, at least one of them correct, so no
two confirmed pairs of one register share a key.

A replica takes in every pair, stored or echoed, through one method
(``_take``). It answers a query with one ``_report`` per register in
the query's scope; that method is the one hook through
which a Byzantine replica (``faults.ByzMetaReplica``) lies in its
snapshots, and ``update_entry`` builds every entry of an update. On the
client side, ``ReplicatedMdsDriver`` has one store path (``_store``) for
both writes and one read path (``_read`` and ``_finish_read``) for both
reads, and its ``history.DirOpLog`` records every operation for the
checker. A read is in ``_reads`` until it ends or is abandoned.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple

from .history import DirOpLog, DirOpRecord
from .mds_oracle import HashArraySpec
from .net import Message, MsgKind, Process
from .types import Metadata, Timestamp, TS_INIT

RegisterId = tuple  # ("dir", writer_cid) or ("hash", Timestamp)

# The kinds this module compares or sends, bound once (see `MsgKind`).
META_STORE, META_ACK, META_ECHO = MsgKind.META_STORE, MsgKind.META_ACK, MsgKind.META_ECHO
META_QUERY, META_UPDATE, META_UNSUB = MsgKind.META_QUERY, MsgKind.META_UPDATE, MsgKind.META_UNSUB


class Pair(NamedTuple):
    key: Timestamp
    payload: Any


INITIAL_PAIR = Pair(TS_INIT, None)


def update_entry(reg: RegisterId, pairs: tuple[Pair, ...], current: Timestamp) -> dict:
    """One entry of a META-UPDATE: ``pairs`` of ``reg`` in pair order, and
    the reporting replica's current key for ``reg``."""
    return {"reg": reg, "pairs": pairs, "current": current}


@dataclass
class _PairState:
    echoes: set[str] = field(default_factory=set)
    storers: set[tuple[str, int]] = field(default_factory=set)
    acked: set[tuple[str, int]] = field(default_factory=set)
    established: bool = False


@dataclass
class _Register:
    pairs: dict[Pair, _PairState] = field(default_factory=dict)
    # the established pairs in pair order, as a snapshot ships them
    established: tuple[Pair, ...] = ()

    @property
    def current(self) -> Pair:
        """The highest established pair."""
        return self.established[-1] if self.established else INITIAL_PAIR


class MetaReplica(Process):
    """One metadata replica: registers, echo dissemination, listeners."""

    def __init__(
        self,
        pid: str,
        peer_pids: list[str],
        tm: int,
        client_ids: dict[str, int],
        writer_cids: list[int],
    ):
        super().__init__(pid)
        self.peers = [p for p in peer_pids if p != pid]
        self.peer_set = frozenset(self.peers)
        self.tm = tm
        self.client_ids = client_ids
        self.writer_cids = list(writer_cids)
        self.registers: dict[RegisterId, _Register] = {
            ("dir", cid): _Register() for cid in self.writer_cids
        }
        # (client pid, tag) -> the registers the query covers
        self.listeners: dict[tuple[str, int], list[RegisterId]] = {}
        # (client pid, tag) of each META-UNSUB that overtook its META-QUERY
        self.tombstones: set[tuple[str, int]] = set()
        # the digests stored over an authenticated channel, write-once
        self.digests = HashArraySpec()

    # -- message handlers --------------------------------------------------

    def on_message(self, msg: Message) -> None:
        kind, src, _, fields = msg
        if kind is META_STORE:
            pair = Pair(fields["key"], fields["payload"])
            self.on_store(src, fields["reg"], pair, fields["seq"])
        elif kind is META_ECHO:
            # A digest register is never echoed, and only a replica echoes.
            if fields["reg"][0] == "dir" and src in self.peer_set:
                pair = Pair(fields["key"], fields["payload"])
                self._take(fields["reg"], pair, map(tuple, fields["storers"]), echoer=src)
        elif kind is META_QUERY:
            self.on_query(src, fields["tag"], fields["scope"])
        elif kind is META_UNSUB:
            listener = (src, fields["tag"])
            if self.listeners.pop(listener, None) is None:
                self.tombstones.add(listener)

    def register_for(self, reg: RegisterId) -> _Register:
        if reg not in self.registers:
            self.registers[reg] = _Register()
        return self.registers[reg]

    def on_store(self, src: str, reg: RegisterId, pair: Pair, seq: int) -> None:
        if not self._store_allowed(reg, src):
            self.trace_note("meta-store-rejected", src=src, reg=reg)
            return
        if reg[0] == "hash" and not self.digests.write(reg[1], pair.payload, self.client_ids[src]):
            self.trace_note("meta-store-refused", src=src, reg=reg, payload=pair.payload)
            return
        self._take(reg, pair, ((src, seq),))

    def _store_allowed(self, reg: RegisterId, src: str) -> bool:
        cid = self.client_ids.get(src)
        if cid is None:
            return False
        if reg[0] == "dir":
            return reg[1] == cid
        if reg[0] == "hash":
            return reg[1].cid == cid
        return False

    def _take(
        self, reg: RegisterId, pair: Pair, storers: Iterable[tuple[str, int]],
        echoer: str | None = None,
    ) -> None:
        """Take in a pair from its owner's accepted store, or from
        ``echoer``'s echo. A digest pair comes only from the store, and
        establishes at once. A directory pair is echoed on its store or on
        tm + 1 echoes, and establishes on 2*tm + 1; a pair already
        established acks its storers."""
        pairs = self.register_for(reg).pairs
        st = pairs.get(pair)
        if st is None:  # most intakes repeat a pair the replica holds
            st = pairs[pair] = _PairState()
        st.storers.update(storers)
        if echoer is not None:
            st.echoes.add(echoer)
        if st.established:
            self._ack_storers(reg, pair, st)
            return
        if reg[0] == "dir" and (echoer is None or len(st.echoes) > self.tm):
            self._echo(reg, pair, st)
        self._maybe_establish(reg, pair, st)

    def _echo(self, reg: RegisterId, pair: Pair, st: _PairState) -> None:
        me = self.pid
        if me in st.echoes:
            return
        st.echoes.add(me)
        storers = tuple(sorted(st.storers))
        key, payload = pair
        send = self.port.send
        for peer in self.peers:
            send(META_ECHO, me, peer, reg=reg, key=key, payload=payload, storers=storers)

    def _maybe_establish(self, reg: RegisterId, pair: Pair, st: _PairState) -> None:
        # A digest pair establishes on its owner's store, a directory pair
        # on 2*tm + 1 echoes. `_take` never passes an established pair.
        if reg[0] == "dir" and len(st.echoes) <= 2 * self.tm:
            return
        st.established = True
        rs = self.registers[reg]
        # A copy: an update in flight may hold the old tuple.
        established = list(rs.established)
        bisect.insort(established, pair)
        rs.established = tuple(established)
        self._ack_storers(reg, pair, st)
        self._notify(reg, pair)

    def _ack_storers(self, reg: RegisterId, pair: Pair, st: _PairState) -> None:
        new = st.storers - st.acked
        if not new:
            return
        st.acked |= new
        for pid, seq in sorted(new):
            self.port.send(META_ACK, self.pid, pid, reg=reg, key=pair.key, seq=seq)

    def _scope_registers(self, scope: Any) -> list[RegisterId]:
        """The registers a query for ``scope`` reports on: "dir" stands
        for every writer's ``("dir", cid)`` register."""
        if scope == "dir":
            return [("dir", cid) for cid in self.writer_cids]
        return [scope]

    def _notify(self, reg: RegisterId, pair: Pair) -> None:
        update = update_entry(reg, (pair,), self.registers[reg].current.key)
        for (pid, tag), regs in sorted(self.listeners.items()):
            if reg in regs:
                self.port.send(META_UPDATE, self.pid, pid, tag=tag, updates=(update,))

    def _report(self, reg: RegisterId, tag: int) -> dict:
        """The snapshot of ``reg`` this replica reports to query ``tag``."""
        rs = self.register_for(reg)
        return update_entry(reg, rs.established, rs.current.key)

    def on_query(self, src: str, tag: int, scope: Any) -> None:
        listener = (src, tag)
        if listener in self.tombstones:  # the read has ended already
            self.tombstones.remove(listener)
            return
        regs = self.listeners[listener] = self._scope_registers(scope)
        updates = tuple(self._report(reg, tag) for reg in regs)
        self.port.send(META_UPDATE, self.pid, src, tag=tag, updates=updates)

    def final_state(self) -> dict:
        out = {}
        for reg, rs in sorted(self.registers.items(), key=lambda kv: str(kv[0])):
            name = f"{reg[0]}/{reg[1].render() if isinstance(reg[1], Timestamp) else reg[1]}"
            out[name] = {
                "current": rs.current.key,
                "established": [
                    {"key": p.key, "payload": p.payload} for p in rs.established
                ],
            }
        return out


@dataclass
class _StoreOp:
    key: Timestamp
    rec: DirOpRecord  # a tswrite or a hashwrite
    done: Callable[[], None]
    acks: set[str] = field(default_factory=set)


@dataclass
class _ReadOp:
    rec: DirOpRecord  # a tsread or a hashread
    scope: Any
    done: Callable[..., None]
    reporters: dict = field(default_factory=dict)  # reg -> Pair -> set of pids
    best: dict = field(default_factory=dict)  # reg -> highest pair with tm + 1 reporters
    # a tsread's (reg, pair) once its evidence holds; reg is None for the
    # initial pair. Every best stays as it is from then on.
    fixed: tuple | None = None
    # reg -> pid -> Timestamp; a register's pids are the replicas that replied
    currents: dict = field(default_factory=dict)


class ReplicatedMdsDriver:
    """Client-side quorum logic for the replicated metadata service.

    Exposes the same tsread/tswrite/hash_read/hash_write interface as the
    oracle driver, so clients do not know which mode they run in.
    """

    def __init__(
        self,
        owner: Process,
        meta_pids: list[str],
        tm: int,
        writer_cids: list[int],
        cid: int,
    ):
        self.owner = owner
        self.meta_pids = list(meta_pids)
        self.tm = tm
        self.writer_cids = list(writer_cids)
        self.cid = cid
        self.log = DirOpLog(owner)
        self._seq = 0
        self._stores: dict[int, _StoreOp] = {}
        self._reads: dict[int, _ReadOp] = {}

    @property
    def quorum(self) -> int:
        return 2 * self.tm + 1

    # -- store side ---------------------------------------------------------

    def _store(
        self, op: str, reg: RegisterId, key: Timestamp, payload: Any,
        done: Callable[[], None], **logged: Any,
    ) -> None:
        rec = self.log.start(op, **logged)
        self._seq = seq = self._seq + 1
        self._stores[seq] = _StoreOp(key, rec, done)
        owner = self.owner
        send, me = owner.port.send, owner.pid
        for pid in self.meta_pids:
            send(META_STORE, me, pid, reg=reg, key=key, payload=payload, seq=seq)

    def tswrite(self, md: Metadata, done: Callable[[], None]) -> None:
        self._store("tswrite", ("dir", self.cid), md.ts, md, done, ts=md.ts, md=md)

    def hash_write(self, index: Timestamp, digest: str, done: Callable[[], None]) -> None:
        self._store("hashwrite", ("hash", index), index, digest, done, index=index, digest=digest)

    # -- read side ----------------------------------------------------------

    def _read(self, op: str, scope: Any, done: Callable[..., None], **logged: Any) -> None:
        rec = self.log.start(op, **logged)
        tag = rec.tag
        self._reads[tag] = _ReadOp(rec=rec, scope=scope, done=done)
        owner = self.owner
        send, me = owner.port.send, owner.pid
        for pid in self.meta_pids:
            send(META_QUERY, me, pid, scope=scope, tag=tag)

    def tsread(self, done: Callable[[Timestamp, Metadata | None], None]) -> None:
        self._read("tsread", "dir", done)

    def hash_read(self, index: Timestamp, done: Callable[[str | None], None]) -> None:
        self._read("hashread", ("hash", index), done, index=index)

    # -- inbound ------------------------------------------------------------

    def handle(self, msg: Message) -> bool:
        kind, src, _, fields = msg
        if kind is META_ACK:
            self._on_ack(src, fields["seq"], fields["key"])
            return True
        if kind is META_UPDATE:
            self._on_update(src, fields["tag"], fields["updates"])
            return True
        return False

    def _on_ack(self, src: str, seq: int, key: Timestamp) -> None:
        store = self._stores.get(seq)
        if store is None or key != store.key:
            return
        store.acks.add(src)
        if len(store.acks) >= self.quorum:
            del self._stores[seq]
            self.log.end(store.rec)
            store.done()

    def _on_update(self, src: str, tag: int, updates: tuple[dict, ...]) -> None:
        """Count each reported pair once per reporting replica, as it
        arrives. Reporters are kept as sets, so a replica that repeats a
        pair counts once. A pair is compared with its register's best
        when its reporters reach tm + 1; they only grow, so every pair
        confirmed so far has been compared.

        A pair whose key is below the key of its register's best is below
        best in pair order, which compares keys first, so it can never
        become the best. It is skipped uncounted, and ``reporters`` may
        miss it. Neither reader of ``reporters`` needs a skipped pair.
        ``_evaluate_hashread``'s empty-report count reads it only while
        best is None, when no pair has been skipped. ``_evaluate_tsread``
        reads only the reporters of its fixed pair, which are complete: the
        pair was its register's best when it was fixed, and stays the best
        from then on, because a fixed tsread's bests do not change. A pair
        is skipped only when its key is below the key of the register's
        best at the time, and best only rises, so no pair at the fixed
        pair's key was ever skipped."""
        read = self._reads.get(tag)
        if read is None:
            return  # the read has ended or was abandoned
        confirmed = self.tm + 1
        rising = read.fixed is None
        for update in updates:
            reg = update["reg"]
            reporters = read.reporters.setdefault(reg, {})
            best = read.best.get(reg)
            for pair in update["pairs"]:
                # A report's pairs need not be sorted (a lying replica picks
                # its own order), so this skips the pair, not the update.
                if best is not None and pair[0] < best[0]:
                    continue
                pids = reporters.get(pair)
                if pids is None:
                    pids = reporters[pair] = {src}
                else:
                    pids.add(src)
                if rising and len(pids) == confirmed and (best is None or pair > best):
                    best = read.best[reg] = pair
            read.currents.setdefault(reg, {})[src] = update["current"]
        self._evaluate(read)

    # -- read evaluation ----------------------------------------------------

    def _evaluate(self, read: _ReadOp) -> None:
        if read.rec.op == "hashread":
            self._evaluate_hashread(read)
        else:
            self._evaluate_tsread(read)

    def _evaluate_hashread(self, read: _ReadOp) -> None:
        reg = read.scope  # the scope is this one register
        best = read.best.get(reg)
        if best is not None:  # tm + 1 matching reports
            self._finish_read(read, best.payload)
            return
        repliers = read.currents[reg].keys()
        if len(repliers) < self.quorum:
            return
        reported = set().union(*read.reporters.get(reg, {}).values())
        if len(repliers - reported) >= self.quorum:
            self._finish_read(read, None)

    def _evaluate_tsread(self, read: _ReadOp) -> None:
        if read.fixed is None:
            # The evidence quorum below is also the 2*tm + 1 repliers.
            best, best_reg = INITIAL_PAIR, None
            for cid in self.writer_cids:
                reg = ("dir", cid)
                candidate = read.best.get(reg, INITIAL_PAIR)
                # Currents can go down, so the evidence is recounted each
                # time; it is at most one entry per replica.
                evidence = sum(
                    1 for current in read.currents.get(reg, {}).values()
                    if current <= candidate.key
                )
                if evidence < self.quorum:
                    return  # cannot yet rule out a higher completed store here
                if candidate > best:
                    best, best_reg = candidate, reg
            read.fixed = (best_reg, best)
        reg, pair = read.fixed
        # The initial pair needs no reporters; any other needs 2*tm + 1.
        if reg is None or len(read.reporters[reg][pair]) >= self.quorum:
            self._finish_read(read, *pair)

    def _finish_read(self, read: _ReadOp, *result: Any) -> None:
        """Write the result, (ts, md) for a tsread and (digest,) for a
        hashread, onto the read's record, unsubscribe, end the record and
        pass the result on."""
        rec = read.rec
        if rec.op == "tsread":
            rec.ts, rec.md = result
        else:
            (rec.digest,) = result
        del self._reads[rec.tag]
        self._unsubscribe(rec.tag)
        self.log.end(rec)
        read.done(*result)

    def abandon_hash_read(self, index: Timestamp) -> bool:
        """Abandon the hashread of ``index`` in flight, whose answer no
        operation in flight waits for: unsubscribe, and leave its record
        with no response and its continuation uncalled. A replicated
        hashread can wait for ever (the trap in the module docstring)."""
        reg = ("hash", index)
        tag = next(tag for tag, read in self._reads.items() if read.scope == reg)
        del self._reads[tag]
        self._unsubscribe(tag)
        return True

    def _unsubscribe(self, tag: int) -> None:
        owner = self.owner
        send, me = owner.port.send, owner.pid
        for pid in self.meta_pids:
            send(META_UNSUB, me, pid, tag=tag)
