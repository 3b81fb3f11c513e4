"""Deterministic discrete-event simulator for the protocol.

One event fires per step: a message delivery or a client invocation,
or, under a script, a crash or an adversary action; the fault plan's
timed entries fire at the start of their step. The default scheduler picks uniformly at
random (seeded) among pending events, with a bounded-fairness override:
any event older than the fairness window is delivered first, oldest
first, so every message between correct processes lands within a bounded
number of steps. Scenario scripts bypass the random scheduler and pick
events by pattern, which is how the proof-style executions with their
precise delays and starved channels are reproduced. Both honour the
config's fault plan the same way (see "The fault plan" below).

Crashes are permanent. A crashed process handles nothing from its crash
step on, while messages it already sent stay in flight (the network does
not forget). Events for it are dropped in two places and nowhere else:
`crash()` drops every pending event that targets or invokes the process,
and `_send` drops each later message to it. So `dispatch` never meets an
event for a crashed process and does not test for one. Only a dispatch
sends, and only to a live process, so a crashed process sends nothing
and `_send` does not test the sender.

The simulator owns the history and its steps. `invoke_next` creates each
client operation's `OpRecord` and hands it to the client; a metadata
driver's `DirOpLog` creates each directory operation's `DirOpRecord`.
Processes fill in their records' protocol fields but never read a step:
the port's `begin` and `end` stamp the current step as a record's invoke
and response, and `end` on a client operation also traces the response
and queues the client's next invocation.

The fault plan. `Simulation.__init__` compiles `Config.crashes` and
`Config.adversary` once, into two parts:

- timed entries, keyed by step: at-step crashes in config order, then
  adversary actions. `fire_timed` fires a step's entries when the step
  starts, and pops them, so a step started twice fires them once. The
  random loop and every `Script` step start there.
- watched crashes: after-ops counts, and at-phase crashes with their
  phase resolved to a `WritePhase`, compared by identity. They are
  checked at the end of every `dispatch`, which a `Script.invoke` goes
  through too. A client completes an operation, and a writer changes
  phase, only in a dispatch to that process, so at most one process
  falls due per dispatch. Its crash then drops the invocation that `end`
  has just queued, which the trace shows as a `drop` of an `invoke`.

Every pending event gets a sequence number (seq) when it is created, and
the scheduler keeps `Simulation.ready`, the ascending list of the seqs it
may pick. Three invariants make a step cost independent of how many
events are pending:

- `created_step` never decreases as seq grows, because seqs and steps
  both only count up. So if any ready event is overdue, `ready[0]` is,
  and the overdue check looks at `ready[0]` alone.
- `ready` is sorted. A new seq is larger than every existing one, so it
  is appended; `take(seq)` removes one by bisection and, on a FIFO
  channel, inserts the channel's next head in order. Without FIFO every
  pending seq is ready; with FIFO the ready seqs are the invocations plus
  the head of each channel.
- the random pick indexes the same list, in the same order, as a sorted
  scan of every pending event filtered by the FIFO rule. The loop draws
  the index with `getrandbits` as `random.choice` does on Python 3.10 to
  3.12, so the random index sequence, and every schedule, is unchanged.

What one step costs.
- One hop per message: handlers and drivers call `port.send(kind, pid,
  dst, ...)`, which builds the message and hands it to `_send`. No other
  path puts a message on the network, so a class-level wrapper on
  `Port.send` sees every one. A `Message` and each pending event's
  `Delivery` are NamedTuples built by `tuple.__new__`, one C call that
  skips the generated Python-level `__new__`; `_send`, `take`, `dispatch`
  and the loop unpack them once, and so do each process's `on_message`
  and each metadata driver's `handle`, which pass their handlers the
  fields they read.
- Bound kinds: no per-message path looks a member up on an enum class
  (see `net.MsgKind`).
- The collector sleeps through the loop: `run()` pauses it, so the
  growing event list is not walked over and over. On the way out the
  run's objects move to the oldest generation without being walked: a
  collection there could free nothing, because the simulation still
  holds everything the run made and a run makes no cyclic garbage.
  `finish` breaks the run's two reference cycles (each process drops its
  port, each client its driver), so a dropped `RunResult` is freed by
  reference counting.
- A run without faults pays one dict lookup per step for the timed
  entries and one loop over an empty list per dispatch for the watched
  crashes. `ready` and `pending` are mutated in place and never rebound,
  which is why `run()` may hold them in locals.

Nothing is rendered while a run is simulated, and a message's two trace
events allocate nothing. `Simulation.events` is a log that
`RunResult.trace_lines` alone decodes. Its entries are:

- a `Delivery`: the send of its message, at its `created_step`. It is
  the pending event the scheduler built in `_send`, recorded as is;
- a step int followed by a `Delivery`: the delivery of that message at
  that step. The `Delivery` is the same object as at the message's send;
- (step, ev, reason, msg): a drop or an undelivered message. They are
  rare, so they keep a tuple of their own;
- a dict: every other entry. Its values are raw, as the run gave them:
  a note's payload, an invocation's written value, a response's returned
  value and a final entry's state. Each is encoded, by `render_field`'s
  rules, when its line is written.

The decoder relies on this pairing: no other entry is an int, and a
`Delivery` in the log is a send unless an int comes right before it.
Every message that is sent appears twice, at its send and at its
deliver, drop or undelivered event, and a delivered message always has
its send before it. `RunResult.final_states` renders the final states
when first read, so runs whose trace nobody writes never pay for
rendering.

`RunResult.trace_lines()` yields the trace file's JSON lines, the one
rendered form of a trace. It encodes each message's body once and splices
it into both of the message's lines. It keeps a body only while its
message is in flight, so its memory is bounded by the pending messages,
not by the length of the trace.

Every line is written by the one output encoder, `encoding.encoded`, in
its compact layout; the history and report files use its indented one.
It writes each value as json writes `render_field(value)`: the value
types inline, containers by recursion and every object from its shape's
template, and any other type through `render_field` itself. A message
body is an object whose keys are its kind, src, dst and field names
(`message_body`). So a body's bytes are those of `json_line(msg.render())`,
and an entry's those of `json_line` over its values rendered.
"""
from __future__ import annotations

import functools
import gc
import random
from bisect import bisect_left, insort
from collections import defaultdict, deque
from dataclasses import dataclass, field as dc_field
from json.encoder import encode_basestring_ascii as _ascii
from typing import Any, Callable, Iterator

from .client import ClientBase, ReaderClient, WritePhase, WriterClient
from .encoding import OBJECT_FORMATS, encoded
from .faults import ByzDataReplica, ByzMetaReplica, CrashSpec
from .history import DirOpRecord, OpRecord
from .mds_oracle import DIR_PID, HASH_PID, DirectoryOracle, HashArrayOracle, OracleMdsDriver
from .mds_replicated import MetaReplica, ReplicatedMdsDriver
from .net import Delivery, Message, MsgKind, Port, Process, render_field
from .replica import DataReplica
from .types import ConfigError, DigestFacility, HarnessError, HashMode

# The values a generated workload writes.
ALPHABET = (b"a", b"b", b"c", b"d")
# The phases an at_phase crash may name: those a writer's operation can be
# seen in between steps.
CRASH_PHASES = tuple(phase.value for phase in WritePhase)

DEFAULT_BUDGET = 10_000
DEFAULT_MAX_STEPS = 50_000
DEFAULT_FAIRNESS = 64

# A NamedTuple's generated __new__ is a Python function; each pending
# event's Delivery is built by this one C call instead.
_new_tuple = tuple.__new__


@dataclass
class AdversaryAction:
    step: int
    process: str
    action: str


@dataclass
class Config:
    t: int = 1
    tm: int = 1
    writers: int = 2
    readers: int = 2
    d: int | None = None
    seed: int = 0
    hash_mode: HashMode = HashMode.PRODUCTION
    mds_mode: str = "oracle"
    ops: int = 3
    fairness: int = DEFAULT_FAIRNESS
    budget: int = DEFAULT_BUDGET
    max_steps: int = DEFAULT_MAX_STEPS
    fifo: bool = False
    byz_data: dict = dc_field(default_factory=dict)  # pid -> ByzStrategy
    byz_meta: dict = dc_field(default_factory=dict)  # pid -> ByzStrategy
    crashes: tuple = ()  # CrashSpec, ...
    adversary: tuple = ()  # AdversaryAction, ...
    lower_bound: bool = False
    workload: dict | None = None  # pid -> [("WRITE", bytes) | ("READ", None)]

    def __post_init__(self) -> None:
        if isinstance(self.hash_mode, str):
            modes = {m.value: m for m in HashMode}
            if self.hash_mode not in modes:
                raise ConfigError(
                    f"unknown hash mode {self.hash_mode!r}; expected one of {', '.join(modes)}"
                )
            self.hash_mode = modes[self.hash_mode]

    @property
    def data_count(self) -> int:
        return self.d if self.d is not None else 2 * self.t + 1

    @property
    def meta_count(self) -> int:
        return 3 * self.tm + 1

    def validate(self) -> None:
        if self.t < 0 or self.tm < 0:
            raise ConfigError("fault thresholds must be non-negative")
        if self.writers < 0 or self.readers < 0 or self.ops < 0:
            raise ConfigError("process and operation counts must be non-negative")
        for name in ("fairness", "max_steps", "budget"):
            # At fairness 0 every event is overdue, so the schedule is
            # oldest-first and never random; max_steps 0 simulates nothing
            # and passes the empty history as clean; no operation completes
            # within a budget of 0 steps.
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.data_count < 1:
            raise ConfigError("need at least one data replica")
        if self.mds_mode not in ("oracle", "replicated"):
            raise ConfigError(f"unknown mds mode {self.mds_mode!r}")
        if not self.lower_bound:
            if self.data_count != 2 * self.t + 1:
                raise ConfigError(
                    f"D={self.data_count} breaks the 2t+1 plan; "
                    "set lower_bound for deliberate under-provisioning"
                )
            if len(self.byz_data) > self.t:
                raise ConfigError("more Byzantine data replicas than t")
            if len(self.byz_meta) > self.tm:
                raise ConfigError("more Byzantine metadata replicas than t_M")
        data_pids = set(self.data_pids())
        meta_pids = set(self.meta_pids())
        for pid in self.byz_data:
            if pid not in data_pids:
                raise ConfigError(f"Byzantine assignment to unknown data replica {pid!r}")
        for pid in self.byz_meta:
            if pid not in meta_pids:
                raise ConfigError(f"Byzantine assignment to unknown metadata replica {pid!r}")
        if self.byz_meta and self.mds_mode != "replicated":
            raise ConfigError("Byzantine metadata replicas require replicated mds mode")
        faulty = set(self.byz_data) | set(self.byz_meta)
        writers = set(self.writer_pids())
        clients = {*writers, *self.reader_pids()}
        built = {*data_pids, *clients}
        built |= meta_pids if self.mds_mode == "replicated" else {DIR_PID, HASH_PID}
        for spec in self.crashes:
            # A crash names a process this run builds and exactly one
            # trigger: a step, a client's operation count, or a writer's phase.
            pid, phase = spec.process, spec.at_phase
            if pid not in built:
                raise ConfigError(f"crash target {pid!r} is not a process of this run")
            if pid in faulty:
                raise ConfigError(f"crash target {pid!r} is already Byzantine")
            triggers = [t for t in (spec.at_step, spec.after_ops, phase) if t is not None]
            if len(triggers) != 1:
                raise ConfigError(
                    f"crash of {pid!r} needs exactly one of at_step, after_ops and at_phase"
                )
            if spec.at_step is not None and spec.at_step < 0:
                raise ConfigError(
                    f"crash of {pid!r}: at_step must be non-negative, got {spec.at_step}"
                )
            if spec.after_ops is not None and pid not in clients:
                raise ConfigError(f"after_ops crash target {pid!r} is not a client")
            # The crash follows the completion that reaches the count, so
            # there must be one.
            if spec.after_ops is not None and spec.after_ops < 1:
                raise ConfigError(
                    f"crash of {pid!r}: after_ops must be at least 1, got {spec.after_ops}"
                )
            if phase is not None and pid not in writers:
                raise ConfigError(f"at_phase crash target {pid!r} is not a writer")
            if phase is not None and phase not in CRASH_PHASES:
                raise ConfigError(
                    f"crash of {pid!r}: at_phase {phase!r} is not one of {', '.join(CRASH_PHASES)}"
                )
        for act in self.adversary:
            # An action names a Byzantine process of this run, a
            # non-negative step, and an action its class takes without
            # params. A step the run never starts is not rejected; the
            # action then never fires.
            pid = act.process
            if pid not in faulty:
                raise ConfigError(f"adversary action targets non-Byzantine process {pid!r}")
            if act.step < 0:
                raise ConfigError(
                    f"adversary action on {pid!r}: step must be non-negative, got {act.step}"
                )
            actions = (ByzDataReplica if pid in self.byz_data else ByzMetaReplica).PLAN_ACTIONS
            if act.action not in actions:
                raise ConfigError(
                    f"adversary action on {pid!r}: {act.action!r} is not one of "
                    f"{', '.join(actions)}"
                )
        for pid, ops in (self.workload or {}).items():
            # A given workload names clients of this run, each with only
            # operations of its own kind.
            if pid not in clients:
                raise ConfigError(f"workload names unknown client {pid!r}")
            kind = "WRITE" if pid in writers else "READ"
            if any(op_kind != kind for op_kind, _ in ops):
                raise ConfigError(f"workload gives {pid!r} an operation other than {kind}")

    def writer_pids(self) -> list[str]:
        return [f"w{i + 1}" for i in range(self.writers)]

    def reader_pids(self) -> list[str]:
        return [f"r{i + 1}" for i in range(self.readers)]

    def data_pids(self) -> list[str]:
        return [f"d{i + 1}" for i in range(self.data_count)]

    def meta_pids(self) -> list[str]:
        return [f"m{i + 1}" for i in range(self.meta_count)]

    def client_ids(self) -> dict[str, int]:
        ids: dict[str, int] = {}
        for i, pid in enumerate(self.writer_pids()):
            ids[pid] = i + 1
        for j, pid in enumerate(self.reader_pids()):
            ids[pid] = self.writers + j + 1
        return ids

    def render(self) -> dict:
        return {
            "t": self.t,
            "tm": self.tm,
            "writers": self.writers,
            "readers": self.readers,
            "d": self.data_count,
            "m": self.meta_count,
            "seed": self.seed,
            "hash_mode": self.hash_mode.value,
            "mds_mode": self.mds_mode,
            "ops": self.ops,
            "fairness": self.fairness,
            "budget": self.budget,
            "max_steps": self.max_steps,
            "fifo": self.fifo,
            "byz_data": {p: s.value for p, s in sorted(self.byz_data.items())},
            "byz_meta": {p: s.value for p, s in sorted(self.byz_meta.items())},
            "crashes": [
                {"process": c.process, "at_step": c.at_step,
                 "after_ops": c.after_ops, "at_phase": c.at_phase}
                for c in self.crashes
            ],
            "lower_bound": self.lower_bound,
        }


@dataclass
class World:
    config: Config
    processes: dict[str, Process]
    clients: dict[str, ClientBase]
    digests: DigestFacility
    workload: dict[str, list[tuple[str, bytes | None]]]


def default_workload(config: Config) -> dict[str, list[tuple[str, bytes | None]]]:
    rng = random.Random(f"{config.seed}|workload")
    plan: dict[str, list[tuple[str, bytes | None]]] = {}
    for pid in config.writer_pids():
        plan[pid] = [("WRITE", rng.choice(ALPHABET)) for _ in range(config.ops)]
    for pid in config.reader_pids():
        plan[pid] = [("READ", None)] * config.ops
    return plan


def build_world(config: Config) -> World:
    config.validate()
    digests = DigestFacility(config.hash_mode)
    client_ids = config.client_ids()
    writer_pids = frozenset(config.writer_pids())
    writer_cids = [client_ids[p] for p in config.writer_pids()]
    data_pids = config.data_pids()

    processes: dict[str, Process] = {}
    for pid in data_pids:
        strategy = config.byz_data.get(pid)
        processes[pid] = (
            DataReplica(pid, writer_pids) if strategy is None
            else ByzDataReplica(pid, writer_pids, strategy)
        )

    if config.mds_mode == "oracle":
        processes[DIR_PID] = DirectoryOracle(DIR_PID, client_ids, writer_pids)
        processes[HASH_PID] = HashArrayOracle(HASH_PID, client_ids)
    else:
        meta_pids = config.meta_pids()
        for pid in meta_pids:
            args = (pid, meta_pids, config.tm, client_ids, writer_cids)
            strategy = config.byz_meta.get(pid)
            processes[pid] = (
                MetaReplica(*args) if strategy is None else ByzMetaReplica(*args, strategy)
            )

    clients: dict[str, ClientBase] = {}
    for pid in config.writer_pids():
        client = WriterClient(pid, client_ids[pid], digests, data_pids, config.t)
        clients[pid] = client
    for pid in config.reader_pids():
        client = ReaderClient(pid, client_ids[pid], digests, data_pids, config.t)
        clients[pid] = client
    for pid, client in clients.items():
        if config.mds_mode == "oracle":
            client.driver = OracleMdsDriver(client)
        else:
            client.driver = ReplicatedMdsDriver(
                client, config.meta_pids(), config.tm, writer_cids, client.cid
            )
        processes[pid] = client

    workload = config.workload if config.workload is not None else default_workload(config)
    return World(config, processes, clients, digests, workload)


# An entry of `Simulation.events`, which only `RunResult.trace_lines`
# decodes (see the module docstring).
Event = dict | Delivery | int | tuple[int, str, str | None, Message]


def message_body(msg: Message) -> str:
    """A message's body in the trace file, written straight from its
    fields by `encoded`. Its bytes are those of `json_line(msg.render())`,
    the reference it is tested against; neither `render` nor
    `render_field` is called. The kind, src and dst are keys of the body's
    shape like its fields, so, as in `render`, a field named kind, src or
    dst takes the place of the header key (`Port.send` cannot build one:
    Python rejects the keyword). The kind is read as `_value_`, an
    instance attribute; `value` is a Python-level property."""
    kind, src, dst, fields = msg
    parts, pick = OBJECT_FORMATS[(None, "kind", "src", "dst", *fields)]
    return "".join(pick([
        _ascii(kind._value_), _ascii(src), _ascii(dst), *encoded(fields.values()), *parts,
    ]))


@dataclass
class RunResult:
    config: Config
    steps: int
    quiescent: bool
    events: list[Event]  # decoded by `trace_lines` alone
    history: list[OpRecord]
    dir_ops: list[DirOpRecord]
    snapshots: dict[str, dict]  # pid -> the process's final_state(), unrendered
    crashed: set[str]

    def trace_lines(self) -> Iterator[str]:
        """Yield the trace file's lines, one per entry of the event log,
        each a `json_line` with its newline.

        A body is encoded by `message_body` at its message's send, kept in
        `bodies` and popped at the deliver, drop or undelivered event that
        closes the message. A message dropped as it is sent has no send
        event, so its drop line encodes its body and does not keep it.
        """
        # Keyed by id: a Message holds a mapping proxy and is unhashable, and
        # the event list keeps every message alive, so no id is reused.
        bodies: dict[int, str] = {}
        events = iter(self.events)
        for event in events:
            cls = type(event)
            # The keys in sort order: ev, msg, reason, step. ev and reason are
            # fixed names set in this module, so they need no JSON escaping.
            if cls is Delivery:
                _, step, msg, _ = event
                body = bodies[id(msg)] = message_body(msg)
                yield f'{{"ev":"send","msg":{body},"step":{step}}}\n'
            elif cls is int:  # the deliver's step; its Delivery comes next
                msg = next(events)[2]
                yield f'{{"ev":"deliver","msg":{bodies.pop(id(msg))},"step":{event}}}\n'
            elif cls is dict:  # its keys are keyword names, so exact strs
                parts, pick = OBJECT_FORMATS[(None, *event)]
                yield "".join(pick(encoded(event.values()) + parts)) + "\n"
            else:
                step, ev, reason, msg = event
                body = bodies.pop(id(msg), None) or message_body(msg)
                if reason is None:
                    yield f'{{"ev":"{ev}","msg":{body},"step":{step}}}\n'
                else:
                    yield f'{{"ev":"{ev}","msg":{body},"reason":"{reason}","step":{step}}}\n'

    @functools.cached_property
    def final_states(self) -> dict[str, dict]:
        """Each process's final state, rendered when first read."""
        return {pid: render_field(state) for pid, state in self.snapshots.items()}

    def latencies(self) -> dict[int, int | None]:
        return {
            op.op_id: (op.response - op.invoke if op.complete else None)
            for op in self.history
        }

    def incomplete_ops(self) -> list[OpRecord]:
        """The ops that never responded, except those of crashed clients."""
        return [
            op for op in self.history if not op.complete and op.client not in self.crashed
        ]


class Simulation:
    """Event loop, trace recorder, and fault injector for one run."""

    def __init__(self, world: World):
        self.world = world
        self.config = world.config
        self.processes = world.processes
        self.fifo = self.config.fifo
        self.rng = random.Random(f"{self.config.seed}|sched")
        self.step = 0
        self.seq = 0
        # Pending events in seq order: seqs are inserted in increasing order.
        self.pending: dict[int, Delivery] = {}
        self.ready: list[int] = []  # ascending; see the module docstring
        self.channels: defaultdict[tuple[str, str], deque[int]] = defaultdict(deque)  # FIFO only
        self.events: list[Event] = []
        self.crashed: set[str] = set()
        self.history: list[OpRecord] = []  # in invocation order
        self.dir_ops: list[DirOpRecord] = []  # in begin order
        self.queues: dict[str, list[tuple[str, bytes | None]]] = {
            pid: list(ops) for pid, ops in world.workload.items()
        }
        self.completed_ops: dict[str, int] = {pid: 0 for pid in world.clients}
        # The fault plan, compiled once; see the module docstring. Timed
        # entries map a step to (pid, action) pairs, action None for a crash.
        self.timed: dict[int, list[tuple[str, str | None]]] = {}
        for spec in self.config.crashes:
            if spec.at_step is not None:
                self.timed.setdefault(spec.at_step, []).append((spec.process, None))
        for act in self.config.adversary:
            self.timed.setdefault(act.step, []).append((act.process, act.action))
        # Watched crashes: (pid, after_ops, None) or (pid, None, phase).
        self.watched: list[tuple[str, int | None, WritePhase | None]] = [
            (spec.process, spec.after_ops, spec.at_phase and WritePhase(spec.at_phase))
            for spec in self.config.crashes if spec.at_step is None
        ]
        port = Port(self._send, self._trace_note, self._begin, self._end)
        for proc in world.processes.values():
            proc.port = port

    # -- port callbacks -----------------------------------------------------

    def _send(self, msg: Message) -> None:
        _, src, dst, _ = msg
        if dst not in self.processes:
            raise HarnessError(f"message to unknown process {dst!r}")
        if dst in self.crashed:
            self.events.append((self.step, "drop", "destination-crashed", msg))
            return
        self.seq = seq = self.seq + 1
        # The pending event is also the send's trace entry.
        self.pending[seq] = delivery = _new_tuple(Delivery, (seq, self.step, msg, None))
        if self.fifo:
            chan = self.channels[(src, dst)]
            chan.append(seq)
            if len(chan) == 1:
                self.ready.append(seq)
        else:
            self.ready.append(seq)
        self.events.append(delivery)

    def _trace_note(self, proc: str, note: str, **payload: Any) -> None:
        # The payload stays raw: every note's values are immutable.
        self._trace("note", proc=proc, note=note, **payload)

    def _begin(self, rec: DirOpRecord) -> None:
        rec.invoke = self.step
        self.dir_ops.append(rec)

    def _end(self, rec: OpRecord | DirOpRecord) -> None:
        rec.response = self.step
        if isinstance(rec, OpRecord):
            pid = rec.client
            self.completed_ops[pid] += 1
            self._trace("response", op_id=rec.op_id, client=pid, ret=rec.ret)
            if self.queues[pid]:
                self.enqueue_invoke(pid)

    # -- fault machinery ----------------------------------------------------

    def crash(self, pid: str) -> None:
        if pid in self.crashed:
            return
        if pid not in self.world.processes:
            raise ConfigError(f"crash target {pid!r} does not exist")
        self.crashed.add(pid)
        self._trace("crash", proc=pid)
        doomed = [
            d.seq for d in self.pending.values()
            if (d.msg.dst if d.msg is not None else d.pid) == pid
        ]
        for seq in doomed:
            delivery = self.take(seq)
            if delivery.msg is not None:
                self._trace_msg("drop", delivery.msg, "target-crashed")
            else:
                self._trace("drop", reason="target-crashed", kind="invoke",
                            payload={"pid": delivery.pid})
        if pid in self.queues:
            self.queues[pid] = []

    def adversary(self, pid: str, action: str, params: dict) -> None:
        proc = self.world.processes.get(pid)
        if proc is None or not hasattr(proc, "apply_adversary"):
            raise ConfigError(f"adversary action targets non-Byzantine process {pid!r}")
        self._trace("adversary", proc=pid, action=action)
        proc.apply_adversary(action, params)

    def fire_timed(self) -> None:
        """Start the current step: fire the plan's timed entries for it,
        at most once however often the step is started."""
        for pid, action in self.timed.pop(self.step, ()):
            if action is None:
                self.crash(pid)
            else:
                self.adversary(pid, action, {})

    # -- operations ---------------------------------------------------------

    def enqueue_invoke(self, pid: str) -> None:
        self.seq = seq = self.seq + 1
        self.pending[seq] = _new_tuple(Delivery, (seq, self.step, None, pid))
        self.ready.append(seq)

    def take(self, seq: int) -> Delivery:
        """Remove a ready event from `pending` and `ready`, promoting the
        next message of its FIFO channel. Only ready events are ever taken:
        crashes drop a channel's messages oldest first."""
        delivery = self.pending.pop(seq)
        ready = self.ready
        del ready[bisect_left(ready, seq)]
        _, _, msg, _ = delivery
        if self.fifo and msg is not None:
            _, src, dst, _ = msg
            chan = self.channels[(src, dst)]
            head = chan.popleft()
            assert head == seq, "took a FIFO message that was not its channel's head"
            if chan:
                insort(ready, chan[0])
        return delivery

    def invoke_next(self, pid: str) -> int:
        queue = self.queues[pid]
        if not queue:
            raise HarnessError(f"no queued operations left for {pid!r}")
        kind, arg = queue.pop(0)
        op = OpRecord(op_id=len(self.history) + 1, client=pid, kind=kind, arg=arg,
                      invoke=self.step)
        self.history.append(op)
        self._trace("invoke", op_id=op.op_id, client=pid, kind=kind, arg=arg)
        self.world.clients[pid].invoke(op)
        return op.op_id

    # -- event dispatch -----------------------------------------------------

    def _trace(self, ev: str, **payload: Any) -> None:
        entry = {"step": self.step, "ev": ev}
        entry.update(payload)
        self.events.append(entry)

    def _trace_msg(self, ev: str, msg: Message, reason: str | None = None) -> None:
        self.events.append((self.step, ev, reason, msg))

    def dispatch(self, delivery: Delivery) -> None:
        _, _, msg, client = delivery
        if msg is None:
            self.invoke_next(client)
        else:
            _, _, dst, _ = msg
            events = self.events
            events.append(self.step)
            events.append(delivery)
            self.processes[dst].on_message(msg)
        for pid, ops, phase in self.watched:
            if phase is None:
                due = self.completed_ops[pid] >= ops
            else:
                ctx = self.world.clients[pid].ctx
                due = ctx is not None and ctx.phase is phase
            if due:
                self.crash(pid)  # a no-op once pid has crashed

    # -- random-schedule loop -----------------------------------------------

    def run(self) -> RunResult:
        """Run the random schedule to quiescence or `max_steps`, then finish.

        The loop pauses the cyclic garbage collector, a global side effect:
        nothing in the interpreter is collected meanwhile. The caller's
        collector state is restored in a `finally`. If it was on and the
        loop returned, `gc.freeze()` then `gc.unfreeze()` move every tracked
        object, the run's included, to the oldest generation without walking
        them, and zero generation 0's count; left to the thresholds, a
        young pass here and a middle-generation pass in the caller's next
        allocations would each walk them. No collection is needed here, as
        it could free nothing: the simulation still holds every message,
        delivery and record of the run, and a run makes no cyclic garbage
        (`finish` breaks its two cycles). A further side effect: objects
        the caller had frozen are thawed into the oldest generation too.
        """
        for pid in sorted(self.queues):
            if self.queues[pid]:
                self.enqueue_invoke(pid)
        # ready and pending are only ever mutated in place, so these locals
        # stay the live containers; nothing but this loop advances the step.
        ready, pending = self.ready, self.pending
        fairness, max_steps = self.config.fairness, self.config.max_steps
        timed = self.timed
        getrandbits = self.rng.getrandbits
        step = self.step
        quiescent = False
        collecting = gc.isenabled()
        gc.disable()
        try:
            while step < max_steps:
                if step in timed:
                    self.fire_timed()
                if not ready:
                    quiescent = True
                    break
                seq = ready[0]
                _, created_step, _, _ = pending[seq]
                if step - created_step < fairness:  # ready[0] is not overdue
                    # rng.choice(ready)'s draws, without its two Python frames
                    n = len(ready)
                    k = n.bit_length()
                    i = getrandbits(k)
                    while i >= n:
                        i = getrandbits(k)
                    seq = ready[i]
                self.dispatch(self.take(seq))
                self.step = step = step + 1
        finally:
            if collecting:
                gc.enable()
        if collecting:
            gc.freeze()
            gc.unfreeze()
        return self.finish(quiescent)

    # -- wrap-up ------------------------------------------------------------

    def finish(self, quiescent: bool) -> RunResult:
        for delivery in self.pending.values():
            if delivery.msg is not None:
                self._trace_msg("undelivered", delivery.msg)
            else:
                self._trace("undelivered", kind="invoke", payload={"pid": delivery.pid})
        snapshots = {}
        for pid, proc in sorted(self.world.processes.items()):
            state = snapshots[pid] = proc.final_state()
            self._trace("final", proc=pid, crashed=pid in self.crashed, state=state)
        # Break the run's cycles: simulation -> process -> port -> bound
        # callback -> simulation, and client <-> driver.
        for proc in self.processes.values():
            proc.port = None
        for client in self.world.clients.values():
            client.driver = None
        return RunResult(
            config=self.config,
            steps=self.step,
            quiescent=quiescent,
            events=self.events,
            history=self.history,
            dir_ops=sorted(self.dir_ops, key=lambda r: (r.invoke, r.proc, r.tag)),
            snapshots=snapshots,
            crashed=set(self.crashed),
        )


# -- scripted schedules ------------------------------------------------------


@dataclass(frozen=True)
class Match:
    """Pattern over pending message deliveries."""
    kind: MsgKind | None = None
    src: str | None = None
    dst: str | None = None

    def covers(self, msg: Message) -> bool:
        if self.kind is not None and msg.kind is not self.kind:
            return False
        if self.src is not None and msg.src != self.src:
            return False
        if self.dst is not None and msg.dst != self.dst:
            return False
        return True


class Script:
    """Driver for proof-style schedules: deliver by pattern, starve the rest.

    Each method call is one step per event it fires, and every step starts
    at `Simulation.fire_timed`, so the config's fault plan fires as it does
    in a random run.
    """

    def __init__(self, sim: Simulation):
        self.sim = sim

    def _step(self, act: Callable[[], object]) -> None:
        """One step: fire the plan's timed entries for it, then `act`."""
        self.sim.fire_timed()
        act()
        self.sim.step += 1

    def _fire_first(self, accept: Callable[[Delivery], bool]) -> bool:
        """Dispatch the oldest ready event that `accept` takes, if any."""
        sim = self.sim
        sim.fire_timed()  # before the pick: a timed crash may drop a candidate
        seq = next((seq for seq in sim.ready if accept(sim.pending[seq])), None)
        if seq is not None:
            self._step(lambda: sim.dispatch(sim.take(seq)))
        return seq is not None

    def invoke(self, pid: str) -> int:
        sim = self.sim
        # An invocation the script makes, not one taken from the pending set.
        self._step(lambda: sim.dispatch(Delivery(0, sim.step, pid=pid)))
        return sim.history[-1].op_id

    def deliver(self, match: Match, count: int | None = 1) -> int:
        """Deliver the oldest `count` matching messages (all if count=None)."""
        delivered = 0
        while (count is None or delivered < count) and self._fire_first(
            lambda d: d.msg is not None and match.covers(d.msg)
        ):
            delivered += 1
        if count is not None and delivered < count:
            raise HarnessError(
                f"script expected {count} deliveries matching {match}, got {delivered}"
            )
        return delivered

    def drain(self, *starve: Match) -> int:
        """Deliver everything except messages matching a starve pattern."""
        delivered = 0
        while self._fire_first(
            lambda d: d.msg is None or not any(m.covers(d.msg) for m in starve)
        ):
            delivered += 1
        return delivered

    def crash(self, pid: str) -> None:
        self._step(lambda: self.sim.crash(pid))

    def adversary(self, pid: str, action: str, params: dict | None = None) -> None:
        self._step(lambda: self.sim.adversary(pid, action, params or {}))


def run(config: Config, script: Callable[[Script, World], None] | None = None) -> RunResult:
    """Execute one simulation; `script` switches to a scripted schedule."""
    world = build_world(config)
    sim = Simulation(world)
    if script is None:
        return sim.run()
    script(Script(sim), world)
    return sim.finish(quiescent=not sim.pending)
