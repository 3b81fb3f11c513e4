"""Span tracer for the benchmark's traced run.

`Tracer.install` wraps the public entry points of each splitstore layer
in place, so a span opens and closes around every call into the layer.
A span is (name, start, end, parent index); the spans of one simulated
run are kept in memory and folded into per-name totals when the run
ends. A span's self time is its duration minus the durations of its
direct children, so the self times of one run add up to the duration of
its root span.

The first component of a span name is its layer: simnet, net, client,
replica, mds_oracle, mds_replicated, checker, cli, and bench for the
benchmark's own glue. Byzantine subclasses from `faults` count towards
the layer they subclass. No private name of the package is wrapped.

Alongside the spans, the tracer counts at the same boundaries:
messages and payload bytes per message kind and metadata mode (payload
bytes are the compact JSON of `Message.render()`), pairs per
META-UPDATE, pending events at dispatch, and the reader's wasted
replies.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

DATA_KINDS = frozenset({"WRITE", "WRITE-ACK", "COMMIT", "READ", "READ-VAL"})
WASTE_NOTES = ("readval-discarded", "digest-check-failed")
LEMMAS = (
    "lemma_directory_monotone",
    "lemma_read_sandwich",
    "lemma_timestamp_order",
    "lemma_unique_write_timestamps",
    "lemma_value_integrity",
)


def plane_of(kind: str) -> str:
    return "data" if kind in DATA_KINDS else "meta"


@dataclass
class RunTrace:
    """Per-run fold of the spans and counters of one simulated run."""

    self_s: dict[str, float]
    calls: Counter
    root_s: float
    counts: Counter
    # (mode, kind) -> [messages, payload bytes]
    messages: dict[tuple[str, str], list[int]] = field(default_factory=dict)

    def scale(self, factor: float) -> None:
        self.self_s = {name: value * factor for name, value in self.self_s.items()}
        self.root_s *= factor


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Any] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._last_render: Any = None
        self._render: Callable[[Any], dict] | None = None
        self._make_message: Callable[..., Any] | None = None
        self.run_id: Any = None
        self.mode = ""
        self.counts: Counter = Counter()
        self.messages: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        perf = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def begin_run(self, run_id: Any, mode: str) -> None:
        self.spans.clear()
        self.counts = Counter()
        self.messages = defaultdict(lambda: [0, 0])
        self.run_id = run_id
        self.mode = mode

    def end_run(self) -> RunTrace:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        root_s = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if parent < 0:
                root_s += end - start
        return RunTrace(
            self_s=dict(self_s), calls=calls, root_s=root_s,
            counts=self.counts, messages=dict(self.messages),
        )

    def raw_spans(self) -> list[dict]:
        """The current run's spans, for writing out (host wall clock)."""
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "run": self.run_id}
            for name, start, end, parent in self.spans
        ]

    # -- installation ----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Callable[..., Any]) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner: Any, attr: str, name: str) -> None:
        self._patch(owner, attr, self.span(name, owner.__dict__[attr]))

    def install(self) -> None:
        """Wrap every layer's entry points. Undo with `uninstall`."""
        from splitstore import checker, cli, client, faults, mds_oracle
        from splitstore import mds_replicated, net, replica, simnet

        self._wrap(simnet, "build_world", "simnet.build")
        self._wrap(simnet.Simulation, "run", "simnet.schedule")
        self._wrap(simnet.Simulation, "finish", "simnet.finish")
        dispatch = self.span("simnet.dispatch", simnet.Simulation.dispatch)

        def dispatch_counting(sim: Any, delivery: Any) -> None:
            if len(sim.pending) > self.counts["pending_peak"]:
                self.counts["pending_peak"] = len(sim.pending)
            dispatch(sim, delivery)

        self._patch(simnet.Simulation, "dispatch", dispatch_counting)

        self._render = net.Message.render
        self._make_message = net.make_message
        render = self.span("net.render", net.Message.render)

        def render_capturing(msg: Any) -> dict:
            out = render(msg)
            self._last_render = out
            return out

        self._patch(net.Message, "render", render_capturing)
        account = self.span("bench.plane", self._account)
        send = net.Port.send

        def send_counting(port: Any, kind: Any, src: str, dst: str, **fields: Any) -> None:
            self._last_render = None
            send(port, kind, src, dst, **fields)
            account(kind, src, dst, fields)

        self._patch(net.Port, "send", self.span("net.send", send_counting))
        note = net.Port.trace

        def note_counting(port: Any, proc: str, name: str, **payload: Any) -> None:
            self.counts["note." + name] += 1
            note(port, proc, name, **payload)

        self._patch(net.Port, "trace", note_counting)

        for cls in (client.WriterClient, client.ReaderClient):
            self._wrap(cls, "invoke", "client.invoke")
            self._wrap(cls, "on_message", "client.on_message")
        reader_on_message = client.ReaderClient.on_message
        read_val = net.MsgKind.READ_VAL

        def reader_counting(proc: Any, msg: Any) -> None:
            if msg.kind is read_val:
                self.counts["readval_delivered"] += 1
            reader_on_message(proc, msg)

        self._patch(client.ReaderClient, "on_message", reader_counting)

        self._wrap(replica.DataReplica, "on_message", "replica.on_message")
        self._wrap(faults.ByzDataReplica, "on_message", "replica.on_message")
        self._wrap(faults.ByzDataReplica, "apply_adversary", "replica.adversary")

        self._wrap(mds_oracle.DirectoryOracle, "on_message", "mds_oracle.directory")
        self._wrap(mds_oracle.HashArrayOracle, "on_message", "mds_oracle.hash_array")
        self._wrap(mds_replicated.MetaReplica, "on_message", "mds_replicated.replica")
        self._wrap(faults.ByzMetaReplica, "on_message", "mds_replicated.replica")
        self._wrap(faults.ByzMetaReplica, "apply_adversary", "mds_replicated.replica")
        for cls, layer in ((mds_oracle.OracleMdsDriver, "mds_oracle"),
                           (mds_replicated.ReplicatedMdsDriver, "mds_replicated")):
            for attr in ("handle", "tsread", "tswrite", "hash_read", "hash_write"):
                self._wrap(cls, attr, f"{layer}.driver")

        self._wrap(checker, "check_run", "checker.run")
        self._wrap(checker, "check_register_linearizable", "checker.register")
        self._wrap(checker, "check_directory_linearizable", "checker.directory")
        self._wrap(checker, "check_wait_freedom", "checker.wait_free")
        for attr in LEMMAS:
            self._wrap(checker, attr, "checker.lemmas")
        self._wrap(cli, "write_outputs", "cli.write_outputs")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- plane accounting --------------------------------------------------------

    def _account(self, kind: Any, src: str, dst: str, fields: dict) -> None:
        rendered = self._last_render
        if rendered is None:  # the network discarded the message unrendered
            rendered = self._render(self._make_message(kind, src, dst, **fields))
        size = len(json.dumps(rendered, separators=(",", ":")))
        entry = self.messages[(self.mode, kind.value)]
        entry[0] += 1
        entry[1] += size
        if kind.value == "META-UPDATE":
            self.counts["update_msgs"] += 1
            self.counts["update_pairs"] += sum(len(u["pairs"]) for u in fields["updates"])
