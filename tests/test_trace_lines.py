"""`RunResult.trace_lines()` against a reference rendering of every
logged entry, and `message_body` against `json_line(msg.render())` for
every message.

The reference shares nothing with the writer but `render_field`:
`conftest.decode_events` decodes the event log from its documented format,
`Message.render` renders each message, and `json.dumps` encodes each
entry. `trace_lines()` encodes a message's body once, at its send, keeps
it while the message is in flight and splices it into the send line and
the line that closes the message. Each case below is a way a message's
life can end that the cache must survive. Besides the bytes, every case
checks that the cache holds exactly one body per message in flight after
each line and nothing at the end, which is what bounds the writer's
memory.
"""
import json
from types import MappingProxyType
from typing import NamedTuple

import pytest

from conftest import decode_events
from splitstore import cli, encoding, simnet
from splitstore.checker import check_run
from splitstore.cli import write_outputs
from splitstore.faults import FABRICATED_CID, ByzStrategy
from splitstore.mds_replicated import Pair
from splitstore.net import Message, MsgKind, render_field
from splitstore.scenarios import (
    SCENARIO_NAMES, ScenarioOutcome, random_config, run_scenario, scenario_random,
)
from splitstore.encoding import json_line, object_format
from splitstore.simnet import Config, Match, message_body, run
from splitstore.types import NIL, Metadata, Timestamp


def reference_lines(result) -> list[str]:
    lines = []
    for entry in decode_events(result):
        if isinstance(entry, dict):
            rendered = {key: render_field(value) for key, value in entry.items()}
        else:
            step, ev, reason, msg = entry
            rendered = {"step": step, "ev": ev, "msg": msg.render()}
            if reason is not None:
                rendered["reason"] = reason
        lines.append(json.dumps(rendered, sort_keys=True, separators=(",", ":")) + "\n")
    return lines


def in_flight_after_each(entries) -> list[int]:
    sent: set[int] = set()
    counts = []
    for event in entries:
        if not isinstance(event, dict):
            _step, ev, _reason, msg = event
            if ev == "send":
                sent.add(id(msg))
            else:
                sent.discard(id(msg))
        counts.append(len(sent))
    return counts


def assert_lines_match(result) -> None:
    lines, cached = [], []
    writer = result.trace_lines()
    for line in writer:
        bodies = writer.gi_frame.f_locals["bodies"]  # its body cache, paused at a yield
        lines.append(line)
        cached.append(len(bodies))
    assert lines == reference_lines(result)
    assert cached == in_flight_after_each(decode_events(result))
    assert bodies == {}


def message_events(result, ev: str) -> list[tuple]:
    return [e for e in decode_events(result) if not isinstance(e, dict) and e[1] == ev]


def test_a_message_dropped_at_its_send():
    def script(s, world):
        s.crash("d1")
        s.invoke("w1")  # the WRITE to d1 is dropped as it is sent
        s.drain()

    result = run(Config(ops=1), script)
    sent = {id(e[3]) for e in message_events(result, "send")}
    at_send = [e for e in message_events(result, "drop") if id(e[3]) not in sent]
    assert at_send and at_send[0][2] == "destination-crashed"
    assert_lines_match(result)


def test_a_crash_drops_pending_messages_and_invocations():
    def script(s, world):
        s.invoke("w1")
        s.drain(Match(dst="d1"))  # both writes finish on d2 and d3
        s.crash("d1")  # drops the WRITEs and COMMITs still pending to d1
        s.invoke("r1")
        s.deliver(Match(), count=None)  # messages only: r1's next invoke waits
        s.crash("r1")  # drops that invoke
        s.drain()

    result = run(Config(writers=1, readers=1, ops=2), script)
    sent = {id(e[3]) for e in message_events(result, "send")}
    crash_drops = [e for e in message_events(result, "drop") if e[2] == "target-crashed"]
    assert crash_drops and all(id(e[3]) in sent for e in crash_drops)
    assert any(e["ev"] == "drop" and e["reason"] == "target-crashed"
               for e in decode_events(result) if isinstance(e, dict))
    assert_lines_match(result)


def test_a_run_cut_by_max_steps_leaves_messages_undelivered():
    result = run(Config(seed=4, ops=3, max_steps=40))
    assert not result.quiescent
    assert message_events(result, "undelivered")
    assert_lines_match(result)


def test_scripted_deliver_and_drain_runs():
    for name in ("fig1", "theorem1-byz"):
        for _label, result, _verdict in run_scenario(name, 0).runs:
            assert_lines_match(result)


def test_random_runs_with_notes_and_faults():
    notes = 0
    for seed in range(12):
        result = run(random_config(seed))
        notes += sum(1 for e in decode_events(result)
                     if isinstance(e, dict) and e["ev"] == "note")
        assert_lines_match(result)
    assert notes


def test_message_body_matches_the_rendered_message():
    # Seeds 0-59 are one period of random_config's fault plans; 60-63 keep
    # the checked messages above the floor below.
    results = [
        run(random_config(seed, mds_mode=mode))
        for seed in range(64) for mode in ("oracle", "replicated")
    ]
    results += [r for name in SCENARIO_NAMES for _label, r, _v in run_scenario(name, 0).runs]
    kinds, fabricated, checked = set(), set(), 0
    for result in results:
        seen = set()
        for event in decode_events(result):
            if isinstance(event, dict) or id(event[3]) in seen:
                continue
            msg = event[3]
            seen.add(id(msg))
            body = message_body(msg)
            assert body == json_line(msg.render()), msg
            checked += 1
            kinds.add(msg.kind)
            if f'{FABRICATED_CID}"' in body:
                fabricated.add(msg.kind)
    strategies = {
        (plane, strategy)
        for result in results
        for plane, byz in (("data", result.config.byz_data), ("meta", result.config.byz_meta))
        for strategy in byz.values()
    }
    assert checked > 30_000
    assert kinds == set(MsgKind)  # a new kind is checked too
    # Byzantine replicas' invented timestamps: a data replica's READ-VAL and
    # a metadata replica's snapshot reports.
    assert {MsgKind.READ_VAL, MsgKind.META_UPDATE} <= fabricated
    for plane in ("data", "meta"):
        for strategy in (ByzStrategy.FABRICATE_HIGH_TS, ByzStrategy.EQUIVOCATE):
            assert (plane, strategy) in strategies


def test_message_body_on_hand_built_messages():
    # Every inline type with values no run sends, and fields that take a
    # header key's place: Port.send cannot build those (Python rejects the
    # keyword), but render's rule holds for a Message built directly.
    cases = (
        {"flag": True, "off": False, "none": None, "n": -(10**30), "level": MsgKind.READ},
        {"s": 'q"\\\x00\té☃', "b": b"\x00\xff\"", "ts": Timestamp(3, NIL), "big": Timestamp(-1, 7)},
        {"src": "x", "tag": 1},
        {"kind": 5},
        {"dst": None, "a%s": "%", "%": "%%s"},
    )
    for fields in cases:
        msg = Message(MsgKind.WRITE, "w1", "d1", MappingProxyType(fields))
        assert message_body(msg) == json_line(msg.render())


def test_the_writer_never_renders_a_message(monkeypatch, tmp_path):
    # Message.render is the reference above, not a writer: every output
    # file is written with it raising.
    def refuse(msg):
        raise AssertionError(f"rendered {msg.kind.value} through Message.render")

    monkeypatch.setattr(Message, "render", refuse)
    outcomes = [scenario_random(seed) for seed in range(60)]
    outcomes += [run_scenario(name, 0) for name in SCENARIO_NAMES]
    long_run = run(Config(seed=0, writers=4, readers=4, ops=50))  # the cli-long shape
    outcomes.append(ScenarioOutcome(
        name="cli-long", seed=0, passed=True, expectation="benchmark shape",
        runs=[("run", long_run, check_run(long_run))],
    ))
    for outcome in outcomes:
        write_outputs(tmp_path, outcome)
    msg = next(e[3] for e in decode_events(long_run) if not isinstance(e, dict))
    with pytest.raises(AssertionError, match="rendered"):
        msg.render()  # the patch was in place


def test_written_values_with_json_and_format_characters():
    # Values a scenario file may write: %-directives, which the templates
    # must not read as theirs, quotes, backslashes and latin-1 bytes above
    # 0x7f, in the invoke, WRITE, READ-VAL and response lines and the
    # replicas' final states.
    values = [b"100%", b"%s", b"%(x)s", b"100%%", b'say "hi"', b"back\\slash", b"\xe9\xff\x80"]
    workload = {"w1": [("WRITE", value) for value in values],
                "r1": [("READ", None)] * len(values)}
    for mds_mode in ("oracle", "replicated"):
        result = run(Config(writers=1, readers=1, workload=workload, mds_mode=mds_mode))
        assert_lines_match(result)
        written = {e["arg"] for e in map(json.loads, result.trace_lines()) if e["ev"] == "invoke"}
        assert {value.decode("latin-1") for value in values} <= written


def test_message_body_needs_no_render_field(monkeypatch):
    # Every field of every message a run sends is encoded inline: the
    # replicated metadata plane's tuples, update dicts, pairs and
    # metadata records included. The reference, Message.render, uses
    # net's render_field, which stays in place.
    def refuse(value):
        raise AssertionError(f"render_field called on a {type(value).__name__}")

    monkeypatch.setattr(encoding, "render_field", refuse)
    monkeypatch.setattr(simnet, "render_field", refuse)
    kinds = set()
    for seed in range(60):
        for mode in ("oracle", "replicated"):
            result = run(random_config(seed, mds_mode=mode))
            for event in decode_events(result):
                if not isinstance(event, dict):
                    msg = event[3]
                    assert message_body(msg) == json_line(msg.render()), msg
                    kinds.add(msg.kind)
            assert all(result.trace_lines())  # nor does any other entry
    assert kinds == set(MsgKind)


class Triple(NamedTuple):
    a: object
    b: object
    c: object


class Keyed(dict):
    pass


def test_message_body_on_nested_and_rare_values():
    # render_field's rules on values no run sends: nested containers,
    # sets sorted by rendered value ("10:1" before "2:1"), dict keys as
    # str(k) with the last of equal keys kept, dict subclasses, empty
    # containers, enums, bools and NamedTuples other than Pair.
    ts, md = Timestamp(2, 1), Metadata(Timestamp(3, NIL), frozenset({3, 1}))
    cases = (
        {"pairs": (Pair(ts, md), Pair(Timestamp(10, 1), "d%s")), "reg": ("hash", ts)},
        {"updates": ({"reg": ("dir", 1), "pairs": (), "current": ts},), "set": {Timestamp(10, 1), ts}},
        {"keys": {1: "int", "1": "str", True: "bool", None: "none", ts: "ts"}},
        {"sub": Keyed(b=[b"\xff"], a={}), "empty": ({}, [], (), frozenset()), "md": md},
        {"enum": ByzStrategy.MUTE, "flags": [True, False, None], "nt": Triple(ts, {md}, ("x",))},
        {"order": {"b": 1, "a": 2}, "again": {"a": 3, "b": 4}, "ids": frozenset({"b", "a"})},
        # sets whose JSON texts sort otherwise than their rendered values
        {"ints": frozenset({10, 9}), "escaped": {"é", "f"}},
    )
    for fields in cases:
        msg = Message(MsgKind.META_UPDATE, "m1", "r1", MappingProxyType(fields))
        assert message_body(msg) == json_line(msg.render())


def test_a_field_named_kind_takes_the_header_keys_place():
    # A body's kind, src and dst are keys of its shape like its fields, so
    # a field of the same name is a later key and its value is the one
    # written, as in Message.render. Keys with % in them come through as
    # they are, in both layouts.
    cases = ({"kind": 5}, {"tag": 1, "kind": "x", "src": None}, {"dst": [1], "%": "%s"})
    for fields in cases:
        msg = Message(MsgKind.WRITE, "w1", "d1", MappingProxyType(fields))
        body = message_body(msg)
        assert body == json_line(msg.render())
        assert json.loads(body)["kind"] == fields.get("kind", "WRITE")
    for nl in (None, "\n  "):
        parts, pick = object_format(["b%s", "a", "b%s"], nl)
        text = "".join(pick(['"first"', "7", '"last"'] + parts))
        expected = {"b%s": "last", "a": 7}
        if nl is None:
            assert text == json_line(expected)
        else:
            assert text == json.dumps(expected, sort_keys=True, indent=2).replace("\n", nl)
    for nl in (None, "\n  "):  # no key: the one part is the whole text
        parts, pick = object_format([], nl)
        assert "".join(pick([] + parts)) == "{}"


def test_the_format_caches_do_not_grow_per_run(tmp_path):
    # Shapes whose keys are data (HashArrayOracle's entries, the report's
    # latencies) are not kept, so writing a pass of runs a second time
    # adds no format: the cache holds the shapes the code writes. Each
    # pass is written twice, since a first run against a last one misses
    # a shape that first appears in between.
    def outcome(name, config):
        result = run(config)
        return ScenarioOutcome(name=name, seed=config.seed, passed=True, expectation="",
                               runs=[("run", result, check_run(result))])

    passes = {
        "cli-long": [Config(seed=seed, writers=4, readers=4, ops=50) for seed in range(10)],
        "replicated": [Config(seed=seed, writers=2, readers=2, ops=30, mds_mode="replicated")
                       for seed in range(10)],
        "random": [random_config(seed) for seed in range(60)],
    }
    for name, configs in passes.items():
        outcomes = [outcome(name, config) for config in configs]
        sizes = []
        for _ in range(2):
            for written in outcomes:
                write_outputs(tmp_path, written)
            sizes.append(len(encoding.OBJECT_FORMATS))
        assert sizes[0] == sizes[1], (name, sizes)


def test_the_trace_file_holds_its_lines_at_any_chunk_size(tmp_path, monkeypatch):
    # write_outputs joins TRACE_CHUNK_LINES lines per write; whatever the
    # size, and also when it divides the line count exactly, the file
    # after its header line is every line once, in order.
    for config in (Config(seed=0), Config(seed=0, writers=0, readers=0)):
        result = run(config)
        lines = list(result.trace_lines())
        n = len(lines)
        divisor = next(d for d in range(2, n + 1) if n % d == 0)
        for size in sorted({1, 2, 7, divisor, n, n + 1}):
            monkeypatch.setattr(cli, "TRACE_CHUNK_LINES", size)
            outcome = ScenarioOutcome(name="chunks", seed=size, passed=True, expectation="",
                                      runs=[("run", result, check_run(result))])
            path = tmp_path / f"chunks-{size}.trace.jsonl"
            assert path in write_outputs(tmp_path, outcome)
            header, rest = path.read_text(encoding="utf-8").split("\n", 1)
            assert json.loads(header)["seed"] == size
            assert rest == "".join(lines), (config.writers, size)
