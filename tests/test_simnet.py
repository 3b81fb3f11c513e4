import dataclasses
import gc
import json

import pytest

from conftest import decode_events, trace_entries
from splitstore import encoding, history, net, simnet, types
from splitstore.faults import ByzStrategy, CrashSpec
from splitstore.net import MsgKind, Port, Process, render_field
from splitstore.scenarios import SCENARIO_NAMES, random_config, run_scenario
from splitstore.simnet import (
    AdversaryAction, Config, Match, Script, Simulation, build_world, run,
)
from splitstore.types import ConfigError, HarnessError, HashMode


def trace_bytes(result):
    return "".join(result.trace_lines()).encode()


def test_same_seed_same_trace():
    cfg = Config(seed=42, ops=3)
    assert trace_bytes(run(cfg)) == trace_bytes(run(cfg))


def test_different_seed_different_trace():
    assert trace_bytes(run(Config(seed=1, ops=3))) != trace_bytes(run(Config(seed=2, ops=3)))


def test_replica_counts_follow_the_thresholds():
    world = build_world(Config(t=2, tm=1, mds_mode="replicated"))
    data = [p for p in world.processes if p.startswith("d")]
    meta = [p for p in world.processes if p.startswith("m")]
    assert len(data) == 5  # 2t + 1
    assert len(meta) == 4  # 3t_m + 1


def test_undersized_replica_group_needs_the_lower_bound_flag():
    with pytest.raises(ConfigError):
        Config(t=1, d=2).validate()
    Config(t=1, d=2, lower_bound=True).validate()


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("name", ["fairness", "max_steps", "budget"])
def test_schedule_limits_below_one_are_config_errors(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be at least 1"):
        Config(**{name: value}).validate()
    with pytest.raises(ConfigError):
        run(Config(**{name: value}))
    Config(**{name: 1}).validate()


@pytest.mark.parametrize("config, says", [
    (Config(writers=-1), "process and operation counts must be non-negative"),
    (Config(ops=-1), "process and operation counts must be non-negative"),
    (Config(d=0, lower_bound=True), "need at least one data replica"),
    (Config(mds_mode="sharded"), "unknown mds mode 'sharded'"),
    (Config(mds_mode="replicated", byz_meta={"m1": ByzStrategy.MUTE, "m2": ByzStrategy.MUTE}),
     "more Byzantine metadata replicas than t_M"),
    (Config(byz_data={"d4": ByzStrategy.MUTE}), "unknown data replica 'd4'"),
    (Config(mds_mode="replicated", byz_meta={"m5": ByzStrategy.MUTE}),
     "unknown metadata replica 'm5'"),
    (Config(byz_meta={"m4": ByzStrategy.MUTE}),
     "Byzantine metadata replicas require replicated mds mode"),
    (Config(byz_data={"d3": ByzStrategy.MUTE}, crashes=(CrashSpec(process="d3", at_step=0),)),
     "crash target 'd3' is already Byzantine"),
    (Config(workload={"w3": [("WRITE", b"x")]}), "workload names unknown client 'w3'"),
    (Config(workload={"w1": [("READ", None)]}), "workload gives 'w1' an operation other than WRITE"),
], ids=["writers", "ops", "no-data-replica", "mds-mode", "byz-meta-count", "byz-data-pid",
        "byz-meta-pid", "byz-meta-oracle", "crash-byzantine", "workload-client",
        "workload-kind"])
def test_a_config_that_cannot_run_is_a_config_error(config, says):
    with pytest.raises(ConfigError, match=says):
        config.validate()


def test_an_unknown_hash_mode_is_a_config_error():
    for mode in ("sha1", "oracle"):
        with pytest.raises(ConfigError, match=(
                f"unknown hash mode '{mode}'; expected one of production, forgeable$")):
            Config(hash_mode=mode)
    assert Config(hash_mode="forgeable").hash_mode is HashMode.FORGEABLE


def test_metadata_replicas_follow_3tm_plus_1_only():
    assert [Config(tm=tm).meta_count for tm in (0, 1, 2)] == [1, 4, 7]
    assert "m" not in {f.name for f in dataclasses.fields(Config)}


def test_a_run_cut_by_max_steps_traces_its_undelivered_invocations():
    res = run(Config(seed=0, max_steps=1))
    assert (res.steps, res.quiescent) == (1, False)
    entries = trace_entries(res)
    invoked = [e["client"] for e in entries if e["ev"] == "invoke"]
    left = [e["payload"]["pid"] for e in entries
            if e["ev"] == "undelivered" and e.get("kind") == "invoke"]
    assert len(invoked) == 1
    assert sorted(left + invoked) == ["r1", "r2", "w1", "w2"]


def test_too_many_byzantine_replicas_is_a_config_error():
    bad = Config(
        t=1,
        byz_data={
            "d1": ByzStrategy.MUTE,
            "d2": ByzStrategy.MUTE,
        },
    )
    with pytest.raises(ConfigError):
        bad.validate()


@pytest.mark.parametrize("crash, says", [
    (CrashSpec(process="w9", at_step=3), "'w9' is not a process of this run"),
    (CrashSpec(process="m1", at_step=3), "'m1' is not a process of this run"),  # oracle mode
    (CrashSpec(process="w1"), "exactly one of at_step, after_ops and at_phase"),
    (CrashSpec(process="w1", at_step=1, after_ops=1), "exactly one of"),
    (CrashSpec(process="w1", at_step=1, at_phase="WRITE-DIR"), "exactly one of"),
    (CrashSpec(process="w1", at_step=-1), "at_step must be non-negative, got -1"),
    (CrashSpec(process="r1", after_ops=-2), "after_ops must be at least 1, got -2"),
    (CrashSpec(process="r1", at_phase="WRITE-DATA"), "'r1' is not a writer"),
    (CrashSpec(process="d1", at_phase="WRITE-DIR"), "'d1' is not a writer"),
    (CrashSpec(process="w1", at_phase="WRITE-DATTA"), "'WRITE-DATTA' is not one of"),
    (CrashSpec(process="w1", at_phase="COMMIT"), "'COMMIT' is not one of"),
    (CrashSpec(process="r1", after_ops=0), "after_ops must be at least 1, got 0"),
    (CrashSpec(process="d3", after_ops=1), "after_ops crash target 'd3' is not a client"),
])
def test_a_crash_that_cannot_fire_is_a_config_error(crash, says):
    with pytest.raises(ConfigError, match=says):
        Config(crashes=(crash,)).validate()


@pytest.mark.parametrize("crash, mode", [
    (CrashSpec(process="dir", at_step=0), "oracle"),
    (CrashSpec(process="m4", at_step=5), "replicated"),
    (CrashSpec(process="r1", after_ops=1), "oracle"),
    *((CrashSpec(process="w2", at_phase=p), "oracle")
      for p in ("READ-DIR", "WRITE-HASH", "WRITE-DATA", "WRITE-DIR")),
])
def test_a_crash_with_one_trigger_on_a_built_process_is_valid(crash, mode):
    Config(crashes=(crash,), mds_mode=mode).validate()


def test_run_reaches_quiescence_without_faults():
    res = run(Config(seed=3, ops=2))
    assert res.quiescent
    assert all(op.complete for op in res.history)


def test_crashed_process_goes_silent():
    crash_at = 30
    cfg = Config(seed=8, ops=3, crashes=(CrashSpec(process="d1", at_step=crash_at),))
    res = run(cfg)
    assert "d1" in res.crashed
    entries = trace_entries(res)
    crash_step = next(e["step"] for e in entries if e["ev"] == "crash" and e["proc"] == "d1")
    for entry in entries:
        if entry["ev"] == "deliver" and entry["msg"]["dst"] == "d1":
            assert entry["step"] <= crash_step
        if entry["ev"] == "send" and entry["msg"]["src"] == "d1":
            assert entry["step"] <= crash_step


def test_crash_after_ops_counts_completed_operations():
    cfg = Config(seed=4, ops=3, crashes=(CrashSpec(process="w1", after_ops=1),))
    res = run(cfg)
    done = [op for op in res.history if op.client == "w1" and op.complete]
    assert len(done) == 1


def test_messages_in_flight_survive_the_sender_crash():
    """The network keeps what a process managed to send before dying."""
    cfg = Config(seed=0, writers=1, readers=0, ops=1,
                 workload={"w1": [("WRITE", b"v")]})

    def script(s, world):
        s.invoke("w1")
        s.drain(Match(dst="d2"), Match(src="d2"), Match(dst="d3"), Match(src="d3"))
        s.crash("w1")
        s.drain()

    res = run(cfg, script=script)
    # d2 received the write even though w1 was gone by then
    assert any(
        e["ev"] == "deliver" and e["msg"]["dst"] == "d2" and e["msg"]["kind"] == "WRITE"
        for e in trace_entries(res)
    )


def test_fifo_channels_deliver_in_send_order():
    res = run(Config(seed=6, ops=3, fifo=True))
    sends: dict[tuple, list] = {}
    for entry in trace_entries(res):
        if entry["ev"] not in ("send", "deliver"):
            continue
        msg = entry["msg"]
        chan = (msg["src"], msg["dst"])
        sends.setdefault(chan, []).append((entry["ev"], json.dumps(msg, sort_keys=True)))
    for chan, events in sends.items():
        sent = [m for ev, m in events if ev == "send"]
        delivered = [m for ev, m in events if ev == "deliver"]
        # delivered sequence must be a prefix-preserving subsequence match
        assert delivered == sent[: len(delivered)]


def test_fairness_bounds_message_age():
    cfg = Config(seed=13, ops=4, fairness=16)
    sim = Simulation(build_world(cfg))
    res = sim.run()
    assert res.quiescent
    # with the overdue-first rule, nothing should linger at the margin for
    # longer than the backlog that piles up while overdue events drain
    send_steps: dict[str, int] = {}
    worst = 0
    for entry in trace_entries(res):
        if entry["ev"] == "send":
            send_steps[json.dumps(entry["msg"], sort_keys=True)] = entry["step"]
        elif entry["ev"] == "deliver":
            key = json.dumps(entry["msg"], sort_keys=True)
            if key in send_steps:
                worst = max(worst, entry["step"] - send_steps.pop(key))
    assert worst <= 16 * 4


def test_adversary_actions_fire_at_their_step():
    cfg = Config(
        seed=2, ops=2,
        byz_data={"d3": ByzStrategy.STATE_SWITCH},
        adversary=(AdversaryAction(step=10, process="d3", action="corrupt-all"),),
    )
    res = run(cfg)
    assert [e["step"] for e in trace_entries(res) if e["ev"] == "adversary"] == [10]


STATE_SWITCH_D3 = {"d3": ByzStrategy.STATE_SWITCH}


@pytest.mark.parametrize("action, mode, says", [
    (AdversaryAction(step=5, process="d3", action="swap-values"), "oracle",
     "'swap-values' is not one of corrupt-all"),
    (AdversaryAction(step=5, process="d3", action="scramble"), "oracle",
     "'scramble' is not one of corrupt-all"),
    (AdversaryAction(step=5, process="m4", action="corrupt-all"), "replicated",
     "'corrupt-all' is not one of scramble"),
    (AdversaryAction(step=5, process="d1", action="corrupt-all"), "oracle",
     "non-Byzantine process 'd1'"),
    (AdversaryAction(step=5, process="d9", action="corrupt-all"), "oracle",
     "non-Byzantine process 'd9'"),
    (AdversaryAction(step=-3, process="d3", action="corrupt-all"), "oracle",
     "step must be non-negative, got -3"),
])
def test_an_adversary_action_that_cannot_fire_is_a_config_error(action, mode, says):
    byz_meta = {"m4": ByzStrategy.STATE_SWITCH} if mode == "replicated" else {}
    cfg = Config(mds_mode=mode, byz_data=STATE_SWITCH_D3, byz_meta=byz_meta,
                 adversary=(action,))
    with pytest.raises(ConfigError, match=says):
        cfg.validate()
    with pytest.raises(ConfigError, match=says):
        run(cfg)  # before step 0, not at the action's step


def test_planned_adversary_actions_on_byzantine_replicas_are_valid():
    Config(
        mds_mode="replicated", byz_data=STATE_SWITCH_D3,
        byz_meta={"m4": ByzStrategy.STATE_SWITCH},
        adversary=(AdversaryAction(step=0, process="d3", action="corrupt-all"),
                   AdversaryAction(step=9, process="m4", action="scramble")),
    ).validate()


# -- the fault plan under a script ---------------------------------------------


def steps_of(result, ev, **match):
    return [e["step"] for e in trace_entries(result)
            if e["ev"] == ev and all(e.get(k) == v for k, v in match.items())]


def test_a_config_step_crash_fires_at_its_step_under_a_script():
    cfg = Config(seed=0, writers=1, readers=1, ops=1,
                 crashes=(CrashSpec(process="d1", at_step=3),))

    def script(s, world):
        s.invoke("w1")
        s.drain()

    res = run(cfg, script)
    assert res.crashed == {"d1"}
    assert steps_of(res, "crash", proc="d1") == [3]
    assert not [e for e in trace_entries(res) if e["ev"] == "deliver" and e["step"] >= 3
                and e["msg"]["dst"] == "d1"]


def test_a_read_dir_phase_crash_fires_at_the_scripted_invoke():
    cfg = Config(seed=0, writers=2, readers=0, ops=1,
                 crashes=(CrashSpec(process="w2", at_phase="READ-DIR"),))

    def script(s, world):
        s.invoke("w1")
        s.drain()
        s.invoke("w2")
        s.drain()

    res = run(cfg, script)
    assert res.crashed == {"w2"}
    assert steps_of(res, "crash", proc="w2") == steps_of(res, "invoke", client="w2")


def test_config_adversary_actions_fire_once_at_their_step_under_a_script():
    cfg = Config(seed=0, writers=1, readers=1, ops=1, byz_data=STATE_SWITCH_D3,
                 adversary=(AdversaryAction(step=0, process="d3", action="corrupt-all"),
                            AdversaryAction(step=4, process="d3", action="corrupt-all")))

    def script(s, world):
        assert s.drain() == 0  # starts step 0 and fires its action; no event to deliver
        s.invoke("w1")  # starts step 0 again: its action is not fired twice
        s.drain()

    res = run(cfg, script)
    assert steps_of(res, "adversary", proc="d3") == [0, 4]


def test_latency_table_covers_completed_ops():
    res = run(Config(seed=7, ops=2))
    lat = res.latencies()
    for op in res.history:
        if op.complete:
            assert lat[op.op_id] == op.response - op.invoke


def test_final_states_are_rendered_into_the_trace():
    res = run(Config(seed=1, ops=1))
    finals = [e for e in trace_entries(res) if e["ev"] == "final"]
    assert {e["proc"] for e in finals} >= {"d1", "d2", "d3", "dir", "hash"}
    payload = json.dumps(finals, sort_keys=True)  # must be plain JSON types
    assert "Timestamp" not in payload


# -- deferred rendering ----------------------------------------------------------


def campaign_slice():
    """random_config 0-59 in both metadata modes: one period of the
    campaign's fault plans, so notes, crashes and Byzantine replicas occur."""
    return [random_config(seed, mds_mode=mode)
            for seed in range(60) for mode in ("oracle", "replicated")]


def test_an_untraced_run_renders_nothing(monkeypatch):
    rendered = []

    def counting(original):
        def count(value):
            rendered.append(type(value))
            return original(value)
        return count

    monkeypatch.setattr(net, "render_field", counting(net.render_field))
    monkeypatch.setattr(simnet, "render_field", counting(net.render_field))
    monkeypatch.setattr(encoding, "render_field", counting(net.render_field))
    # Every module-level binding of render_value, also one that is gone.
    for module in (types, net, history, simnet, encoding):
        monkeypatch.setattr(module, "render_value", counting(types.render_value), raising=False)
    results = [run(cfg) for cfg in campaign_slice()]
    assert rendered == []
    # The counters see the rendering that reading a result does: its final
    # states, and its trace's written and returned values.
    assert results[0].final_states and rendered
    rendered.clear()
    assert trace_entries(results[0]) and bytes in rendered


def test_final_states_are_those_rendered_as_the_run_ends():
    for cfg in campaign_slice():
        world = build_world(cfg)
        eager = {}
        for pid, proc in world.processes.items():
            def snapshot(original=proc.final_state, pid=pid):
                state = original()
                eager[pid] = render_field(state)
                return state

            proc.final_state = snapshot
        result = Simulation(world).run()
        assert result.final_states == eager
        finals = [e for e in trace_entries(result) if e["ev"] == "final"]
        assert {e["proc"]: e["state"] for e in finals} == eager


def test_each_send_entry_is_at_the_step_its_send_ran(monkeypatch):
    sends = []  # (message, step); holding the message keeps its id unique
    original = Simulation._send

    def recording(sim, msg):
        sends.append((msg, sim.step))
        original(sim, msg)

    monkeypatch.setattr(Simulation, "_send", recording)
    results = [run(cfg) for cfg in campaign_slice()]
    results += [r for name in SCENARIO_NAMES for _label, r, _v in run_scenario(name, 0).runs]
    sent_at = {id(msg): step for msg, step in sends}
    checked = 0
    for result in results:
        for entry in decode_events(result):
            if isinstance(entry, tuple) and entry[1] == "send":
                step, _ev, _reason, msg = entry
                assert step == sent_at[id(msg)], msg
                checked += 1
    assert checked > 10_000


# -- scheduler ready list -------------------------------------------------------


def reference_ready(sim):
    """Brute force: every pending seq in order, except that on a FIFO
    channel only the oldest pending message may be delivered."""
    seqs = sorted(sim.pending)
    if not sim.config.fifo:
        return seqs
    heads = {}
    for seq in seqs:
        msg = sim.pending[seq].msg
        if msg is not None:
            heads.setdefault((msg.src, msg.dst), seq)
    return [
        seq for seq in seqs
        if sim.pending[seq].msg is None
        or heads[(sim.pending[seq].msg.src, sim.pending[seq].msg.dst)] == seq
    ]


def checked_simulation(cfg):
    """A simulation that compares `ready` with the reference around every
    dispatch, whether the random loop or a script fires the event, and
    checks that no event it could fire targets or invokes a crashed
    process."""
    sim = Simulation(build_world(cfg))
    dispatch = sim.dispatch
    checks = []

    def dispatch_checked(delivery):
        assert not any(
            (d.msg.dst if d.msg is not None else d.pid) in sim.crashed
            for d in (delivery, *sim.pending.values())
        )
        assert sim.ready == reference_ready(sim)
        dispatch(delivery)
        assert sim.ready == reference_ready(sim)
        checks.append(sim.step)

    sim.dispatch = dispatch_checked
    return sim, checks


READY_LIST_RUNS = {
    "step-crash": dict(seed=8, crashes=(CrashSpec(process="d1", at_step=30),)),
    "phase-crash": dict(seed=5, crashes=(CrashSpec(process="w2", at_phase="WRITE-DIR"),)),
    "after-ops-crash": dict(seed=4, crashes=(CrashSpec(process="w1", after_ops=1),)),
    "byzantine": dict(
        seed=31, mds_mode="replicated",
        byz_data={"d3": ByzStrategy.EQUIVOCATE},
        byz_meta={"m4": ByzStrategy.STALE_CONCURRENT},
    ),
}


@pytest.mark.parametrize("fifo", [False, True], ids=["fifo-off", "fifo-on"])
@pytest.mark.parametrize("name", sorted(READY_LIST_RUNS))
def test_ready_list_matches_brute_force_at_every_step(name, fifo):
    sim, checks = checked_simulation(Config(ops=3, fifo=fifo, **READY_LIST_RUNS[name]))
    res = sim.run()
    assert res.quiescent
    assert len(checks) == res.steps
    assert sim.ready == reference_ready(sim) == []


@pytest.mark.parametrize("fifo", [False, True], ids=["fifo-off", "fifo-on"])
def test_ready_list_matches_brute_force_under_a_script(fifo):
    cfg = Config(seed=0, writers=1, readers=1, ops=2, fifo=fifo)
    sim, checks = checked_simulation(cfg)
    s = Script(sim)
    s.invoke("w1")
    s.drain(Match(dst="d3"))  # both writes finish on d1 and d2; w1->d3 backs up
    backlog = [seq for seq, d in sim.pending.items() if d.msg.dst == "d3"]
    assert len(backlog) == 4
    assert sim.ready == reference_ready(sim)
    assert len(sim.ready) == (1 if fifo else 4)
    s.crash("d3")  # drops the backed-up channel, oldest first
    assert not sim.pending and sim.ready == []
    s.invoke("r1")
    s.deliver(Match(dst="dir"))
    s.drain()
    assert checks
    assert not sim.pending and sim.ready == []


# -- the benchmark tracer's entry points ---------------------------------------


@pytest.fixture
def port_call_counts():
    """Count calls of `Port.send` and `Port.trace` through class-level
    wrappers, installed the way perfbench's span tracer installs them."""
    counts = {"send": 0, "trace": 0}
    originals = {name: Port.__dict__[name] for name in counts}

    def counting(name):
        original = originals[name]

        def wrapper(port, *args, **kwargs):
            counts[name] += 1
            return original(port, *args, **kwargs)

        return wrapper

    for name in counts:
        setattr(Port, name, counting(name))
    try:
        yield counts
    finally:
        for name, original in originals.items():
            setattr(Port, name, original)


@pytest.mark.parametrize("fifo", [False, True], ids=["fifo-off", "fifo-on"])
@pytest.mark.parametrize("mds_mode", ["oracle", "replicated"])
def test_every_message_and_note_passes_through_the_port(port_call_counts, mds_mode, fifo):
    # A mute data replica notes every message it swallows, so notes occur
    # in every run; nothing crashes, so every send is traced.
    mute = {"d3": ByzStrategy.MUTE}
    sends = notes = 0
    for seed in range(3):
        res = run(Config(seed=seed, ops=3, readers=3, mds_mode=mds_mode, fifo=fifo,
                         byz_data=mute))
        assert res.quiescent and not res.crashed
        events = [e["ev"] for e in trace_entries(res)]
        sends += events.count("send")
        notes += events.count("note")
    assert sends > 0 and notes > 0
    assert port_call_counts == {"send": sends, "trace": notes}


def test_delivered_messages_are_immutable():
    sim = Simulation(build_world(Config(seed=1, ops=2, mds_mode="replicated")))
    delivered = []
    for proc in sim.world.processes.values():
        def on_message(msg, handle=proc.on_message):
            delivered.append(msg)
            handle(msg)
        proc.on_message = on_message
    assert sim.run().quiescent
    assert {msg.kind for msg in delivered} >= {MsgKind.WRITE, MsgKind.META_UPDATE}
    for msg in delivered:
        with pytest.raises(AttributeError):  # a NamedTuple's fields are read-only
            msg.dst = "elsewhere"
        with pytest.raises(AttributeError):
            msg.fields = {}
        key = next(iter(msg.fields))
        with pytest.raises(TypeError):
            msg.fields[key] = None
        with pytest.raises(TypeError):
            del msg.fields[key]


def test_a_message_is_unhashable_and_indexes_its_fields(probe):
    proc = probe.attach(Process("p"))
    proc.port.send(MsgKind.DIR_READ, proc.pid, "dir", tag=7, index=None)
    msg, = probe.take_sent()
    # The fields mapping is unhashable, so a message is too: nothing may
    # key a set or dict by message value.
    with pytest.raises(TypeError):
        hash(msg)
    assert (msg.kind, msg.src, msg.dst) == (MsgKind.DIR_READ, "p", "dir")
    assert msg.fields["tag"] == 7
    assert msg.fields["index"] is None
    # Fields are read through `fields` only: the message is a plain tuple.
    with pytest.raises(TypeError):
        msg["tag"]


def test_a_sent_message_does_not_alias_the_senders_dict(probe):
    proc = probe.attach(Process("p"))
    fields = {"tag": 1}
    proc.port.send(MsgKind.DIR_READ, proc.pid, "dir", **fields)
    fields["tag"] = 2
    msg, = probe.take_sent()
    assert msg.fields["tag"] == 1


def test_every_message_carries_its_senders_pid(monkeypatch):
    """Channels are authenticated: each message's src is the process whose
    handler or invocation the simulator is dispatching when it is sent,
    and that process has not crashed, in random runs and in the scripted
    scenarios. So `_send` need not test the sender."""
    dispatching = []  # (simulation, pid) of each dispatch in progress
    dispatch, send = Simulation.dispatch, Port.send

    def dispatch_tracking(sim, delivery):
        msg = delivery.msg
        dispatching.append((sim, delivery.pid if msg is None else msg.dst))
        try:
            dispatch(sim, delivery)
        finally:
            dispatching.pop()

    sends = 0

    def send_checked(port, kind, src, dst, **fields):
        nonlocal sends
        assert dispatching, (kind, src, dst)
        sim, pid = dispatching[-1]
        assert src == pid and src not in sim.crashed, (kind, src, dst)
        sends += 1
        send(port, kind, src, dst, **fields)

    monkeypatch.setattr(Simulation, "dispatch", dispatch_tracking)
    monkeypatch.setattr(Port, "send", send_checked)
    crashed = 0
    for seed in range(60):
        crashed += len(run(random_config(seed)).crashed)
    for name in SCENARIO_NAMES:
        for _, result, _ in run_scenario(name, 0).runs:
            crashed += len(result.crashed)
    assert sends > 0 and crashed > 0


# -- the collector ---------------------------------------------------------------


def test_a_dropped_run_leaves_no_cyclic_garbage():
    """A finished run is freed by reference counting alone: with the
    collector off, dropping random, named-scenario and scripted runs leaves
    nothing for `gc.collect()` to find."""

    def script(s, world):
        s.invoke("w1")
        s.drain()

    run(random_config(0))  # warm-up: first-use allocations are not the run's
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for mode in ("oracle", "replicated"):
            for seed in range(60):
                run(random_config(seed, mds_mode=mode))
        for name in SCENARIO_NAMES:
            run_scenario(name)
        run(Config(seed=0, writers=1, readers=1, ops=1), script)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_run_pauses_the_collector_and_restores_the_callers_state(enabled, fails):
    """The loop runs with the collector off and `run()` starts no
    collection of generation 1 or 2: a finished run's objects reach the
    oldest generation unwalked, and nothing stays frozen. A generation-0
    pass may still start from `finish`'s allocations. Checked on the
    oracle, replicated and `random_config` shapes."""
    for config in (Config(seed=0), Config(seed=0, mds_mode="replicated"), random_config(15)):
        sim = Simulation(build_world(config))
        if fails:
            del sim.processes["d3"]  # the first write to d3 then raises
        collecting = []
        dispatch = sim.dispatch

        def dispatch_watching(delivery):
            collecting.append(gc.isenabled())
            dispatch(delivery)

        sim.dispatch = dispatch_watching
        started = []

        def watch(phase, info):
            if phase == "start":
                started.append(info["generation"])

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        gc.callbacks.append(watch)
        try:
            if fails:
                with pytest.raises(HarnessError, match="unknown process 'd3'"):
                    sim.run()
            else:
                result = sim.run()
                assert result.quiescent
            assert gc.isenabled() is enabled
        finally:
            gc.callbacks.remove(watch)
            (gc.enable if was else gc.disable)()
        assert collecting and not any(collecting)
        assert gc.get_freeze_count() == 0
        # A run that raises skips the freeze: once the collector is back
        # on, its thresholds may start a collection of any generation.
        if not fails:
            assert set(started) <= {0}, (config.mds_mode, started)
        if enabled and not fails:
            # The run's objects were moved to the oldest generation.
            msg = next(e[3] for e in decode_events(result) if isinstance(e, tuple))
            assert any(o is msg for o in gc.get_objects(generation=2))
