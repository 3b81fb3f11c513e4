import json
from pathlib import Path

import pytest

from splitstore.cli import main


def test_fig1_run_writes_the_three_artifacts(tmp_path):
    code = main(["run", "--scenario", "fig1", "--seed", "4",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    trace = tmp_path / "fig1-4.trace.jsonl"
    history = tmp_path / "fig1-4.history.json"
    report = tmp_path / "fig1-4.report.json"
    assert trace.exists() and history.exists() and report.exists()
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "trace/v1"
    assert header["seed"] == 4
    for line in lines[1:]:
        json.loads(line)  # every line is self-contained JSON
    hist = json.loads(history.read_text())
    assert any(op["kind"] == "READ" and op["ret"] == "v1" for op in hist["ops"])
    rep = json.loads(report.read_text())
    assert rep["summary"]["passed"] is True
    assert rep["runs"]["fig1"]["verdict_ok"] is True
    assert rep["runs"]["fig1"]["latencies"]


def test_seed_range_runs_every_seed(tmp_path, capsys):
    code = main(["run", "--scenario", "random", "--seeds", "0..3",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "4/4 scenario run(s) met expectations" in out
    for seed in range(4):
        assert (tmp_path / f"random-{seed}.report.json").exists()


def test_seed_list_is_accepted(tmp_path):
    code = main(["run", "--scenario", "gc-quiescence", "--seeds", "2,5",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "gc-quiescence-5.report.json").exists()


@pytest.mark.parametrize("seeds, error", [
    ("1..x", "--seeds expects integers"),
    ("1,x", "--seeds expects integers"),
    ("3..1", "--seeds names no seed"),
])
def test_a_malformed_seed_list_is_a_configuration_error(tmp_path, capsys, seeds, error):
    code = main(["run", "--scenario", "fig1", "--seeds", seeds,
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert error in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_expected_violation_scenarios_exit_zero(tmp_path):
    for scenario in ("theorem1-crash", "theorem1-byz"):
        assert main(["run", "--scenario", scenario,
                     "--out-dir", str(tmp_path)]) == 0


def test_multi_run_scenario_writes_labelled_traces(tmp_path):
    main(["run", "--scenario", "theorem1-byz", "--out-dir", str(tmp_path)])
    assert (tmp_path / "theorem1-byz-0-baseline.trace.jsonl").exists()
    assert (tmp_path / "theorem1-byz-0-forged.trace.jsonl").exists()
    rep = json.loads((tmp_path / "theorem1-byz-0.report.json").read_text())
    assert rep["runs"]["forged"]["verdict"]["linearizable"]["passed"] is False


def test_random_flag_is_an_alias_with_explicit_sizing(tmp_path, capsys):
    code = main(["run", "--random", "--t", "1", "--tm", "1",
                 "--writers", "2", "--readers", "2", "--ops", "5",
                 "--seeds", "0..9", "--out-dir", str(tmp_path)])
    assert code == 0
    assert "10/10" in capsys.readouterr().out
    reports = list(tmp_path.glob("random-*.report.json"))
    assert len(reports) == 10


def test_a_replicated_run_with_no_writers_passes(tmp_path, capsys):
    code = main(["run", "--random", "--writers", "0", "--mds-mode", "replicated",
                 "--seeds", "0..2", "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS random seed=") == 3 and "3/3" in out
    for seed in range(3):
        rep = json.loads((tmp_path / f"random-{seed}.report.json").read_text())
        assert rep["runs"]["random"]["config"]["writers"] == 0


def test_custom_flags_build_a_bespoke_run(tmp_path):
    code = main(["run", "--scenario", "random", "--seed", "9",
                 "--writers", "1", "--readers", "1", "--ops", "2",
                 "--mds-mode", "replicated", "--byz", "d3:mute",
                 "--byz", "m2:stale-concurrent", "--crash", "r1",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "random-9.report.json").read_text())
    cfg = rep["runs"]["random"]["config"]
    assert cfg["writers"] == 1
    assert cfg["mds_mode"] == "replicated"
    assert cfg["byz_data"] == {"d3": "mute"}
    assert cfg["byz_meta"] == {"m2": "stale-concurrent"}
    assert cfg["crashes"] == [{"process": "r1", "at_step": 0, "after_ops": None, "at_phase": None}]


def test_traces_are_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--scenario", "random", "--seed", "6", "--out-dir", str(a)])
    main(["run", "--scenario", "random", "--seed", "6", "--out-dir", str(b)])
    assert (a / "random-6.trace.jsonl").read_bytes() == (b / "random-6.trace.jsonl").read_bytes()


def test_bad_byz_argument_exits_with_config_error(tmp_path):
    code = main(["run", "--scenario", "random", "--seed", "0",
                 "--byz", "d3:not-a-strategy", "--out-dir", str(tmp_path)])
    assert code == 2


def test_invalid_threshold_exits_with_config_error(tmp_path):
    code = main(["run", "--scenario", "random", "--seed", "0", "--t", "-2",
                 "--out-dir", str(tmp_path)])
    assert code == 2


def test_scenario_file_round_trip(tmp_path):
    spec = {
        "writers": 1, "readers": 1,
        "mds_mode": "oracle",
        "byz_data": {"d2": "equivocate"},
        "workload": {
            "w1": [{"op": "write", "value": "hello"}],
            "r1": [{"op": "read"}],
        },
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(spec))
    code = main(["run", "--scenario-file", str(path), "--seed", "1",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    hist = json.loads((tmp_path / "custom-1.history.json").read_text())
    writes = [op for op in hist["ops"] if op["kind"] == "WRITE"]
    assert writes[0]["arg"] == "hello"


def test_scenario_file_with_a_crash_plan(tmp_path):
    spec = {
        "writers": 2, "readers": 1, "ops": 2,
        "crashes": [{"process": "w2", "at_phase": "WRITE-DATA"}],
    }
    path = tmp_path / "crashy.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--scenario-file", str(path),
                 "--out-dir", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "crashy-0.report.json").read_text())
    assert rep["runs"]["file"]["crashed"] == ["w2"]


EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / "scenario.json"


def test_the_example_scenario_file_crashes_its_writer_at_its_phase(tmp_path):
    assert main(["run", "--scenario-file", str(EXAMPLE), "--seeds", "0..2",
                 "--out-dir", str(tmp_path)]) == 0
    for seed in range(3):
        rep = json.loads((tmp_path / f"scenario-{seed}.report.json").read_text())
        assert rep["runs"]["file"]["crashed"] == ["w2"]
        # Its workload sizes the run; the echo shows Config's default ops.
        assert rep["summary"]["runs"][0]["ops"] == 3
        assert rep["runs"]["file"]["config"]["ops"] == 3


def test_scenario_file_sets_any_scalar_config_field(tmp_path):
    spec = {"writers": 1, "readers": 1, "ops": 2, "fairness": 8, "max_steps": 5000}
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--scenario-file", str(path), "--out-dir", str(tmp_path)]) == 0
    cfg = json.loads((tmp_path / "tight-0.report.json").read_text())["runs"]["file"]["config"]
    assert (cfg["fairness"], cfg["max_steps"], cfg["writers"]) == (8, 5000, 1)


@pytest.mark.parametrize("spec", [{"max_steps": 0}, {"max_steps": -1}, {"fairness": 0},
                                  {"budget": 0}, {"budget": -5}])
def test_scenario_file_with_a_schedule_limit_below_one_exits_with_config_error(
        tmp_path, capsys, spec):
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--scenario-file", str(path), "--seeds", "0..2",
                 "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    (name, value), = spec.items()
    assert captured.err == f"configuration error: {name} must be at least 1, got {value}\n"
    assert "PASS" not in captured.out
    assert not (tmp_path / "out").exists()


def test_scenario_file_with_a_misspelt_key_exits_with_config_error(tmp_path, capsys):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"fairness": 8, "wirters": 3}))
    assert main(["run", "--scenario-file", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "wirters" in capsys.readouterr().err


def test_scenario_file_with_an_unknown_hash_mode_exits_with_config_error(tmp_path, capsys):
    path = tmp_path / "badmode.json"
    path.write_text(json.dumps({"hash_mode": "nope"}))
    assert main(["run", "--scenario-file", str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: badmode.json: hash_mode must be one of")
    assert '"nope"' in err and "Traceback" not in err


def test_the_oracle_hash_mode_exits_with_config_error(tmp_path, capsys):
    """Digests come from a real hash, forgeable or not; "oracle" names no
    mode, as a flag or in a scenario file."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "--hash-mode", "oracle", "--out-dir", str(tmp_path / "flag")])
    assert exc.value.code == 2
    assert "invalid choice: 'oracle'" in capsys.readouterr().err
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps({"hash_mode": "oracle"}))
    assert main(["run", "--scenario-file", str(path), "--out-dir", str(tmp_path / "file")]) == 2
    assert capsys.readouterr().err == (
        'configuration error: oracle.json: hash_mode must be one of production, forgeable,'
        ' got "oracle"\n')
    assert sorted(p.name for p in tmp_path.iterdir()) == ["oracle.json"]


def test_scenario_file_with_an_ill_typed_scalar_exits_with_config_error(tmp_path, capsys):
    for spec, field in (({"fairness": "8"}, "fairness"), ({"ops": True}, "ops"),
                        ({"d": 3.0}, "d"), ({"fifo": 1}, "fifo")):
        path = tmp_path / "badtype.json"
        path.write_text(json.dumps(spec))
        assert main(["run", "--scenario-file", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: badtype.json: {field} must be "), err
    assert not list(tmp_path.glob("badtype-*"))


def test_scenario_file_with_a_malformed_structured_value_exits_with_config_error(
        tmp_path, capsys):
    for spec, says in (
        ({"byz_data": 3}, "shape.json: malformed byz_data (AttributeError"),
        ({"crashes": [{"at_step": 1}]}, "shape.json: malformed crashes (TypeError"),
        ({"crashes": [{"process": "w1", "at_stp": 1}]}, "shape.json: malformed crashes (KeyError"),
        ({"crashes": [{"process": "w1", "at_step": "5"}]},
         'shape.json: crashes: at_step must be null or an integer, got "5"'),
        ({"workload": {"w1": [{"op": "write"}]}}, "shape.json: malformed workload (KeyError"),
        ({"workload": {"w1": [{"op": "wrte", "value": "x"}]}},
         "shape.json: malformed workload (ValueError: op 'wrte' is neither read nor write)"),
        ({"workload": {"r1": [{"op": "write", "value": "x"}]}},
         "workload gives 'r1' an operation other than READ"),
    ):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(spec))
        assert main(["run", "--scenario-file", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and says in err, err


@pytest.mark.parametrize("crash, says", [
    ({"process": "r1", "at_phase": "WRITE-DATA"}, "at_phase crash target 'r1' is not a writer"),
    ({"process": "w1", "at_phase": "WRITE-DATTA"}, "at_phase 'WRITE-DATTA' is not one of"),
    ({"process": "d1", "after_ops": 1}, "after_ops crash target 'd1' is not a client"),
    ({"process": "r1", "after_ops": 0}, "after_ops must be at least 1, got 0"),
], ids=["reader", "typo", "replica-count", "zero-count"])
def test_scenario_file_with_a_crash_that_cannot_fire_exits_with_config_error(
        tmp_path, capsys, crash, says):
    path = tmp_path / "crash.json"
    path.write_text(json.dumps({"crashes": [crash]}))
    assert main(["run", "--scenario-file", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ") and says in captured.err
    assert "Traceback" not in captured.err and "PASS" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, says", [
    (["--scenario-file", str(EXAMPLE), "--t", "2", "--writers", "5", "--byz", "d1:mute"],
     "--scenario-file scenario.json takes no sizing or fault flags, got --t, --writers, --byz"),
    (["--scenario-file", str(EXAMPLE), "--fifo"],
     "--scenario-file scenario.json takes no sizing or fault flags, got --fifo"),
    (["--scenario", "fig1", "--ops", "5", "--crash", "w1", "--lower-bound"],
     "--scenario fig1 takes no sizing or fault flags, got --ops, --crash, --lower-bound"),
    (["--scenario", "theorem1-byz", "--byz", "m4:mute", "--mds-mode", "replicated"],
     "--scenario theorem1-byz takes no sizing or fault flags, got --mds-mode, --byz"),
], ids=["file-sizing", "file-fifo", "named-scenario", "named-byz-meta"])
def test_a_flag_beside_a_file_or_a_named_scenario_exits_with_config_error(
        tmp_path, capsys, argv, says):
    assert main(["run", *argv, "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: {says}\n"
    assert "PASS" not in captured.out
    assert not (tmp_path / "out").exists()


def test_ops_next_to_a_workload_exits_with_config_error(tmp_path, capsys):
    spec = json.loads(EXAMPLE.read_text())
    spec["ops"] = 2
    path = tmp_path / "both.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--scenario-file", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "configuration error: both.json: ops sizes only a generated workload; "
        "drop it or workload\n"
    )
    assert not (tmp_path / "out").exists()


def test_a_seed_in_a_scenario_file_exits_with_config_error(tmp_path, capsys):
    """A file's seed would be replaced by --seed's default or by each
    --seeds value, so it is rejected rather than dropped."""
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps({"seed": 5, "ops": 2}))
    assert main(["run", "--scenario-file", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "configuration error: seeded.json: seed is set by --seed or --seeds, "
        "not in a run description\n"
    )
    assert "PASS" not in captured.out
    assert not (tmp_path / "out").exists()


def test_a_byz_flag_without_a_strategy_exits_with_config_error(tmp_path, capsys):
    assert main(["run", "--random", "--byz", "d3", "--out-dir", str(tmp_path)]) == 2
    assert "--byz expects replica:strategy, got 'd3'" in capsys.readouterr().err


@pytest.mark.parametrize("content, says", [
    (None, "run.json: cannot read it (No such file or directory)"),
    ('{"t": 1,', "run.json: not valid JSON (Expecting property name enclosed"),
    ("[1]", "run.json: a run description is a JSON object, got list"),
], ids=["missing", "malformed", "not-an-object"])
def test_an_unusable_scenario_file_exits_with_config_error(tmp_path, capsys, content, says):
    path = tmp_path / "run.json"
    if content is not None:
        path.write_text(content)
    assert main(["run", "--scenario-file", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: {says}")
    assert "Traceback" not in captured.err and "PASS" not in captured.out
    assert not (tmp_path / "out").exists()
