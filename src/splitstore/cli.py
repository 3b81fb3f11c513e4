"""Command-line entry point.

`splitstore run` executes one or more scenarios and writes, per run, a
JSON-lines trace, a history file, and a report. The exit code is 0 only
when every executed scenario met its expectation; scenarios built around
impossibility results count as met when the expected violation was
detected. Configuration problems exit with code 2.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .checker import check_run
from .faults import ByzStrategy
from .scenarios import (
    SCENARIO_NAMES,
    ScenarioOutcome,
    run_scenario,
    scenario_random,
)
from .simnet import Config, CrashSpec, json_line, run
from .types import ConfigError, HashMode

TRACE_SCHEMA = "trace/v1"
HISTORY_SCHEMA = "history/v1"
REPORT_SCHEMA = "report/v1"


def _parse_seeds(args: argparse.Namespace) -> list[int]:
    if not args.seeds:
        return [args.seed]
    text = args.seeds
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise ConfigError(f"--seeds expects integers as A..B or A,B,...; got {text!r}") from None
    if not seeds:
        raise ConfigError(f"--seeds names no seed: {text!r}")
    return seeds


def _parse_byz(specs: list[str]) -> tuple[dict, dict]:
    byz_data: dict[str, ByzStrategy] = {}
    byz_meta: dict[str, ByzStrategy] = {}
    for item in specs:
        if ":" not in item:
            raise ConfigError(f"--byz expects replica:strategy, got {item!r}")
        pid, name = item.split(":", 1)
        strategy = ByzStrategy.parse(name)
        if pid.startswith("m"):
            byz_meta[pid] = strategy
        else:
            byz_data[pid] = strategy
    return byz_data, byz_meta


def write_outputs(out_dir: Path, outcome: ScenarioOutcome) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    stem = f"{outcome.name}-{outcome.seed}"
    report: dict = {
        "schema": REPORT_SCHEMA,
        "summary": outcome.summary(),
        "runs": {},
    }
    for label, result, verdict in outcome.runs:
        run_stem = stem if len(outcome.runs) == 1 else f"{stem}-{label}"
        trace_path = out_dir / f"{run_stem}.trace.jsonl"
        with trace_path.open("w", encoding="utf-8") as fh:
            fh.write(json_line({
                "schema": TRACE_SCHEMA,
                "scenario": outcome.name,
                "seed": outcome.seed,
                "label": label,
                "config": result.config.render(),
            }) + "\n")
            fh.writelines(result.trace.lines())
        written.append(trace_path)
        history_path = out_dir / f"{run_stem}.history.json"
        history_payload = {
            "schema": HISTORY_SCHEMA,
            "scenario": outcome.name,
            "seed": outcome.seed,
            "label": label,
            "ops": [op.render() for op in result.history],
            "directory_ops": [op.render() for op in result.dir_ops],
        }
        history_path.write_text(
            json.dumps(history_payload, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        written.append(history_path)
        report["runs"][label] = {
            "config": result.config.render(),
            "steps": result.steps,
            "quiescent": result.quiescent,
            "crashed": sorted(result.crashed),
            "latencies": {
                str(op_id): latency for op_id, latency in sorted(result.latencies().items())
            },
            "verdict": verdict.render(),
            "verdict_ok": verdict.ok,
        }
    report_path = out_dir / f"{stem}.report.json"
    report_path.write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    written.append(report_path)
    return written


def _custom_random_outcome(args: argparse.Namespace, seed: object) -> ScenarioOutcome:
    byz_data, byz_meta = _parse_byz(args.byz or [])
    given = {
        flag: getattr(args, flag) for flag in _CONFIG_FLAGS if getattr(args, flag) is not None
    }
    config = Config(
        seed=seed, fifo=args.fifo, byz_data=byz_data, byz_meta=byz_meta,
        crashes=tuple(
            CrashSpec(process=pid, at_step=0) for pid in (args.crash or [])
        ),
        lower_bound=args.lower_bound, **given,
    )
    result = run(config)
    verdict = check_run(result)
    outcome = ScenarioOutcome(
        name="random", seed=seed, passed=verdict.ok,
        expectation="configured run keeps the history clean",
        runs=[("random", result, verdict)],
    )
    return outcome


_CONFIG_FLAGS = (
    "t", "tm", "writers", "readers", "ops", "hash_mode", "mds_mode", "budget",
)


def _wants_custom_config(args: argparse.Namespace) -> bool:
    tweaked = any(getattr(args, flag) is not None for flag in _CONFIG_FLAGS)
    return tweaked or bool(args.byz) or bool(args.crash) \
        or args.fifo or args.lower_bound


def _byz_strategies(path: Path, value: dict) -> dict:
    return {pid: ByzStrategy.parse(name) for pid, name in value.items()}


def _crash_specs(path: Path, value: list) -> tuple:
    return tuple(CrashSpec(**_checked(path, "crashes: ", _CRASH_TYPES, c)) for c in value)


def _workload_op(op: dict) -> tuple[str, bytes | None]:
    kind = op["op"].upper()
    if kind == "WRITE":
        return "WRITE", op["value"].encode("latin-1")
    if kind == "READ":
        return "READ", None
    raise ValueError(f"op {op['op']!r} is neither read nor write")


def _workload(path: Path, value: dict) -> dict:
    return {pid: [_workload_op(op) for op in ops] for pid, ops in value.items()}


# Scenario-file keys are Config field names. These four are converted
# from JSON, adversary has no JSON form, and every other field's value is
# taken as given once it has its field's type.
_CONVERTERS = {
    "byz_data": _byz_strategies, "byz_meta": _byz_strategies,
    "crashes": _crash_specs, "workload": _workload,
}
_SCALAR_TYPES = {
    f.name: f.type for f in fields(Config) if f.name not in {*_CONVERTERS, "adversary"}
}
_CRASH_TYPES = {f.name: f.type for f in fields(CrashSpec)}
# The JSON values each field annotation accepts. JSON true and false are
# Python bools, which are ints, so only a bool field takes them.
_JSON_TYPES = {
    "int": (int, "an integer"),
    "int | None": ((int, type(None)), "null or an integer"),
    "str": (str, "a string"),
    "str | None": ((str, type(None)), "null or a string"),
    "bool": (bool, "true or false"),
}


def _wanted(annotation: str, value: object) -> str | None:
    """What a value of a field annotated `annotation` must be, or None
    when `value` is one."""
    if annotation == "Any":
        return None
    if annotation == "HashMode":
        modes = [m.value for m in HashMode]
        return None if value in modes else f"one of {', '.join(modes)}"
    expected, wanted = _JSON_TYPES[annotation]
    if isinstance(value, expected) and (annotation == "bool" or not isinstance(value, bool)):
        return None
    return wanted


def _checked(path: Path, where: str, annotations: dict, values: dict) -> dict:
    """`values` unchanged once each has the type its field's annotation
    names; an unknown key raises KeyError, an ill-typed value ConfigError."""
    for key, value in values.items():
        wanted = _wanted(annotations[key], value)
        if wanted is not None:
            raise ConfigError(
                f"{path.name}: {where}{key} must be {wanted}, got {json.dumps(value)}"
            )
    return values


def load_scenario_file(path: Path) -> Config:
    """Declarative run description; the JSON mirrors Config field names,
    and Config supplies every default. An unknown key, a scalar of the
    wrong type or a malformed structured value is a ConfigError."""
    raw = json.loads(path.read_text(encoding="utf-8"))
    unknown = sorted(set(raw) - set(_SCALAR_TYPES) - set(_CONVERTERS))
    if unknown:
        raise ConfigError(f"{path.name}: unknown key(s) {', '.join(unknown)}")
    kwargs = _checked(
        path, "", _SCALAR_TYPES, {k: v for k, v in raw.items() if k in _SCALAR_TYPES}
    )
    for key, convert in _CONVERTERS.items():
        if key not in raw:
            continue
        try:
            kwargs[key] = convert(path, raw[key])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"{path.name}: malformed {key} ({type(exc).__name__}: {exc})"
            ) from None
    return Config(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitstore",
        description="Deterministic simulator for a metadata-separated replicated register",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a scenario and write trace/history/report")
    runp.add_argument("--scenario", choices=SCENARIO_NAMES, default="random")
    runp.add_argument("--random", action="store_true", dest="random_alias",
                      help="shorthand for --scenario random")
    runp.add_argument("--scenario-file", type=Path, default=None,
                      help="JSON run description; overrides --scenario")
    runp.add_argument("--seed", default=0, type=int)
    runp.add_argument("--seeds", default=None,
                      help="inclusive range 'LO..HI' or comma-separated list")
    runp.add_argument("--t", type=int, default=None,
                      help=f"data fault threshold (default {Config.t})")
    runp.add_argument("--tm", type=int, default=None,
                      help=f"metadata fault threshold (default {Config.tm})")
    runp.add_argument("--writers", type=int, default=None)
    runp.add_argument("--readers", type=int, default=None)
    runp.add_argument("--ops", type=int, default=None,
                      help=f"operations per client (default {Config.ops})")
    runp.add_argument("--hash-mode", choices=[m.value for m in HashMode],
                      default=None, help=f"default {Config.hash_mode.value}")
    runp.add_argument("--mds-mode", choices=["oracle", "replicated"], default=None,
                      help=f"default {Config.mds_mode}")
    runp.add_argument("--budget", type=int, default=None,
                      help=f"wait-freedom step budget (default {Config.budget})")
    runp.add_argument("--fifo", action="store_true",
                      help="per-channel in-order delivery")
    runp.add_argument("--lower-bound", action="store_true",
                      help="allow deliberately under-provisioned replica counts")
    runp.add_argument("--byz", action="append", default=[],
                      metavar="REPLICA:STRATEGY",
                      help="assign a Byzantine strategy (repeatable), e.g. d3:mute")
    runp.add_argument("--crash", action="append", default=[], metavar="PROCESS",
                      help="crash a process at step 0 (repeatable)")
    runp.add_argument("--out-dir", type=Path, default=None,
                      help="output directory (default ./runs, or SPLITSTORE_OUT_DIR)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.random_alias:
        args.scenario = "random"
    out_dir = args.out_dir
    if out_dir is None:
        out_dir = Path(os.environ.get("SPLITSTORE_OUT_DIR", "runs"))
    outcomes: list[ScenarioOutcome] = []
    try:
        for seed in _parse_seeds(args):
            if args.scenario_file is not None:
                config = load_scenario_file(args.scenario_file)
                config.seed = seed
                result = run(config)
                verdict = check_run(result)
                outcome = ScenarioOutcome(
                    name=args.scenario_file.stem, seed=seed, passed=verdict.ok,
                    expectation="scenario file run keeps the history clean",
                    runs=[("file", result, verdict)],
                )
            elif args.scenario == "random":
                if _wants_custom_config(args):
                    outcome = _custom_random_outcome(args, seed)
                else:
                    outcome = scenario_random(seed)
            else:
                outcome = run_scenario(args.scenario, seed)
            outcomes.append(outcome)
            write_outputs(out_dir, outcome)
            status = "PASS" if outcome.passed else "FAIL"
            print(f"{status} {outcome.name} seed={seed}: {outcome.expectation}")
            for note in outcome.notes:
                print(f"  {note}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    failed = [o for o in outcomes if not o.passed]
    total = len(outcomes)
    print(f"{total - len(failed)}/{total} scenario run(s) met expectations")
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
