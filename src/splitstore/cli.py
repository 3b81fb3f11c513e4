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
from .faults import ByzSpec, ByzStrategy
from .scenarios import (
    SCENARIO_NAMES,
    ScenarioOutcome,
    run_scenario,
    scenario_random,
)
from .simnet import Config, CrashSpec, run
from .types import ConfigError, HashMode

TRACE_SCHEMA = "trace/v1"
HISTORY_SCHEMA = "history/v1"
REPORT_SCHEMA = "report/v1"


def _parse_seeds(args: argparse.Namespace) -> list:
    if args.seeds:
        text = args.seeds
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(part) if part.lstrip("-").isdigit() else part
                for part in text.split(",") if part]
    return [args.seed]


def _parse_byz(specs: list[str]) -> tuple[dict, dict]:
    byz_data: dict[str, ByzSpec] = {}
    byz_meta: dict[str, ByzSpec] = {}
    for item in specs:
        if ":" not in item:
            raise ConfigError(f"--byz expects replica:strategy, got {item!r}")
        pid, strategy = item.split(":", 1)
        spec = ByzSpec(ByzStrategy.parse(strategy))
        if pid.startswith("m"):
            byz_meta[pid] = spec
        else:
            byz_data[pid] = spec
    return byz_data, byz_meta


# One encoder for every trace line: json.dumps builds a new one per call
# whenever it is given options.
_JSON_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _json_line(payload: dict) -> str:
    return _JSON_LINE_ENCODER.encode(payload)


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
            fh.write(_json_line({
                "schema": TRACE_SCHEMA,
                "scenario": outcome.name,
                "seed": outcome.seed,
                "label": label,
                "config": result.config.render(),
            }) + "\n")
            for entry in result.trace:
                fh.write(_json_line(entry) + "\n")
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


# Scenario-file keys are Config field names. These four are converted
# from JSON, alphabet and adversary have no JSON form, and every other
# field's value is taken as given.
_CONVERTED_KEYS = frozenset({"byz_data", "byz_meta", "crashes", "workload"})
_SCALAR_KEYS = {f.name for f in fields(Config)} - _CONVERTED_KEYS - {"alphabet", "adversary"}


def load_scenario_file(path: Path) -> Config:
    """Declarative run description; the JSON mirrors Config field names,
    and Config supplies every default. An unknown key is a ConfigError."""
    raw = json.loads(path.read_text(encoding="utf-8"))
    unknown = sorted(set(raw) - _SCALAR_KEYS - _CONVERTED_KEYS)
    if unknown:
        raise ConfigError(f"{path.name}: unknown key(s) {', '.join(unknown)}")
    kwargs = {key: value for key, value in raw.items() if key in _SCALAR_KEYS}
    for key in ("byz_data", "byz_meta"):
        if key in raw:
            kwargs[key] = {
                pid: ByzSpec(ByzStrategy.parse(name)) for pid, name in raw[key].items()
            }
    if "crashes" in raw:
        kwargs["crashes"] = tuple(
            CrashSpec(
                process=c["process"], at_step=c.get("at_step"),
                after_ops=c.get("after_ops"), at_phase=c.get("at_phase"),
            )
            for c in raw["crashes"]
        )
    if "workload" in raw:
        kwargs["workload"] = {
            pid: [
                ("WRITE", op["value"].encode("latin-1"))
                if op["op"].upper() == "WRITE" else ("READ", None)
                for op in ops
            ]
            for pid, ops in raw["workload"].items()
        }
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
    seeds = _parse_seeds(args)
    outcomes: list[ScenarioOutcome] = []
    try:
        for seed in seeds:
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
