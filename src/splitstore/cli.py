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
from dataclasses import fields, replace
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path

from .encoding import OBJECT_FORMATS, encoded, json_line
from .faults import ByzStrategy
from .history import DirOpRecord, OpRecord, field_names
from .scenarios import SCENARIO_NAMES, ScenarioOutcome, run_scenario, single_run
from .simnet import Config, CrashSpec, RunResult
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


def json_indent(doc: object) -> str:
    """The report file's text: `doc` in `encoded`'s indented layout."""
    return encoded((doc,), "\n")[0]


# Trace lines joined for each write to the trace file: about 35 KB, so a
# run's trace takes a few dozen writes and a chunk's memory stays bounded.
TRACE_CHUNK_LINES = 512

_RECORD_NL = "\n    "  # a record is an item of a list under a top-level key


def _records_text(records: list, cls: type) -> str:
    """The text of `[rec.render() for rec in records]` as the value of a
    top-level key, written from each record's fields. `cls` is the
    records' dataclass, whose `field_names` are `render()`'s keys in the
    same order."""
    if not records:
        return "[]"
    names = field_names(cls)
    parts, pick = OBJECT_FORMATS[(_RECORD_NL, *names)]
    # Every record's values in one call, then each record's slice of them.
    values = encoded(chain.from_iterable(map(attrgetter(*names), records)), _RECORD_NL + "  ")
    n = len(names)
    texts = ["".join(pick(values[i:i + n] + parts)) for i in range(0, len(values), n)]
    return "[" + _RECORD_NL + ("," + _RECORD_NL).join(texts) + "\n  ]"


def history_text(name: str, seed: int, label: str, result: RunResult) -> str:
    """The history file's text: the document whose "ops" and
    "directory_ops" are the records' `render()`s in `encoded`'s indented
    layout, byte for byte, without rendering a record."""
    head = {"schema": HISTORY_SCHEMA, "scenario": name, "seed": seed, "label": label}
    parts, pick = OBJECT_FORMATS[("\n", *head, "ops", "directory_ops")]
    return "".join(pick([
        *encoded(head.values(), "\n  "),
        _records_text(result.history, OpRecord),
        _records_text(result.dir_ops, DirOpRecord),
        *parts,
    ])) + "\n"


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
            lines = result.trace_lines()
            while chunk := "".join(islice(lines, TRACE_CHUNK_LINES)):
                fh.write(chunk)
        written.append(trace_path)
        history_path = out_dir / f"{run_stem}.history.json"
        history_path.write_text(
            history_text(outcome.name, outcome.seed, label, result), encoding="utf-8"
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
    report_path.write_text(json_indent(report) + "\n", encoding="utf-8")
    written.append(report_path)
    return written


# The flags that are shorthand for the scenario-file key of the same name.
_KEY_FLAGS = ("t", "tm", "writers", "readers", "ops", "hash_mode", "mds_mode", "budget")


def flag_description(args: argparse.Namespace) -> dict:
    """The scenario-file mapping that the sizing and fault flags stand for:
    `--byz m*:S` sets `byz_meta`, any other `--byz` sets `byz_data`, each
    `--crash P` is a crash at step 0, and `--fifo` and `--lower-bound` set
    their keys to true. No such flag gives the empty mapping."""
    raw = {key: getattr(args, key) for key in _KEY_FLAGS if getattr(args, key) is not None}
    for item in args.byz:
        pid, sep, name = item.partition(":")
        if not sep:
            raise ConfigError(f"--byz expects replica:strategy, got {item!r}")
        raw.setdefault("byz_meta" if pid.startswith("m") else "byz_data", {})[pid] = name
    if args.crash:
        raw["crashes"] = [{"process": pid, "at_step": 0} for pid in args.crash]
    if args.fifo:
        raw["fifo"] = True
    if args.lower_bound:
        raw["lower_bound"] = True
    return raw


def _flag_names(raw: dict) -> list[str]:
    """The flags that set the keys of `raw`, as `flag_description` reads them."""
    names = {"byz_data": "--byz", "byz_meta": "--byz", "crashes": "--crash"}
    return list(dict.fromkeys(names.get(key, "--" + key.replace("_", "-")) for key in raw))


def _byz_strategies(where: str, value: dict) -> dict:
    return {pid: ByzStrategy.parse(name) for pid, name in value.items()}


def _crash_specs(where: str, value: list) -> tuple:
    return tuple(CrashSpec(**_checked(where, "crashes: ", _CRASH_TYPES, c)) for c in value)


def _workload_op(op: dict) -> tuple[str, bytes | None]:
    kind = op["op"].upper()
    if kind == "WRITE":
        return "WRITE", op["value"].encode("latin-1")
    if kind == "READ":
        return "READ", None
    raise ValueError(f"op {op['op']!r} is neither read nor write")


def _workload(where: str, value: dict) -> dict:
    return {pid: [_workload_op(op) for op in ops] for pid, ops in value.items()}


# Scenario-file keys are Config field names. These four are converted
# from JSON, adversary has no JSON form, `config_from` rejects seed (each
# run's seed comes from --seed or --seeds), and every other field's value
# is taken as given once it has its field's type.
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
    if annotation == "HashMode":
        modes = [m.value for m in HashMode]
        return None if value in modes else f"one of {', '.join(modes)}"
    expected, wanted = _JSON_TYPES[annotation]
    if isinstance(value, expected) and (annotation == "bool" or not isinstance(value, bool)):
        return None
    return wanted


def _checked(where: str, prefix: str, annotations: dict, values: dict) -> dict:
    """`values` unchanged once each has the type its field's annotation
    names; an unknown key raises KeyError, an ill-typed value ConfigError."""
    for key, value in values.items():
        wanted = _wanted(annotations[key], value)
        if wanted is not None:
            raise ConfigError(
                f"{where}: {prefix}{key} must be {wanted}, got {json.dumps(value)}"
            )
    return values


def config_from(where: str, raw: dict) -> Config:
    """The Config a run description gives: a scenario file's JSON, or the
    mapping `flag_description` builds. Its keys are Config field names,
    and Config supplies every default. An unknown key, `seed` (each run
    takes its seed from --seed or --seeds), a scalar of the wrong type, a
    malformed structured value, or `ops` next to `workload` (ops sizes only
    a generated workload) is a ConfigError naming `where`.
    Whether the Config can run is `Config.validate`'s to judge."""
    if not isinstance(raw, dict):
        raise ConfigError(
            f"{where}: a run description is a JSON object, got {type(raw).__name__}"
        )
    if "seed" in raw:
        raise ConfigError(f"{where}: seed is set by --seed or --seeds, not in a run description")
    unknown = sorted(set(raw) - set(_SCALAR_TYPES) - set(_CONVERTERS))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")
    if "ops" in raw and "workload" in raw:
        raise ConfigError(f"{where}: ops sizes only a generated workload; drop it or workload")
    kwargs = _checked(
        where, "", _SCALAR_TYPES, {k: v for k, v in raw.items() if k in _SCALAR_TYPES}
    )
    for key, convert in _CONVERTERS.items():
        if key not in raw:
            continue
        try:
            kwargs[key] = convert(where, raw[key])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"{where}: malformed {key} ({type(exc).__name__}: {exc})"
            ) from None
    return Config(**kwargs)


def _read_json(path: Path) -> object:
    """The JSON value in the file at `path`; a file that cannot be read or
    decoded is a ConfigError naming it."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{path.name}: cannot read it ({exc.strerror})") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"{path.name}: not valid JSON ({exc})") from None


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
                      help="JSON run description; overrides --scenario and takes "
                           "no sizing or fault flag")
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
        seeds = _parse_seeds(args)
        flags = flag_description(args)
        path = args.scenario_file
        if flags and (path is not None or args.scenario != "random"):
            # A file or a named scenario is the whole run description, so
            # a flag beside it would be dropped.
            given = (
                f"--scenario-file {path.name}" if path is not None
                else f"--scenario {args.scenario}"
            )
            raise ConfigError(
                f"{given} takes no sizing or fault flags, got {', '.join(_flag_names(flags))}"
            )
        config = None
        if path is not None:
            config = config_from(path.name, _read_json(path))
            name, label, expectation = (
                path.stem, "file", "scenario file run keeps the history clean"
            )
        elif flags:
            config = config_from("flags", flags)
            name, label, expectation = (
                "random", "random", "configured run keeps the history clean"
            )
        for seed in seeds:
            if config is None:
                outcome = run_scenario(args.scenario, seed)
            else:
                outcome = single_run(
                    name, seed, expectation, replace(config, seed=seed), label=label
                )
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
