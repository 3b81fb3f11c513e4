"""Print, per module under src/splitstore, the statement lines that no run
of the product's own traffic executes.

The traffic is what the program does for its users: `random_config`
seeds 0-59 simulated and checked, every named scenario at seed 0, one run
of each benchmark shape (perfbench/workloads.py) checked and written by
`cli.write_outputs`, and the CLI's flag-built and scenario-file runs
through `cli.main`. Lines are recorded with `sys.settrace` (the standard
library only), which starts before splitstore is imported, so module-
and class-level statements count when their import runs them. The CLI's
own output is swallowed.

A statement line is the first line of a statement; docstrings,
``global``/``nonlocal`` declarations and bare annotations in a function,
which run no code, are not. A line listed here is code that no such run
reaches: dead, or reached only by inputs the traffic lacks. The report
never fails; it exits 0.

usage: python tools/unreached.py
"""
from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitstore"


def statement_lines(source: str) -> set[int]:
    tree = ast.parse(source)
    # A bare annotation in a function body (``x: int``) compiles to nothing.
    declarations = {
        id(node)
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, ast.AnnAssign) and node.value is None
    }
    lines: set[int] = set()
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal))
                or id(node) in declarations):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring
        lines.add(node.lineno)
    return lines


def traffic(out: Path) -> None:
    """Run the product traffic; imports happen here, under the tracer."""
    from splitstore.checker import check_run
    from splitstore.cli import main, write_outputs
    from splitstore.scenarios import (
        SCENARIO_NAMES, ScenarioOutcome, run_scenario, scenario_random,
    )
    from splitstore.simnet import run
    from workloads import WORKLOADS

    for seed in range(60):
        scenario_random(seed)
    for name in SCENARIO_NAMES:
        run_scenario(name, 0)
    for name, workload in WORKLOADS.items():
        result = run(workload.config(0))
        verdict = check_run(result)
        write_outputs(out / "bench", ScenarioOutcome(
            name=name, seed=0, passed=verdict.ok, expectation="benchmark shape",
            runs=[("run", result, verdict)]))
    flags = ["--random", "--writers", "1", "--readers", "2", "--ops", "3",
             "--mds-mode", "replicated", "--byz", "d3:stale-concurrent",
             "--byz", "m4:equivocate", "--fifo", "--seeds", "0..2"]
    for argv in (flags, ["--scenario-file", str(ROOT / "examples" / "scenario.json"),
                         "--seeds", "0..2"]):
        if main(["run", *argv, "--out-dir", str(out / "cli")]) != 0:
            raise SystemExit(f"splitstore run {' '.join(argv)} failed")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set()).add(frame.f_lineno)
        return local

    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        sys.settrace(call)
        try:
            traffic(Path(out))
        finally:
            sys.settrace(None)

    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = statement_lines(path.read_text(encoding="utf-8"))
        missed = sorted(lines - executed.get(str(path), set()))
        total += len(missed)
        shown = " ".join(map(str, missed)) if missed else "-"
        print(f"{path.relative_to(PACKAGE)}: {len(missed)} of {len(lines)} unreached: {shown}")
    print(f"total: {total} statement lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
