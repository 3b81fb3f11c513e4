#!/usr/bin/env python3
"""Self-test of the benchmark harness. Run from the repository root:

    python3 perfbench/selftest.py

Checks, each in a fresh process of perfbench/run.py at --seconds 1:
- every workload prints every end-to-end metric of BENCHMARK.json with
  its unit and a failed_run_share of 0, and exits 0;
- every workload's traced run prints every per-layer metric with its
  unit and reproduces the untraced outcome digest;
- the known-bad workload (the forged sub-run of scenario theorem1-byz)
  reports failed_run_share > 0 and exits non-zero, so the correctness
  gate does fail bad runs;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
Exits 1 on the first failed check. Finally it reports, without failing,
whether the known defect outside the campaign's seeds (random_config
seed 2333 fails directory linearizability) is still present.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def failed_share(lines: list[str]) -> float:
    for line in lines:
        match = re.match(r"\s*failed_run_share = (\S+) ratio", line)
        if match:
            return float(match.group(1))
    return -1.0


def check_metrics(lines: list[str], specs: list[dict], label: str) -> None:
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(set(result["metrics"]) == {m["name"] for m in specs}, f"{label}: metric names")
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        check(result["metrics"][name]["unit"] == unit
              and any(re.match(rf"\s*{re.escape(name)} = \S+ {re.escape(unit)}$", line)
                      for line in lines),
              f"{label}: prints {name} in {unit}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        code, lines = bench("--workload", workload, "--seed", "0", "--trace", "0")
        check(code == 0 and json.loads(lines[-1])["correct"], f"{workload}: timed run passes")
        check(failed_share(lines) == 0.0, f"{workload}: failed_run_share is 0")
        check_metrics(lines, spec["end_to_end"], workload)
        code, lines = bench("--workload", workload, "--seed", "0", "--trace", "1")
        check(code == 0 and json.loads(lines[-1])["correct"],
              f"{workload}: traced run passes and reproduces the digest")
        check_metrics(lines, spec["per_layer"], f"{workload} traced")

    code, lines = bench("--workload", "known-bad", "--seed", "0", "--trace", "0")
    result = json.loads(lines[-1])
    check(code != 0 and not result["correct"] and result["failed"] > 0,
          "known-bad: exits non-zero with failed runs")
    check(failed_share(lines) > 0, "known-bad: failed_run_share > 0")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out_dir))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", spec["workloads"][0]["name"], "--seed", "0",
                            "--trace", "0", cwd=bare)
        check(code != 0 and not any(line.startswith("{") for line in lines),
              "bare directory: exits non-zero without a result")
    finally:
        shutil.rmtree(bare)

    sys.path.insert(0, str(ROOT / "src"))
    from splitstore import check_run, run
    from splitstore.scenarios import random_config
    result = run(random_config(2333))
    failed = check_run(result).failed()
    print(f"note known defect: random_config(2333) fails {failed}" if failed else
          "note random_config(2333) now passes: drop the note in workloads.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
