"""Deterministic simulator for a replicated register that stores bulk
values on a small data-replica group and routes ordering metadata through
a separate directory service.

The public surface is intentionally small: build a `Config`, call `run`,
feed the `RunResult` to `check_run`, or go through the named scenarios.
"""
from .checker import CheckResult, Verdict, check_run
from .faults import ByzStrategy, CrashSpec
from .history import DirOpRecord, OpRecord
from .scenarios import SCENARIO_NAMES, ScenarioOutcome, run_scenario
from .simnet import AdversaryAction, Config, RunResult, Simulation, run
from .types import (
    NIL,
    TS_INIT,
    ConfigError,
    DigestFacility,
    HarnessError,
    HashMode,
    Metadata,
    Timestamp,
)

__all__ = [
    "AdversaryAction",
    "ByzStrategy",
    "CheckResult",
    "Config",
    "ConfigError",
    "CrashSpec",
    "DigestFacility",
    "DirOpRecord",
    "HarnessError",
    "HashMode",
    "Metadata",
    "NIL",
    "OpRecord",
    "RunResult",
    "SCENARIO_NAMES",
    "ScenarioOutcome",
    "Simulation",
    "Timestamp",
    "TS_INIT",
    "Verdict",
    "check_run",
    "run",
    "run_scenario",
]
