"""Canonical report bytes against the digests recorded in bench/digests.json.

The benchmark checks its operations against these digests; this test replays
the recorded `dunkl verify` and `dunkl hh0` requests and the seed-1 suite
battery in process, so a change to the report bytes fails tier-1 too, and
checks that scripts/run_verify.py runs the benchmark's battery parameters.  It
only reads bench/.
"""

from __future__ import annotations

import importlib.util
import json
import shlex
import sys
from pathlib import Path

import pytest

from dunklweyl.cli import main
from dunklweyl.suites import ACCEPTANCE, RunConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
DIGESTS = json.loads((BENCH / "digests.json").read_text())
REPORT_KEYS = sorted(k for k in DIGESTS if k.startswith(("dunkl verify ", "dunkl hh0 ")))
BATTERY_PREFIX = "battery seed=1 suite="


def _load(name: str):
    """Import bench/<name>.py under a private module name."""
    sys.path.insert(0, str(BENCH))  # bench/run.py imports its sibling oracles
    try:
        spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


@pytest.fixture(scope="module")
def bench_run():
    return _load("run")


def test_recorded_requests_are_present():
    assert len(REPORT_KEYS) == 16
    assert sum(k.startswith(BATTERY_PREFIX) for k in DIGESTS) == 8


@pytest.mark.parametrize("key", REPORT_KEYS)
def test_report_bytes_match_recorded_digest(capsys, bench_run, key):
    argv = shlex.split(key)[1:]
    code = main(argv)
    out = capsys.readouterr().out.encode()
    assert code == 0
    if argv[0] == "verify":
        out = bench_run.strip_wall(out)
    assert bench_run._sha(out) == DIGESTS[key]


def test_battery_matches_recorded_digests():
    summary = _load("child").battery(1, False, None)
    got = {f"{BATTERY_PREFIX}{name}": s["digest"] for name, s in summary.items()}
    want = {k: v for k, v in DIGESTS.items() if k.startswith(BATTERY_PREFIX)}
    assert got == want


def test_battery_parameters_match_the_benchmark():
    # suites.ACCEPTANCE, the table scripts/run_verify.py runs, is the battery
    # the benchmark times from its own frozen copy
    spec = importlib.util.spec_from_file_location("_run_verify", BENCH.parent / "scripts" / "run_verify.py")
    run_verify = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(run_verify)  # puts src/ on sys.path
    finally:
        sys.path[:] = path
    assert run_verify.ACCEPTANCE is ACCEPTANCE
    frozen = _load("child").ACCEPTANCE
    assert list(ACCEPTANCE) == list(frozen)
    assert ACCEPTANCE == {name: RunConfig(**params) for name, params in frozen.items()}
