#!/usr/bin/env python3
"""Self-test of the benchmark on reduced inputs.

    python3 bench/selftest.py

Checks the schema of BENCHMARK.json, of the result line and of the results
file, and the metric and workload names; never a timing bound.  It also
checks the tracer (count metrics repeat exactly across two traced runs of one
seed), that a digest mismatch counts as a failed op, and that the benchmark
refuses to run, printing no result, where the dunklweyl sources are missing.
Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 3
COUNT_SUFFIXES = (".calls", ".terms_out", ".scalar_terms_out", ".max_coeff_bits",
                  ".chars_out", ".witnesses_replayed", ".lines", ".cases", ".cases_failed")
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def invoke(cwd: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "2", "--trace", str(trace), "--reduced"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout


def result_line(workload: str, trace: int, units: dict[str, str]) -> dict:
    code, out = invoke(run.ROOT, workload, trace)
    line = json.loads(out.strip().splitlines()[-1])
    tag = f"{workload} --trace {trace}"
    expect(code == 0, f"{tag}: exit status 0")
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    expect(line["correct"] is True and line["failed"] == 0, f"{tag}: correct, nothing failed")
    expect(isinstance(line["attempted"], int) and line["attempted"] >= 1, f"{tag}: ops attempted")
    metrics = line["metrics"]
    expect(list(metrics) == list(units), f"{tag}: metric names")
    expect(all(set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
               for m in metrics.values()), f"{tag}: metric values are numbers")
    expect(all(metrics[k]["unit"] == u for k, u in units.items() if k in metrics), f"{tag}: units")
    results = json.loads((run.RESULTS / f"{workload}-seed{SEED}-trace{trace}-reduced.json").read_text())
    fields = {"git_commit", "python", "nproc", "seed", "ops", "failed_frac", "requests"}
    if not trace:
        fields |= {"latency_tail_percentile", "latency_tail_samples_beyond"}
    expect(fields <= set(results), f"{tag}: results file provenance")
    return metrics


def check_manifest() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json keys")
    expect([w["name"] for w in spec["workloads"]] == list(run.MUST_CALL), "workload names")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END, "end-to-end names")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds within 0.25")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(setup and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s bound")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_names(), "per-layer names")


def check_digest_mismatch() -> None:
    req = run.cli_request(["nf", "z*zb", "--format", "text"], run.expect_exit(0))
    try:
        outcome = run.execute(req, {req.key: "0" * 16}, run.time.perf_counter() + 60)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    expect(outcome.failed == 1, "a digest mismatch counts as a failed op")


def check_missing_sources() -> None:
    bare = run.BENCH / ".selftest"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns(".work", ".selftest", "results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        code, out = invoke(bare, "cli_mix", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and not out.strip(), "without sources: non-zero exit and no result")


def main() -> int:
    check_manifest()
    layer_units = run.per_layer_names()
    for workload in run.MUST_CALL:
        result_line(workload, 0, run.END_TO_END)
        first = result_line(workload, 1, layer_units)
        second = result_line(workload, 1, layer_units)
        counts = [k for k in layer_units if k.endswith(COUNT_SUFFIXES)]
        same = all(first[k]["value"] == second[k]["value"] for k in counts)
        expect(same, f"{workload}: count metrics repeat across two traced runs")
    check_digest_mismatch()
    check_missing_sources()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
