#!/usr/bin/env python3
"""Alternating pairs of benchmark runs between two checkouts.

    python3 scripts/ab_bench.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seed B]

PARENT_DIR and CHANGE_DIR are checkouts, for example made by
`git archive <commit> | tar -x -C DIR`.  Pair i runs `bench/run.py` in both
at seed B+i for the `run_seconds` of CHANGE_DIR/BENCHMARK.json; the parent
runs first in even pairs, the change in odd ones.  Every run's end-to-end
metrics are printed, then, for each end-to-end metric of that file: both
medians, the parent's quartiles, the pairs the change won by the metric's
`better`, and a verdict on the change's median against the metric's relative
bound: when the parent's own quartile spread is wider than the bound allows,
`better in every run` if every change run beats every parent run, else
`unresolved`; otherwise `WORSE than` or `within`.  A last line per metric
gives the gain verdict by the claim rule: a gain is met when the change wins
at least nine tenths of the pairs (ties count for neither) and its median
beats the parent's by more than the parent's quartile spread.  The exit
status is 1 when a run is not correct or has failures, else 0.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> str:
    """The result line (the last line of standard output) of one benchmark run, traced when trace is 1."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        json.loads(lines[-1])
        return lines[-1]
    except (IndexError, ValueError):
        return json.dumps({"correct": False, "error": proc.stderr[-300:]})


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def _compare(runs: list[tuple[dict, dict]], spec: dict) -> tuple | None:
    """(pairs, change wins, parent median, change median, parent quartiles,
    how much the change's median is better, whether every change run beats
    every parent run) for one metric over the pairs that have it, or None."""
    name = spec["name"]
    vals = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in runs if name in p.get("metrics", {}) and name in c.get("metrics", {})]
    if not vals:
        return None
    sign = 1 if spec["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in vals)
    mp = statistics.median(p for p, _c in vals)
    mc = statistics.median(c for _p, c in vals)
    every = min(sign * c for _p, c in vals) > max(sign * p for p, _c in vals)
    return len(vals), wins, mp, mc, _quartiles(sorted(p for p, _c in vals)), sign * (mc - mp), every


def _runs(pairs: list[tuple[str, str]]) -> list[tuple[dict, dict]]:
    return [tuple(json.loads(line) for line in pair) for pair in pairs]


def summary(pairs: list[tuple[str, str]], end_to_end: list[dict]) -> tuple[list[str], int]:
    """Report lines and exit status for (parent, change) pairs of result lines."""
    runs = _runs(pairs)
    out, status = [], 0
    for i, pair in enumerate(runs):
        for side, r in zip(SIDES, pair):
            values = " ".join(f"{k}={m['value']:.6g}" for k, m in sorted(r.get("metrics", {}).items()))
            out.append(f"pair {i} {side}: correct={r.get('correct')} failed={r.get('failed')} {values}".rstrip())
            if not r.get("correct") or r.get("failed"):
                status = 1
    for spec in end_to_end:
        name = spec["name"]
        compared = _compare(runs, spec)
        if compared is None:
            out.append(f"{name}: no pair has it")
            continue
        n, wins, mp, mc, (q1, q3), gap, every = compared
        allowed = spec["bound"] * abs(mp)
        if q3 - q1 > allowed:
            verdict = "better in every run, spread wider than" if every else "unresolved at"
        elif -gap > allowed:
            verdict = "WORSE than"
        else:
            verdict = "within"
        out.append(f"{name}: parent median {mp:.6g} (quartiles {q1:.6g}..{q3:.6g}), change median {mc:.6g}, "
                   f"change better in {wins}/{n} pairs, {verdict} bound {spec['bound']}")
    return out, status


def gains(pairs: list[tuple[str, str]], end_to_end: list[dict]) -> list[str]:
    """One gain verdict per end-to-end metric, by the claim rule."""
    runs = _runs(pairs)
    out = []
    for spec in end_to_end:
        compared = _compare(runs, spec)
        if compared is None:
            continue
        n, wins, _mp, _mc, (q1, q3), gap, _every = compared
        met = wins * 10 >= 9 * n and gap > q3 - q1
        out.append(f"{spec['name']} gain: {'met' if met else 'not met'} (won {wins}/{n} pairs, "
                   f"median gap {gap:.6g} against parent quartile spread {q3 - q1:.6g})")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        lines = {side: run(getattr(args, side), args.workload, seed, spec["run_seconds"]) for side in order}
        print(f"pair {i} seed {seed}: {' then '.join(order)} done", file=sys.stderr, flush=True)
        pairs.append((lines["parent"], lines["change"]))
    lines, status = summary(pairs, spec["end_to_end"])
    print(f"workload {args.workload}, {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}")
    print("\n".join(lines + gains(pairs, spec["end_to_end"])))
    return status


if __name__ == "__main__":
    sys.exit(main())
