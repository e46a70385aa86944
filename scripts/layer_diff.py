#!/usr/bin/env python3
"""Per-layer metrics of traced benchmark runs in each of two checkouts, side by side.

    python3 scripts/layer_diff.py PARENT_DIR CHANGE_DIR --workload W --seed S [S ...]

PARENT_DIR and CHANGE_DIR are checkouts, as for scripts/ab_bench.py.  Each
runs `bench/run.py --trace 1` once per seed S, through ab_bench's `run`; the
seeds run in turn, and the checkouts alternate going first, the parent at the
first seed.  Then one line per per-layer metric of CHANGE_DIR/BENCHMARK.json
gives each side's median over its runs and the relative change of the
medians, marked `WORSE` when the metric moved more than 10% against its
`better`: such a move needs an explanation.  One traced run cannot resolve a
10% move of a self time, so give several seeds.  Even medians of a few runs
move self times under 10 ms per run by more than 10% at random, so a `.self_s`
metric whose two medians are both below FLOOR_S (10 ms per run) is marked
`unresolved (below floor)` instead, whichever way it moved.  A last line names
every metric marked `WORSE`.  The exit status is 1 when a run is not correct, else 0.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ab_bench  # noqa: E402

THRESHOLD = 0.10  # a relative move the wrong way beyond this is marked
FLOOR_S = 0.010  # a self time whose medians are both below this, in seconds per run, is not resolved


def _value(result: dict, name: str) -> float | None:
    return result.get("metrics", {}).get(name, {}).get("value")


def _relative(parent: float, change: float) -> float:
    """(change - parent) / |parent|; from zero, any move is infinite."""
    if parent:
        return (change - parent) / abs(parent)
    return 0.0 if change == parent else float("inf") if change > parent else float("-inf")


def medians(results: list[dict]) -> dict:
    """A result line holding each metric's median over the results that report it."""
    names = {name for result in results for name in result.get("metrics", {})}
    return {"metrics": {name: {"value": statistics.median(v for result in results
                                                          if (v := _value(result, name)) is not None)}
                        for name in names}}


def report(parent: dict, change: dict, per_layer: list[dict]) -> list[str]:
    """One line per per-layer metric of two traced result lines, then the marked ones."""
    width = max(len(spec["name"]) for spec in per_layer)
    out, marked = [], []
    for spec in per_layer:
        name = spec["name"]
        p, c = _value(parent, name), _value(change, name)
        if p is None or c is None:
            out.append(f"{name:<{width}}  {p!s:>12}  {c!s:>12}  missing")
            continue
        rel = _relative(p, c)
        sign = 1 if spec["better"] == "higher" else -1
        line = f"{name:<{width}}  {p:>12.6g}  {c:>12.6g}  {rel:>+8.1%}"
        if name.endswith(".self_s") and max(p, c) < FLOOR_S:
            line += "  unresolved (below floor)"
        elif -sign * rel > THRESHOLD:
            line += f"  WORSE ({spec['better']} is better)"
            marked.append(name)
        out.append(line)
    out.append(f"moved more than {THRESHOLD:.0%} the wrong way: {', '.join(marked) or 'none'}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    results: dict[str, list[dict]] = {side: [] for side in ab_bench.SIDES}
    for i, seed in enumerate(args.seed):
        for side in ab_bench.SIDES[::-1] if i % 2 else ab_bench.SIDES:
            results[side].append(json.loads(ab_bench.run(getattr(args, side), args.workload, seed,
                                                         spec["run_seconds"], trace=1)))
    if len(args.seed) == 1:
        print(f"workload {args.workload}, seed {args.seed[0]}, one traced run per checkout")
    else:
        seeds = " ".join(map(str, args.seed))
        print(f"workload {args.workload}, seeds {seeds}, medians of {len(args.seed)} traced runs per checkout")
    status = 0
    for side, runs in results.items():
        for result in runs:
            if not result.get("correct") or result.get("failed"):
                print(f"{side}: correct={result.get('correct')} failed={result.get('failed')}")
                status = 1
    print("\n".join(report(medians(results["parent"]), medians(results["change"]), spec["per_layer"])))
    return status


if __name__ == "__main__":
    sys.exit(main())
