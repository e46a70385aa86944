"""scripts/ab_bench.py's summary, fed canned result lines; no benchmark runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("_ab_bench", ROOT / "scripts" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

END_TO_END = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
]


def line(ops, p50, correct=True, failed=0):
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"}, "latency_p50_ms": {"value": p50, "unit": "ms"}}
    return json.dumps({"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics})


def test_medians_quartiles_wins_and_bounds():
    pairs = [
        (line(100, 10), line(110, 14)),
        (line(102, 10), line(90, 14)),
        (line(98, 12), line(120, 14)),
        (line(104, 12), line(105, 16)),
        (line(96, 11), line(101, 15)),
    ]
    out, status = ab_bench.summary(pairs, END_TO_END)
    assert status == 0
    assert len(out) == 2 * len(pairs) + 2
    assert out[0] == "pair 0 parent: correct=True failed=0 latency_p50_ms=10 ops_per_s=100"
    ops, p50 = out[-2:]
    assert ops == ("ops_per_s: parent median 100 (quartiles 98..102), change median 105, "
                   "change better in 4/5 pairs, within bound 0.25")
    # 14 against 11 is 27% slower, beyond the 25% bound
    assert p50 == ("latency_p50_ms: parent median 11 (quartiles 10..12), change median 14, "
                   "change better in 0/5 pairs, WORSE than bound 0.25")


def test_a_run_that_is_not_correct_or_failed_exits_1():
    assert ab_bench.summary([(line(1, 1), line(1, 1, correct=False))], END_TO_END)[1] == 1
    assert ab_bench.summary([(line(1, 1, failed=2), line(1, 1))], END_TO_END)[1] == 1
    out, status = ab_bench.summary([(line(1, 1), json.dumps({"correct": False}))], END_TO_END)
    assert status == 1
    assert out[-1] == "latency_p50_ms: no pair has it"


def test_a_spread_wider_than_the_bound_is_unresolved():
    pairs = [(line(100, 10), line(100, 10)), (line(60, 10), line(60, 10)), (line(140, 10), line(140, 10))]
    ops = ab_bench.summary(pairs, END_TO_END)[0][-2]
    assert ops.endswith("change better in 0/3 pairs, unresolved at bound 0.25")


def test_a_spread_wider_than_the_bound_is_resolved_when_every_change_run_is_better():
    # the parent's quartiles 80..120 span more than the bound, but the slowest
    # change run beats the fastest parent run; one run below that is unresolved
    pairs = [(line(100, 10), line(150, 10)), (line(60, 10), line(145, 10)), (line(140, 10), line(160, 10))]
    ops = ab_bench.summary(pairs, END_TO_END)[0][-2]
    assert ops.endswith("change better in 3/3 pairs, better in every run, spread wider than bound 0.25")
    pairs[0] = (line(100, 10), line(139, 10))
    ops = ab_bench.summary(pairs, END_TO_END)[0][-2]
    assert ops.endswith("change better in 3/3 pairs, unresolved at bound 0.25")


def test_a_last_line_that_is_not_json_is_a_failed_run(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("print('{\"correct\": true}')\nprint('Traceback')\n")
    out, status = ab_bench.summary([(line(1, 1), ab_bench.run(tmp_path, "w", 1, 1))], END_TO_END)
    assert status == 1
    assert out[1] == "pair 0 change: correct=False failed=None"


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_parent_spread():
    # the change is faster in 9 of 10 pairs, its median 20 above the parent's
    # (quartiles 99.25..100.75); latency is better in only 8 of 10
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [120] * 9 + [90]
    p50 = [5] * 8 + [20, 20]
    pairs = [(line(p, 10), line(c, q)) for p, c, q in zip(parent, change, p50)]
    ops, lat = ab_bench.gains(pairs, END_TO_END)
    assert ops == "ops_per_s gain: met (won 9/10 pairs, median gap 20 against parent quartile spread 1.5)"
    assert lat == "latency_p50_ms gain: not met (won 8/10 pairs, median gap 5 against parent quartile spread 0)"


def test_no_gain_when_the_gap_is_within_the_parent_spread():
    # won every pair, but by less than the parent's own quartile spread
    pairs = [(line(p, 10), line(p + 1, 10)) for p in (90, 95, 100, 105, 110)]
    ops = ab_bench.gains(pairs, END_TO_END)[0]
    assert ops == "ops_per_s gain: not met (won 5/5 pairs, median gap 1 against parent quartile spread 10)"
