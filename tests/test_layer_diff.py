"""scripts/layer_diff.py's report, fed canned traced result lines; no benchmark runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("_layer_diff", ROOT / "scripts" / "layer_diff.py")
layer_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_diff)

PER_LAYER = [
    {"name": "scalars.ScalarPoly.mul.self_s", "unit": "s", "better": "lower"},
    {"name": "scalars.GaussianRational.mul.calls", "unit": "count", "better": "lower"},
    {"name": "suites.cases", "unit": "count", "better": "higher"},
    {"name": "algebra.mul.calls", "unit": "count", "better": "lower"},
    {"name": "cli.import_ms", "unit": "ms", "better": "lower"},
]


def result(**values) -> dict:
    return {"correct": True, "failed": 0,
            "metrics": {name.replace("__", "."): {"value": v, "unit": "x"} for name, v in values.items()}}


def test_relative_changes_and_wrong_way_moves_are_marked():
    parent = result(scalars__ScalarPoly__mul__self_s=0.289, scalars__GaussianRational__mul__calls=0,
                    suites__cases=100, algebra__mul__calls=2980)
    change = result(scalars__ScalarPoly__mul__self_s=0.177, scalars__GaussianRational__mul__calls=5,
                    suites__cases=85, algebra__mul__calls=2980)
    lines = layer_diff.report(parent, change, PER_LAYER)
    assert len(lines) == len(PER_LAYER) + 1
    sp, gr, cases, mul, missing = lines[:-1]
    # 0.289 -> 0.177 s is 38.8% lower, the right way
    assert sp.split() == ["scalars.ScalarPoly.mul.self_s", "0.289", "0.177", "-38.8%"]
    # from zero any rise is infinite, against `lower`
    assert gr.split()[1:] == ["0", "5", "+inf%", "WORSE", "(lower", "is", "better)"]
    # 15% fewer cases, against `higher`
    assert cases.split()[1:] == ["100", "85", "-15.0%", "WORSE", "(higher", "is", "better)"]
    assert mul.split()[1:] == ["2980", "2980", "+0.0%"]
    assert missing.split() == ["cli.import_ms", "None", "None", "missing"]
    assert lines[-1] == "moved more than 10% the wrong way: scalars.GaussianRational.mul.calls, suites.cases"


def test_a_move_of_at_most_ten_percent_is_not_marked():
    lines = layer_diff.report(result(algebra__mul__calls=100), result(algebra__mul__calls=110), PER_LAYER[3:4])
    assert lines == ["algebra.mul.calls           100           110    +10.0%",
                     "moved more than 10% the wrong way: none"]


def test_self_times_below_the_floor_are_unresolved():
    spec = [{"name": "spherical.star.self_s", "unit": "s", "better": "lower"}]
    # 4 -> 6 ms per run is 50% slower, but both medians are under the 10 ms floor
    below = layer_diff.report(result(spherical__star__self_s=0.004), result(spherical__star__self_s=0.006), spec)
    assert below == ["spherical.star.self_s         0.004         0.006    +50.0%  unresolved (below floor)",
                     "moved more than 10% the wrong way: none"]
    # 9 -> 12 ms per run: one median is above the floor, so the move is marked
    above = layer_diff.report(result(spherical__star__self_s=0.009), result(spherical__star__self_s=0.012), spec)
    assert above == ["spherical.star.self_s         0.009         0.012    +33.3%  WORSE (lower is better)",
                     "moved more than 10% the wrong way: spherical.star.self_s"]
    assert layer_diff.FLOOR_S == 0.010


def test_runs_go_through_ab_bench_with_the_trace_argument(tmp_path):
    # a stand-in bench/run.py that reports its own argv
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json, sys\nprint(json.dumps({'correct': True, 'argv': sys.argv[1:]}))\n")
    line = json.loads(layer_diff.ab_bench.run(tmp_path, "deep_nf", 3, 30, trace=1))
    assert line["argv"] == ["--workload", "deep_nf", "--seed", "3", "--seconds", "30", "--trace", "1"]
    assert json.loads(layer_diff.ab_bench.run(tmp_path, "deep_nf", 3, 30))["argv"][-2:] == ["--trace", "0"]


def test_medians_per_metric_over_the_runs_that_report_it():
    runs = [result(algebra__mul__calls=1093, algebra__mul__self_s=0.30),
            result(algebra__mul__calls=1093, algebra__mul__self_s=0.50),
            result(algebra__mul__calls=1093, algebra__mul__self_s=0.20, suites__cases=85),
            {"correct": False, "error": "killed"}]
    got = layer_diff.medians(runs)["metrics"]
    assert got == {"algebra.mul.calls": {"value": 1093}, "algebra.mul.self_s": {"value": 0.30},
                   "suites.cases": {"value": 85}}
    # one run is its own median, so one seed reports as before
    assert layer_diff.medians(runs[:1]) == {"metrics": {name: {"value": m["value"]}
                                                        for name, m in runs[0]["metrics"].items()}}


def test_seeds_alternate_which_checkout_goes_first(tmp_path, capsys):
    # stand-in checkouts whose bench/run.py logs the order of runs and reports its seed as the metric
    log = tmp_path / "log"
    for side, offset in (("parent", 0), ("change", 100)):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 30, "per_layer": [{"name": "algebra.mul.calls", "unit": "count", "better": "lower"}]}))
        (tmp_path / side / "bench" / "run.py").write_text(
            "import json, sys\n"
            "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
            f"open({str(log)!r}, 'a').write('{side} %d\\n' % seed)\n"
            f"print(json.dumps({{'correct': True, 'failed': 0, "
            f"'metrics': {{'algebra.mul.calls': {{'value': seed + {offset}}}}}}}))\n")
    args = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "verify_all", "--seed"]
    assert layer_diff.main(args + ["1", "2", "6"]) == 0
    assert log.read_text().split("\n")[:-1] == ["parent 1", "change 1", "change 2", "parent 2", "parent 6", "change 6"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload verify_all, seeds 1 2 6, medians of 3 traced runs per checkout"
    # medians 2 and 102
    assert lines[1].split() == ["algebra.mul.calls", "2", "102", "+5000.0%", "WORSE", "(lower", "is", "better)"]
    log.unlink()
    assert layer_diff.main(args + ["4"]) == 0
    assert log.read_text() == "parent 4\nchange 4\n"
    assert capsys.readouterr().out.splitlines()[:2] == [
        "workload verify_all, seed 4, one traced run per checkout",
        "algebra.mul.calls             4           104  +2500.0%  WORSE (lower is better)"]
