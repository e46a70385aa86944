#!/usr/bin/env python3
"""The dunklweyl benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):

    verify_all  the eight verification suites at acceptance parameters, one
                fresh process per battery; an operation is one suite case
    deep_nf     cold `dunkl nf` calls on zb^m*z^n and zb^m*g*z^n, m, n in 16..36
    cli_mix     cold `dunkl` calls over all eleven subcommands, small inputs

Load is a closed loop with one client: the next operation starts when the
previous one has exited.  Every output is checked, against a closed form
that does not call the product engine where one exists (bench/oracles.py),
and against digests recorded at the seed commit (bench/digests.json) where
the same request was recorded.

The CPU speed of a shared virtual machine drifts by tens of percent within
seconds.  End-to-end timings are therefore reported at a nominal machine
speed: a thread of this process, pinned with every operation to one CPU,
times a fixed Fraction loop unrelated to dunklweyl while the operations run,
and each operation's times are scaled by the loop's nominal time over its
measured time (see Reference).  The raw values are kept in the results file.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 a fixed number of rounds (TRACE_ROUNDS)
runs once untraced and once with the tracer installed (bench/tracer.py), and
the object carries the per-layer metrics.  A results file with the run's
provenance is written to bench/results/.  The exit status is 0 when a result
was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Callable

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work" / str(os.getpid())  # per run, so concurrent runs do not collide
RESULTS = BENCH / "results"
DIGESTS = BENCH / "digests.json"

# Time of the Reference loop at the speed end-to-end timings are scaled to.
REFERENCE_NOMINAL_S = 0.0025
# How many times set-up is repeated; setup_s is the median.
SETUP_REPEATS = 5
# Rounds of the traced run's requests: a fixed number, so that its counts repeat
# exactly for a seed and its totals compare across commits.
TRACE_ROUNDS = {"verify_all": 1, "deep_nf": 2, "cli_mix": 6}
# A run stops starting operations after this many seconds, whatever --seconds
# says, so that it ends within the three minutes a run may take.
HARD_STOP_S = 150.0
LAUNCH = "import sys; from dunklweyl.cli import main; sys.exit(main())"

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_SPANS = {
    # span name -> (report calls, report self_s)
    "scalars.ScalarPoly.mul": (True, True),
    "scalars.ScalarPoly.add": (True, True),
    "scalars.GaussianRational.mul": (True, False),
    "scalars.series": (False, True),
    "algebra.mul": (True, True),
    "spherical.star": (True, True),
    "spherical.moyal_star": (True, True),
    "trace.phi": (True, True),
    "trace.ch_phi": (False, True),
    "hochschild.reduce_certificate": (True, True),
    "hochschild.check_certificate": (True, True),
    "index.index_form": (True, True),
    "index.local_star": (True, True),
    "index.local_trace_density": (True, True),
    "exprs.parse": (True, True),
    "exprs.eval": (False, True),
    "exprs.print": (False, True),
    "suites.run_suite": (False, True),
    "cli.main": (False, True),
}
LAYER_COUNTS = {
    "scalars.max_coeff_bits": "bits",
    "algebra.mul.terms_out": "count",
    "algebra.mul.scalar_terms_out": "count",
    "hochschild.witnesses_replayed": "count",
    "exprs.chars_out": "count",
    "suites.cases": "count",
    "suites.cases_failed": "count",
}
MODULES = ("scalars", "algebra", "spherical", "trace", "hochschild", "index", "exprs", "suites", "cli")


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    out: dict[str, str] = {}
    for name, (calls, self_s) in LAYER_SPANS.items():
        if calls:
            out[f"{name}.calls"] = "count"
        if self_s:
            out[f"{name}.self_s"] = "s"
    out.update(LAYER_COUNTS)
    out["cli.interpreter_ms"] = "ms"
    out["cli.import_ms"] = "ms"
    for module in MODULES:
        out[f"{module}.lines"] = "lines"
    out["dunklweyl.lines"] = "lines"
    out["tracing.overhead_s"] = "s"
    out["tracing.unattributed_s"] = "s"
    return out


# Which layers each workload must reach: the traced run fails its self-check
# when one of these span names shows no calls.
MUST_CALL = {
    "verify_all": ("scalars.ScalarPoly.mul", "scalars.GaussianRational.mul", "scalars.series",
                   "algebra.mul", "spherical.star", "spherical.moyal_star", "trace.phi",
                   "hochschild.reduce_certificate", "hochschild.check_certificate",
                   "exprs.parse", "suites.run_suite"),
    "deep_nf": ("scalars.ScalarPoly.mul", "algebra.mul", "exprs.parse", "cli.main"),
    "cli_mix": ("scalars.ScalarPoly.mul", "algebra.mul", "trace.phi", "trace.ch_phi",
                "hochschild.reduce_certificate", "hochschild.check_certificate",
                "index.index_form", "index.local_star", "index.local_trace_density",
                "exprs.parse", "exprs.print", "suites.run_suite", "cli.main"),
}


# -- requests ----------------------------------------------------------------


@dataclass
class Request:
    """One operation: a process to spawn and a check of what it printed."""

    key: str  # canonical request text, the key of the digest table
    argv: list[str]  # arguments after the interpreter, or of the dunkl CLI
    check: Callable[[int, bytes, bytes], tuple[int, int, str | None]]
    battery: bool = False  # argv runs bench/child.py instead of the CLI
    digest_of: Callable[[bytes], dict[str, str]] | None = None


@dataclass
class Outcome:
    request: Request
    proc: "Proc"
    attempted: int = 0
    failed: int = 0
    error: str | None = None
    digests: dict[str, str] = field(default_factory=dict)
    interval: tuple[float, float] = (0.0, 0.0)  # perf_counter at spawn and after the check


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _cli_key(argv: list[str]) -> str:
    return "dunkl " + " ".join(shlex.quote(a) for a in argv)


def _read(fmt: str, out: bytes):
    text = out.decode()
    return oracles.read_json(json.loads(text)) if fmt == "json" else oracles.read_text(text)


def _one(ok: bool, why: str) -> tuple[int, int, str | None]:
    return (1, 0, None) if ok else (1, 1, why)


def expect_terms(fmt: str, want: oracles.TermMap, project: bool):
    """Output equals `want`, or its h2 = 0 projection does when `project`."""

    def check(code, out, _err):
        if code != 0:
            return _one(False, f"exit {code}")
        got = _read(fmt, out)
        if project:
            got = oracles.h2_free(got)
        return _one(got == want, "differs from the closed form")

    return check


def expect_exit(code_wanted: int, fmt: str | None = None, verdict=None):
    def check(code, out, err):
        if code != code_wanted:
            return _one(False, f"exit {code}, expected {code_wanted}")
        if code_wanted == 2:
            return _one(not out and err.startswith(b"error:"), "usage error not reported")
        if verdict is not None:
            text = out.decode().strip()
            got = json.loads(text) == {"ok": verdict} if fmt == "json" else text == ("ok" if verdict else "FAIL")
            return _one(got, "wrong replay verdict")
        return _one(bool(out.strip()), "empty output")

    return check


def _mono(p: int, q: int) -> str:
    parts = [f"z^{p}"] * (p > 0) + [f"zb^{q}"] * (q > 0)
    return "*".join(parts) or "1"


def _fmt_args(fmt: str) -> list[str]:
    return ["--format", fmt]


def cli_request(argv: list[str], check) -> Request:
    return Request(key=_cli_key(argv), argv=argv, check=check)


# -- verify_all ----------------------------------------------------------------


def battery_rounds(seed: int, reduced: bool, table: dict[str, str]) -> list[list[Request]]:
    argv = [str(BENCH / "child.py"), "battery", "--seed", str(seed)] + ["--reduced"] * reduced
    prefix = f"battery seed={seed}{' reduced' if reduced else ''}"

    def digests(out: bytes) -> dict[str, str]:
        summary = json.loads(out)
        return {f"{prefix} suite={name}": s["digest"] for name, s in summary.items()}

    def check(code, out, _err):
        if code != 0:
            return 1, 1, f"battery exit {code}"
        summary = json.loads(out)
        attempted = sum(s["cases"] for s in summary.values())
        failed, why = 0, None
        for name, s in summary.items():
            recorded = table.get(f"{prefix} suite={name}")
            if s["cases"] == 0 or not s["ok"]:
                failed += max(s["failed"], 1)
                why = f"suite {name} failed"
            elif recorded is not None and recorded != s["digest"]:
                failed += s["cases"]
                why = f"suite {name} report differs from the recorded digest"
        return max(attempted, 1), failed, why

    request = Request(key=prefix, argv=argv, check=check, battery=True, digest_of=digests)
    return [[request] for _ in range(64)]


# -- deep_nf -------------------------------------------------------------------

# The cost of normalizing zb^m z^n from an empty memo grows with n (about
# n^4) and hardly depends on m once m >= n.  Every round holds one request for
# each n of a fixed ladder, with m drawn from the seed in [n, 36], so each seed
# sees the same mix of costs and the medians stay put from seed to seed.
DEEP_LADDER = (16, 19, 22, 25, 28, 31, 34)
DEEP_MAX = 36
REDUCED_LADDER, REDUCED_MAX = (3, 5), 6


def deep_rounds(seed: int, reduced: bool) -> list[list[Request]]:
    rng = random.Random(seed)
    ladder, top = (REDUCED_LADDER, REDUCED_MAX) if reduced else (DEEP_LADDER, DEEP_MAX)
    rounds = []
    for _ in range(64):
        rnd = []
        for n in ladder:
            m = rng.randint(n, top)
            if rng.random() < 0.5:
                word, want = f"zb^{m}*z^{n}", oracles.weyl_product(0, m, n, 0)
            else:
                word = f"zb^{m}*g*z^{n}"
                want = oracles.weyl_product(0, m, n, 0, g=1, sign=(-1) ** n)
            argv = ["nf", word, "--format", "json"]
            rnd.append(cli_request(argv, expect_terms("json", want, project=True)))
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds


# -- cli_mix -------------------------------------------------------------------

MALFORMED = [
    ["nf", "z*"],
    ["nf", "z^-2"],
    ["nf", "w*z"],
    ["nf", "z**zb"],
    ["mul", "z", "zb^"],
    ["star", "z", "zb"],
    ["trace", "(z*zb"],
    ["certify", "z*zb + z^2"],
    ["localtrace", "--n", "1", "p2*z"],
]
LIGHT_SUITES = ("relations", "trace", "hh0", "degeneration", "euler", "chphi")


def _random_expr(rng: random.Random) -> str:
    atoms = ["x", "y", "g", "z", "zb", "h1", "h2", "i", "1/2", "3"]

    def term() -> str:
        word = "*".join(rng.choice(atoms) for _ in range(rng.randint(1, 3)))
        return f"({word})^{rng.randint(1, 3)}" if rng.random() < 0.3 else word

    return f"{term()} {rng.choice('+-')} {term()}"


def _invariant(rng: random.Random, top: int) -> tuple[int, int]:
    p = rng.randint(0, top)
    q = rng.choice([v for v in range(top + 1) if (p + v) % 2 == 0])
    return p, q


def _check_certificate(p: int, q: int, cert_path: Path, bad_path: Path):
    def check(code, out, _err):
        if code != 0:
            return _one(False, f"exit {code}")
        cert = json.loads(out)
        ok = (
            oracles.read_text(cert["target"]) == {(0, 0, p, q, 0): (1, 0)}
            and oracles.read_text(cert["scalar"]) == oracles.invariant_trace(p, q)
        )
        cert_path.write_bytes(out)
        tampered = dict(cert, scalar="1" if cert["scalar"] == "0" else cert["scalar"] + " + 1")
        bad_path.write_text(json.dumps(tampered, indent=2))
        return _one(ok, "certificate scalar differs from the closed-form trace")

    return check


def _check_hh0(fmt: str, degree: int):
    count = sum(d + 1 for d in range(0, degree + 1, 2))

    def check(code, out, _err):
        if code != 0:
            return _one(False, f"exit {code}")
        text = out.decode()
        if fmt == "json":
            data = json.loads(text)
            entries = [(e["monomial"], e["scalar"], e["checked"] and e["matches_phi"])
                       for e in data["entries"]]
            all_ok = data["all_ok"]
        else:
            lines = text.splitlines()
            entries = []
            for line in lines[:-1]:
                mark, _, rest = line.partition(" [")
                mono, _, scalar = rest.partition("] = (")
                entries.append((mono, scalar.removesuffix(") * [1]"), mark.strip() == "ok"))
            all_ok = lines[-1] == "all certified"
        good = all_ok and len(entries) == count
        for mono, scalar, ok in entries:
            ((_a, _b, p, q, _g), _c), = oracles.read_text(mono).items()
            good = good and ok and oracles.read_text(scalar) == oracles.invariant_trace(p, q)
        return _one(good, "hh0 scalars differ from the closed-form trace")

    return check


def _check_chphi(fmt: str, order: int):
    want = [oracles.scaled(oracles.trace_closed_form(k), Fraction(1, factorial(k)))
            for k in range(order + 1)]

    def check(code, out, _err):
        if code != 0:
            return _one(False, f"exit {code}")
        text = out.decode()
        if fmt == "json":
            got = [oracles.read_json(v) for _k, v in sorted(json.loads(text).items(), key=lambda kv: int(kv[0]))]
        else:
            got = [oracles.read_text(line.partition(": ")[2]) for line in text.splitlines()]
        return _one(got == want, "character series differs from the closed form")

    return check


def _check_verify(fmt: str):
    def check(code, out, _err):
        if code != 0:
            return _one(False, f"exit {code}")
        text = out.decode()
        if fmt == "json":
            data = json.loads(text)
            return _one(data["failed"] == 0 and data["passed"] > 0, "suite report not green")
        head = text.splitlines()[0]
        passed, _, total = head.rpartition(": ")[2].partition(" ")[0].partition("/")
        return _one(passed == total and int(total) > 0, "suite report not green")

    return check


def strip_wall(out: bytes) -> bytes:
    """A verify report without its wall-time field."""
    text = out.decode()
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        data.pop("wall_ms", None)
        return json.dumps(data, sort_keys=True).encode()
    return "\n".join(l for l in text.splitlines() if not l.startswith("  wall ")).encode()


def cli_rounds(seed: int, reduced: bool, work: Path) -> list[list[Request]]:
    rng = random.Random(seed)
    rounds = []
    for r in range(2 if reduced else 64):
        groups: list[list[Request]] = []

        def add(argv, check):
            req = cli_request(argv, check)
            groups.append([req])
            return req

        def fmt() -> str:
            return rng.choice(("text", "json"))

        f, m, n, with_g = fmt(), rng.randint(0, 6), rng.randint(0, 6), rng.random() < 0.5
        h2zero = ["--h2-zero"] * (rng.random() < 0.3)
        word = f"zb^{m}*g*z^{n}" if with_g else f"zb^{m}*z^{n}"
        want = oracles.weyl_product(0, m, n, 0, g=int(with_g), sign=(-1) ** n if with_g else 1)
        add(["nf", word, *_fmt_args(f), *h2zero], expect_terms(f, want, project=not h2zero))

        f = fmt()
        add(["nf", _random_expr(rng), *_fmt_args(f)], expect_exit(0))

        for cmd in ("mul", "comm", "star"):
            f = fmt()
            h2zero = ["--h2-zero"] * (rng.random() < 0.3)
            if cmd == "star":
                (p1, q1), (p2, q2) = _invariant(rng, 4), _invariant(rng, 4)
            else:
                p1, q1, p2, q2 = (rng.randint(0, 4) for _ in range(4))
            oracle = oracles.weyl_commutator if cmd == "comm" else oracles.weyl_product
            want = oracle(p1, q1, p2, q2)
            add([cmd, _mono(p1, q1), _mono(p2, q2), *_fmt_args(f), *h2zero],
                expect_terms(f, want, project=not h2zero))

        f, k = fmt(), rng.randint(0, 6)
        add(["trace", _mono(k, k), *_fmt_args(f)], expect_terms(f, oracles.trace_closed_form(k), False))
        f, (p, q) = fmt(), _invariant(rng, 6)
        add(["trace", _mono(p, q), *_fmt_args(f)], expect_terms(f, oracles.invariant_trace(p, q), False))

        (p, q), f = _invariant(rng, 4), fmt()
        cert_path, bad_path = work / f"cert-{r}.json", work / f"tampered-{r}.json"
        trio = [cli_request(["certify", _mono(p, q)], _check_certificate(p, q, cert_path, bad_path))]
        for path, verdict in ((cert_path, True), (bad_path, False)):
            argv = ["certify", "--check", str(path), *_fmt_args(f)]
            label = "certificate" if verdict else "tampered certificate"
            req = cli_request(argv, expect_exit(0 if verdict else 1, f, verdict))
            req.key = _cli_key(["certify", "--check", f"<{label} of {_mono(p, q)}>", *_fmt_args(f)])
            trio.append(req)
        groups.append(trio)

        f, d = fmt(), rng.choice((2, 4))
        add(["hh0", "--degree", str(d), *_fmt_args(f)], _check_hh0(f, d))
        f, order = fmt(), rng.randint(1, 5)
        add(["chphi", "--order", str(order), *_fmt_args(f)], _check_chphi(f, order))

        f, n_pairs = fmt(), rng.randint(1, 3)
        argv = ["index", "--n", str(n_pairs)]
        for j in range(n_pairs - 1):
            argv += ["--rt", rng.choice(("0", f"R{j + 1}"))]
        argv += ["--theta", "T"] * (rng.random() < 0.7) + ["--rn", "N"] * (rng.random() < 0.7)
        add(argv + _fmt_args(f), expect_exit(0))

        f, n_pairs = fmt(), rng.randint(1, 2)
        base = f"p1^{rng.randint(0, 2)}*q1^{rng.randint(0, 2)}*" if n_pairs == 2 else ""
        c, d = _invariant(rng, 3)
        add(["localtrace", "--n", str(n_pairs), f"{base}z^{c}*zb^{d}", *_fmt_args(f)], expect_exit(0))

        f, suite = fmt(), rng.choice(LIGHT_SUITES)
        req = add(["verify", "--suite", suite, "--degree", "4", "--order", "3", *_fmt_args(f)],
                  _check_verify(f))
        req.digest_of = lambda out, key=req.key: {key: _sha(strip_wall(out))}

        for argv in rng.sample(MALFORMED, 2):
            add(argv, expect_exit(2))

        rng.shuffle(groups)
        rounds.append([req for group in groups for req in group])
    return rounds


# -- running -------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Proc:
    wall_s: float  # spawn to exit
    cpu_s: float  # user + system time of the process
    rss_kb: int
    code: int
    out: bytes
    err: bytes


def spawn(argv: list[str], timeout_s: float) -> Proc:
    """Run one process to its end, killing it after `timeout_s`."""
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Proc(elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode,
                    out, err.read())


def request_argv(req: Request, spans: Path | None, op_id: int) -> list[str]:
    if req.battery:
        extra = ["--spans", str(spans)] if spans else []
        return [sys.executable, *req.argv, *extra]
    if spans is None:
        return [sys.executable, "-c", LAUNCH, *req.argv]
    return [sys.executable, str(BENCH / "child.py"), "cli", "--spans", str(spans),
            "--op", str(op_id), "--", *req.argv]


def execute(req: Request, table: dict[str, str], deadline: float, spans: Path | None = None,
            op_id: int = 0) -> Outcome:
    timeout = max(1.0, deadline - time.perf_counter())
    start = time.perf_counter()
    proc = spawn(request_argv(req, spans, op_id), timeout)
    out = proc.out
    outcome = Outcome(req, proc)
    try:
        outcome.attempted, outcome.failed, outcome.error = req.check(proc.code, out, proc.err)
        outcome.digests = req.digest_of(out) if req.digest_of else {req.key: _sha(out)}
    except (ValueError, KeyError, TypeError, IndexError, UnicodeDecodeError) as exc:
        outcome.attempted, outcome.failed = max(outcome.attempted, 1), max(outcome.failed, 1)
        outcome.error = f"unreadable output: {type(exc).__name__}: {exc}"
    if not req.battery and outcome.failed == 0:
        recorded = table.get(req.key)
        if recorded is not None and recorded != outcome.digests.get(req.key):
            outcome.failed, outcome.error = 1, "output differs from the recorded digest"
    outcome.interval = (start, time.perf_counter())
    return outcome


class Reference:
    """Speed of the CPU the operations run on, sampled while they run.

    The CPU speed of a shared virtual machine drifts by tens of percent within
    seconds, for every process alike.  A thread of this process, pinned to the
    same CPU as the operations, times a fixed pure-Python Fraction loop,
    unrelated to dunklweyl, every PERIOD_S seconds, by its own CPU time so
    that waiting for the CPU does not count.  A duration is scaled by
    REFERENCE_NOMINAL_S over the median loop time sampled during it (and
    one period around it): it is reported as at the speed where the loop
    takes REFERENCE_NOMINAL_S.  Raw values go to the results file.
    """

    PERIOD_S = 0.25

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter, loop CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Reference":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        start = time.thread_time()
        acc = Fraction(0)
        for i in range(1, 500):
            acc += Fraction(i % 97, i % 13 + 1) * Fraction(i % 5 + 1, 3)
        self.samples.append((time.perf_counter(), time.thread_time() - start))

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self._sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a duration measured over [start, end] into one at
        nominal speed."""
        near = [r for t, r in list(self.samples) if start - self.PERIOD_S <= t <= end + self.PERIOD_S]
        if not near:
            near = [min(list(self.samples), key=lambda s: abs(s[0] - (start + end) / 2))[1]]
        return REFERENCE_NOMINAL_S / statistics.median(near)


def run_rounds(rounds: list[list[Request]], table: dict[str, str], seconds: float,
               t_start: float, ref: Reference) -> list[Outcome]:
    """Whole rounds, closed loop, until the next round would pass `seconds`
    of busy time (spawn, wait and check) at nominal speed, so that the number
    of rounds does not follow the machine's speed."""
    outcomes: list[Outcome] = []
    round_times: list[float] = []
    hard = t_start + HARD_STOP_S
    for rnd in rounds:
        if round_times and (sum(round_times) + statistics.fmean(round_times) > seconds
                            or time.perf_counter() > hard):
            break
        round_time = 0.0
        for req in rnd:
            outcome = execute(req, table, hard + 20)
            outcomes.append(outcome)
            round_time += (outcome.interval[1] - outcome.interval[0]) * ref.scale(*outcome.interval)
        round_times.append(round_time)
    return outcomes


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that has at
    least ten samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def spawn_median_ms(code: str, repeats: int = 5) -> float:
    times = [spawn([sys.executable, "-c", code], 60).wall_s for _ in range(repeats)]
    return 1000.0 * statistics.median(times)


def source_lines() -> dict[str, int]:
    pkg = SRC / "dunklweyl"
    lines = {f"{m}.lines": len((pkg / f"{m}.py").read_text().splitlines()) for m in MODULES}
    lines["dunklweyl.lines"] = sum(len(p.read_text().splitlines()) for p in pkg.glob("*.py"))
    return lines


# -- the run -------------------------------------------------------------------


def build(workload: str, seed: int, reduced: bool, table: dict[str, str]):
    if workload == "verify_all":
        return battery_rounds(seed, reduced, table)
    if workload == "deep_nf":
        return deep_rounds(seed, reduced)
    return cli_rounds(seed, reduced, WORK)


def setup(workload: str, seed: int, reduced: bool):
    """Inputs and expected values from the seed, the digest table, and one
    warm-up interpreter that imports the package; done five times.  Returns
    the inputs, the table and the interval of each set-up."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        rounds = build(workload, seed, reduced, table)
        warm = spawn([sys.executable, "-c", "import dunklweyl.cli, dunklweyl.suites"], 60)
        if warm.code != 0:
            raise RuntimeError(f"cannot import dunklweyl: {warm.err.decode(errors='replace')}")
        intervals.append((start, time.perf_counter()))
    return rounds, table, intervals


def summarize(outcomes: list[Outcome]) -> tuple[int, int, list[str]]:
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errors = [f"{o.request.key}: {o.error}" for o in outcomes if o.error]
    return attempted, failed, errors


def end_to_end(outcomes: list[Outcome], setup: list[tuple[float, float]],
               ref: Reference) -> tuple[dict, dict]:
    """Metrics at nominal speed, and the raw ones among the run's details."""
    attempted, failed, _ = summarize(outcomes)

    def measure(op_scales: list[float], setup_scales: list[float]):
        latencies = [o.proc.wall_s * f for o, f in zip(outcomes, op_scales)]
        busy = sum((o.interval[1] - o.interval[0]) * f for o, f in zip(outcomes, op_scales))
        value, pct, beyond = tail(latencies)
        return {
            "ops_per_s": (attempted - failed) / busy,
            "latency_p50_ms": 1000.0 * statistics.median(latencies),
            "latency_tail_ms": 1000.0 * value,
            "peak_rss_mb": max(o.proc.rss_kb for o in outcomes) / 1024.0,
            "setup_s": statistics.median((end - start) * f for (start, end), f in zip(setup, setup_scales)),
        }, pct, beyond

    metrics, pct, beyond = measure([ref.scale(*o.interval) for o in outcomes],
                                   [ref.scale(*interval) for interval in setup])
    raw, _, _ = measure([1.0] * len(outcomes), [1.0] * len(setup))
    info = {"latency_tail_percentile": pct, "latency_tail_samples_beyond": beyond,
            "latency_samples": len(outcomes), "raw_metrics": raw,
            "reference_samples": len(ref.samples),
            "reference_median_s": statistics.median(r for _t, r in ref.samples)}
    return metrics, info


def traced(workload: str, outcomes: list[Outcome], table: dict[str, str],
           t_start: float, ref: Reference) -> tuple[dict, dict, list[str]]:
    """Re-run the same requests with the tracer; per-layer metrics."""
    from tracer import layer_totals

    docs, problems, traced_outcomes = [], [], []
    for op_id, plain in enumerate(outcomes):
        spans = WORK / f"spans-{op_id}.json"
        o = execute(plain.request, table, t_start + HARD_STOP_S + 20, spans, op_id)
        traced_outcomes.append(o)
        # verify reports carry a wall time; their digests leave it out
        same = o.digests == plain.digests if plain.request.digest_of else o.proc.out == plain.proc.out
        if not same:
            problems.append(f"{plain.request.key}: traced output differs from untraced output")
        if spans.exists():
            docs.append(json.loads(spans.read_text()))
            spans.unlink()
        else:
            problems.append(f"{plain.request.key}: no spans written")
    totals = layer_totals(docs)
    metrics: dict[str, float] = {}
    for name, (calls, self_s) in LAYER_SPANS.items():
        cell = totals.get(name, {"calls": 0, "self_s": 0.0})
        if calls:
            metrics[f"{name}.calls"] = cell["calls"]
        if self_s:
            metrics[f"{name}.self_s"] = cell["self_s"]
    for name in LAYER_COUNTS:
        values = [d["counts"].get(name, 0) for d in docs]
        metrics[name] = max(values, default=0) if name == "scalars.max_coeff_bits" else sum(values)
    interpreter = spawn_median_ms("pass")
    metrics["cli.interpreter_ms"] = interpreter
    metrics["cli.import_ms"] = spawn_median_ms("import dunklweyl.cli") - interpreter
    metrics.update(source_lines())
    def nominal_wall(runs: list[Outcome]) -> float:
        return sum(o.proc.wall_s * ref.scale(*o.interval) for o in runs)

    metrics["tracing.overhead_s"] = nominal_wall(traced_outcomes) - nominal_wall(outcomes)
    traced_wall = sum(o.proc.wall_s for o in traced_outcomes)
    metrics["tracing.unattributed_s"] = traced_wall - sum(c["self_s"] for c in totals.values())
    for name in MUST_CALL[workload]:
        if totals.get(name, {}).get("calls", 0) == 0:
            problems.append(f"self-check: layer {name} shows no calls on {workload}")
    unwrapped = sorted({u for d in docs for u in d.get("unwrapped", [])})
    problems += [f"self-check: {u} could not be wrapped" for u in unwrapped]
    info = {"span_names": sorted(totals), "traced_ops": len(traced_outcomes)}
    return metrics, info, problems + summarize(traced_outcomes)[2]


def provenance(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dunklweyl").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "schema": "dunklweyl-bench/1",
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reduced": args.reduced,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=tuple(MUST_CALL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "dunklweyl" / "__init__.py").is_file():
        print(f"run.py: no dunklweyl sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and every child, so that the Reference loop
    # measures the CPU the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t_start = time.perf_counter()
    with Reference() as ref:
        rounds, table, setup_intervals = setup(args.workload, args.seed, args.reduced)
        if args.trace:
            rounds = rounds[:1 if args.reduced else TRACE_ROUNDS[args.workload]]
        seconds = float("inf") if args.trace else args.seconds
        outcomes = run_rounds(rounds, table, seconds, t_start, ref)
        if args.trace:
            metrics, info, problems = traced(args.workload, outcomes, table, t_start, ref)
            units = per_layer_names()
        else:
            metrics, info = end_to_end(outcomes, setup_intervals, ref)
            units, problems = END_TO_END, []
    attempted, failed, errors = summarize(outcomes)
    errors += problems
    result = provenance(args)
    result.update(ops=len(outcomes), attempted=attempted, failed=failed,
                  failed_frac=failed / attempted if attempted else 1.0)
    correct = attempted > 0 and failed == 0 and not errors
    result.update(info, correct=correct, errors=errors[:50], metrics=metrics,
                  requests=[{"key": o.request.key, "wall_ms": 1000 * o.proc.wall_s,
                             "cpu_ms": 1000 * o.proc.cpu_s, "rss_kb": o.proc.rss_kb,
                             "exit": o.proc.code, "failed": o.failed}
                            for o in outcomes],
                  digests={k: v for o in outcomes for k, v in o.digests.items()})
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-reduced' * args.reduced}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1, sort_keys=True))
    shutil.rmtree(WORK, ignore_errors=True)
    for e in errors[:20]:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
