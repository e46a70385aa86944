"""Named verification suites with machine-readable reports.

Each suite is a generator of cases; a case compares an engine computation
against an expected canonical form (from the bundled data files where the
expected value is a concrete constant, structurally otherwise).  run_suite
checks every requested suite's configuration before any case runs; cases are
built as they run, so a run holds one case's inputs plus the finished Case
records.  A case that raises is a failed case.  Reports list the cases in
sorted case-id order, so identical configurations produce identical reports.
"""

from __future__ import annotations

import json
import random
import time
from importlib import resources
from typing import Callable, Iterable, Iterator, NamedTuple

from . import SUITE_NAMES, exprs
from .algebra import SrcElement, commutator, mul
from .hochschild import certify_monomial, check_report_degree
from .index import inv_sinh_quotient
from .scalars import ScalarPoly, TruncSeries, gaussian, series_exp, series_inverse, series_log, series_sqrt
from .spherical import InvariantPoly, euler_derivation, invariant_monomials, moyal_star, star, star_commutator
from .trace import ch_phi, phi, trace_defect

class RunConfig(NamedTuple):
    """Knobs shared by the CLI and the suites; defaults are deterministic.

    degree is read by the trace, hh0, degeneration and euler suites, order by
    chphi only and seed by series and roundtrip; series always runs at order 8,
    roundtrip at degree 8, and relations reads none.  Reports echo every knob.
    The report's config also carries "jobs": 1 and "h2_zero": false, fixed
    values kept so that dunkl-report/1 stays byte-identical.
    """

    fmt: str = "text"
    degree: int = 8
    order: int = 6
    seed: int = 0


# The acceptance battery, suite by suite: what scripts/run_verify.py and tests/test_acceptance.py run.
ACCEPTANCE = {
    "relations": RunConfig(degree=8), "trace": RunConfig(degree=12), "hh0": RunConfig(degree=12),
    "degeneration": RunConfig(degree=8), "euler": RunConfig(degree=10), "chphi": RunConfig(order=6),
    "series": RunConfig(order=8), "roundtrip": RunConfig(degree=8),
}


class Case(NamedTuple):
    id: str
    ok: bool
    expected: str
    actual: str


class Report(NamedTuple):
    suite: str
    cases: list[Case]
    wall_ms: float
    config: RunConfig

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.ok)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if not c.ok)

    @property
    def ok(self) -> bool:
        """True when at least one case ran and none failed."""
        return bool(self.cases) and self.failed == 0

    def to_json_dict(self) -> dict:
        return {
            "schema": "dunkl-report/1",
            "suite": self.suite,
            "config": {**self.config._asdict(), "jobs": 1, "h2_zero": False},
            "cases": [c._asdict() for c in self.cases],
            "passed": self.passed,
            "failed": self.failed,
            "wall_ms": self.wall_ms,
        }

    def to_json(self) -> str:
        return exprs.json_text(self.to_json_dict())

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: {self.passed}/{len(self.cases)} passed"]
        for c in self.cases:
            if c.ok:
                lines.append(f"  ok   {c.id}")
            else:
                lines.append(f"  FAIL {c.id}: expected {c.expected} ; got {c.actual}")
        lines.append(f"  wall {self.wall_ms:.1f} ms")
        return "\n".join(lines)


Thunk = Callable[[], tuple[bool, str, str]]
Work = Iterator[tuple[str, Thunk]]


def _load_data(name: str) -> dict:
    path = resources.files("dunklweyl").joinpath(f"data/suites/{name}")
    return json.loads(path.read_text())


def _eq_case(expected, actual) -> tuple[bool, str, str]:
    e, a = str(expected), str(actual)
    return e == a, e, a


# -- individual suites ----------------------------------------------------


def suite_relations(cfg: RunConfig) -> Work:
    """Defining relations and the commutator identities, from the data file."""
    data = _load_data("relations.json")
    for case in data["cases"]:
        cid, kind, args, expected = case["id"], case["op"], case["args"], case["expected"]

        def thunk(kind=kind, args=args, expected=expected) -> tuple[bool, str, str]:
            vals = [exprs.parse_element(a) for a in args]
            if kind == "comm":
                result = commutator(vals[0], vals[1])
            elif kind == "mul":
                result = mul(vals[0], vals[1])
            elif kind == "nf":
                result = vals[0]
            else:
                raise ValueError(f"unknown op {kind}")
            return _eq_case(expected, exprs.element_to_text(result))

        yield cid, thunk


def _pairs_total_degree(limit: int) -> Iterable[tuple[InvariantPoly, InvariantPoly]]:
    for m1 in invariant_monomials(limit):
        for m2 in invariant_monomials(limit - m1.degree()):
            yield m1, m2


def suite_trace(cfg: RunConfig) -> Work:
    """phi vanishes on star commutators: all pairs of total degree <= degree."""
    for m1, m2 in _pairs_total_degree(cfg.degree):
        cid = f"tracedefect[{m1.to_text()};{m2.to_text()}]"

        def thunk(m1=m1, m2=m2):
            return _eq_case("0", trace_defect(m1, m2).to_text())

        yield cid, thunk


def suite_hh0(cfg: RunConfig) -> Work:
    """Certificates replay exactly and their scalars equal phi."""
    for m in invariant_monomials(cfg.degree):
        ((p, q), _c), = m.terms()
        cid = f"hh0[z^{p}*zb^{q}]"

        def thunk(m=m):
            entry = certify_monomial(m)
            if not entry.checked:
                return False, "replay ok", "replay failed"
            return _eq_case(entry.phi, entry.scalar)

        yield cid, thunk


def suite_degeneration(cfg: RunConfig) -> Work:
    """star at h2=0 equals the closed-form product, each factor <= degree."""
    monos = invariant_monomials(cfg.degree)
    for m1 in monos:
        for m2 in monos:
            cid = f"degen[{m1.to_text()};{m2.to_text()}]"

            def thunk(m1=m1, m2=m2):
                lhs = star(m1, m2).subs_h2_zero()
                rhs = moyal_star(m1, m2)
                return _eq_case(rhs.to_text(), lhs.to_text())

            yield cid, thunk


def suite_euler(cfg: RunConfig) -> Work:
    """Rotation weights: [m, z*zb] under star is i*h1*(p-q)*m, and matches
    the closed-form derivation."""
    zzb = InvariantPoly.zzbar()
    for m in invariant_monomials(cfg.degree):
        ((p, q), _c), = m.terms()
        cid = f"euler[z^{p}*zb^{q}]"

        def thunk(m=m, p=p, q=q):
            got = star_commutator(m, zzb)
            want = m.scale(ScalarPoly.monomial(gaussian(0, p - q, 1), 1, 0))
            if euler_derivation(m) != want:
                return False, want.to_text(), euler_derivation(m).to_text()
            return _eq_case(want.to_text(), got.to_text())

        yield cid, thunk


def suite_chphi(cfg: RunConfig) -> Work:
    """Character series coefficients against the data file and against phi of
    the plain powers of z*zb (the termwise-exponential oracle)."""
    data = _load_data("chphi.json")
    series = ch_phi(cfg.order)
    fact = 1
    for k in range(cfg.order + 1):
        if k:
            fact *= k
        frozen = data["coefficients"][str(k)]
        cid_a = f"chphi-frozen[k={k}]"
        cid_b = f"chphi-oracle[k={k}]"

        def thunk_a(k=k, frozen=frozen):
            return _eq_case(frozen, series.coeffs[k].to_text())

        def thunk_b(k=k, fact=fact):
            oracle = phi(InvariantPoly.monomial(k, k)).scale(gaussian(1, 0, fact))
            return _eq_case(oracle.to_text(), series.coeffs[k].to_text())

        yield cid_a, thunk_a
        yield cid_b, thunk_b


def _random_scalar(rng: random.Random, allow_negative_h1: bool = False) -> ScalarPoly:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(-1 if allow_negative_h1 else 0, 2)
        b = rng.randint(0, 2)
        rn, rd = rng.randint(-4, 4), rng.randint(1, 3)
        sn, sd = rng.randint(-4, 4), rng.randint(1, 3)
        if rn == 0 and sn == 0:
            rn, rd = 1, 1
        terms[(a, b)] = gaussian(rn * sd, sn * rd, rd * sd)
    return ScalarPoly(terms)


def _random_element(rng: random.Random, max_degree: int = 8) -> SrcElement:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        p = rng.randint(0, max_degree)
        q = rng.randint(0, max_degree - p)
        eps = rng.randint(0, 1)
        terms[(p, q, eps)] = _random_scalar(rng, allow_negative_h1=True)
    return SrcElement(terms)


def _random_unit_series(rng: random.Random, order: int) -> TruncSeries:
    return TruncSeries([ScalarPoly.one()] + [_random_scalar(rng) for _ in range(order)], order)


def suite_series(cfg: RunConfig) -> Work:
    """Series layer: frozen inverse-sinh coefficients plus property oracles."""
    data = _load_data("series.json")
    order = 8
    quot = inv_sinh_quotient(order)
    for k_str, expected in sorted(data["inv_sinh_quotient"].items(), key=lambda kv: int(kv[0])):
        k = int(k_str)

        def thunk(k=k, expected=expected):
            return _eq_case(expected, quot.coeffs[k].to_text())

        yield f"series-invsinh[x^{k}]", thunk

    rng = random.Random(cfg.seed)
    for trial in range(6):
        s_unit = _random_unit_series(rng, order)
        zero_const = TruncSeries([ScalarPoly.zero()] + list(s_unit.coeffs[1:]), order)

        def sqrt_thunk(s=s_unit):
            r = series_sqrt(s)
            return (r * r == s), "sqrt(s)^2 == s", "mismatch"

        def exp_log_thunk(s=zero_const):
            return (series_log(series_exp(s)) == s), "log(exp(s)) == s", "mismatch"

        def inv_thunk(s=s_unit):
            return (s * series_inverse(s) == TruncSeries.one(order)), "s * inverse(s) == 1", "mismatch"

        yield f"series-sqrt[{trial}]", sqrt_thunk
        yield f"series-explog[{trial}]", exp_log_thunk
        yield f"series-inverse[{trial}]", inv_thunk


def suite_roundtrip(cfg: RunConfig) -> Work:
    """Parser round-trip on random engine elements plus algebra property
    checks (associativity and the Jacobi identity) on random triples."""
    rng = random.Random(cfg.seed)
    for trial in range(500):
        e = _random_element(rng)

        def thunk(e=e):
            text = exprs.element_to_text(e)
            back = exprs.parse_element(text)
            return (back == e), text, exprs.element_to_text(back)

        yield f"roundtrip[{trial:03d}]", thunk
    for trial in range(200):
        a = _random_element(rng, 8)
        b = _random_element(rng, 8)
        c = _random_element(rng, 8)

        def assoc_thunk(a=a, b=b, c=c):
            return (mul(mul(a, b), c) == mul(a, mul(b, c))), "(a*b)*c == a*(b*c)", "mismatch"

        yield f"assoc[{trial:03d}]", assoc_thunk
    for trial in range(20):
        a = _random_element(rng, 4)
        b = _random_element(rng, 4)
        c = _random_element(rng, 4)

        def jacobi_thunk(a=a, b=b, c=c):
            total = (
                commutator(a, commutator(b, c))
                + commutator(b, commutator(c, a))
                + commutator(c, commutator(a, b))
            )
            return total.is_zero(), "0", exprs.element_to_text(total)

        yield f"jacobi[{trial:02d}]", jacobi_thunk


# The runner table, in the order of the CLI's --suite choices.
_SUITES: dict[str, Callable[[RunConfig], Work]] = {name: globals()[f"suite_{name}"] for name in SUITE_NAMES}


def _run_case(case_id: str, thunk: Thunk) -> Case:
    try:
        ok, expected, actual = thunk()
    except Exception as exc:  # a crash is a failure, not an abort
        ok, expected, actual = False, "(no error)", f"{type(exc).__name__}: {exc}"
    return Case(id=case_id, ok=ok, expected=expected, actual=actual)


def _check_config(names: list[str], cfg: RunConfig) -> None:
    """Refuse a configuration that one of the named suites cannot run: hh0
    above its degree cap, chphi beyond the largest k in its data file."""
    if "hh0" in names:
        check_report_degree(cfg.degree - cfg.degree % 2)
    if "chphi" in names:
        top = max(int(k) for k in _load_data("chphi.json")["coefficients"])
        if cfg.order > top:
            raise ValueError(f"chphi order capped at {top}, the largest k in its data file")


def run_suite(name: str, cfg: RunConfig) -> Report:
    """Run one named suite, or every suite when name is 'all'.

    Every requested suite's configuration is checked before any case runs, so
    a refusal (the hh0 degree cap, the chphi order cap) stops the run before
    work starts; cases are built as they run.
    """
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    names = list(_SUITES) if name == "all" else [name]
    _check_config(names, cfg)
    start = time.perf_counter()
    work = ((f"{sub}:{cid}" if name == "all" else cid, thunk)
            for sub in names for cid, thunk in _SUITES[sub](cfg))
    cases = sorted((_run_case(cid, thunk) for cid, thunk in work), key=lambda c: c.id)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return Report(suite=name, cases=cases, wall_ms=wall_ms, config=cfg)
