"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 6 is asserted in its literal star-power form and is an
expected failure: the closed-form character coefficients provably equal the
trace of the plain (termwise) powers of z*zb, not of its star powers; the
star-power comparison diverges from k = 2 on.  See test_trace.py's
test_star_powers_differ_from_plain_powers for the computed gap.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from dunklweyl.algebra import SrcElement, commutator, mul
from dunklweyl.exprs import element_to_text, parse_element
from dunklweyl.hochschild import check_certificate, reduce_certificate
from dunklweyl.index import (
    FormPoly,
    LocalElement,
    ch_exp,
    index_form,
    inv_sinh_quotient,
    local_star,
    local_trace_density,
)
from dunklweyl.scalars import (
    GaussianRational,
    ScalarPoly,
    TruncSeries,
    series_exp,
    series_inverse,
    series_log,
    series_sqrt,
)
from dunklweyl.spherical import (
    InvariantPoly,
    euler_derivation,
    invariant_monomials,
    moyal_star,
    star,
    star_commutator,
)
from dunklweyl.suites import ACCEPTANCE, _random_element, _random_unit_series, run_suite
from dunklweyl.trace import ch_phi, phi, recursion_scalar, trace_defect
from tests.conftest import star_power


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_relation_suite():
    start = time.perf_counter()
    rep = run_suite("relations", ACCEPTANCE["relations"])
    elapsed = time.perf_counter() - start
    ok = rep.ok and elapsed < 1.0
    report(1, ok, f"relation identities, {rep.passed}/{len(rep.cases)} in {elapsed:.3f}s")
    assert rep.ok
    assert elapsed < 1.0


def test_criterion_2_trace_property_degree_12():
    degree = ACCEPTANCE["trace"].degree
    count = 0
    for m1 in invariant_monomials(degree):
        for m2 in invariant_monomials(degree - m1.degree()):
            count += 1
            defect = trace_defect(m1, m2)
            assert defect.is_zero(), (m1.to_text(), m2.to_text(), defect.to_text())
    report(2, True, f"trace vanishes on {count} commutator pairs (total degree <= {degree})")


def test_criterion_3_certificates_degree_12():
    frozen = {
        1: (Fraction(1, 2), Fraction(1)),
        2: (Fraction(1), Fraction(-2, 3)),
        3: (Fraction(3, 2), Fraction(1)),
        4: (Fraction(2), Fraction(-4, 5)),
        5: (Fraction(5, 2), Fraction(1)),
        6: (Fraction(3), Fraction(-6, 7)),
    }
    for k, (const, lin) in frozen.items():
        want = ScalarPoly(
            {(1, 0): GaussianRational.of(0, const), (1, 1): GaussianRational.of(0, lin)}
        )
        assert recursion_scalar(k) == want, f"step scalar k={k}"
    n = 0
    for m in invariant_monomials(ACCEPTANCE["hh0"].degree):
        ((p, q), _c), = m.terms()
        cert = reduce_certificate(p, q)
        assert check_certificate(cert), m.to_text()
        assert cert.scalar == phi(m), m.to_text()
        n += 1
    report(3, True, f"{n} certificates replay exactly and match the closed-form trace")


def test_criterion_4_degeneration_degree_8():
    monos = invariant_monomials(ACCEPTANCE["degeneration"].degree)
    count = 0
    for m1 in monos:
        for m2 in monos:
            count += 1
            assert star(m1, m2).subs_h2_zero() == moyal_star(m1, m2)
    report(4, True, f"h2->0 star equals the closed-form Weyl product on {count} pairs")


def test_criterion_5_rotation_weights_degree_10():
    zzb = InvariantPoly.zzbar()
    count = 0
    degree = ACCEPTANCE["euler"].degree
    for m in invariant_monomials(degree):
        ((p, q), _c), = m.terms()
        want = m.scale(ScalarPoly.monomial(GaussianRational.of(0, p - q), 1, 0))
        assert star_commutator(m, zzb) == want, m.to_text()
        assert euler_derivation(m) == want, m.to_text()
        count += 1
    report(5, True, f"i*h1*(p-q) rotation weight on {count} monomials (degree <= {degree})")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: the closed-form character coefficients equal "
        "the trace of plain powers of z*zb (verified by the companion test), "
        "not of its star powers; the two sides differ from k = 2 on"
    ),
)
def test_criterion_6_character_vs_star_powers_as_stated():
    order = ACCEPTANCE["chphi"].order
    series = ch_phi(order)
    zzb = InvariantPoly.zzbar()
    fact = 1
    mismatches = []
    for k in range(order + 1):
        if k:
            fact *= k
        oracle = phi(star_power(zzb, k)).scale(GaussianRational.of(Fraction(1, fact)))
        if series.coeffs[k] != oracle:
            mismatches.append(k)
    report(6, not mismatches, f"star-power oracle, k<={order} (mismatch at k={mismatches})")
    assert not mismatches, f"closed form != star-power trace at k={mismatches}"


def test_criterion_6_character_vs_plain_powers():
    # the reading under which the closed form is exact: phi applied to the
    # termwise exponential of t*z*zb
    order = ACCEPTANCE["chphi"].order
    series = ch_phi(order)
    fact = 1
    for k in range(order + 1):
        if k:
            fact *= k
        oracle = phi(InvariantPoly.monomial(k, k)).scale(GaussianRational.of(Fraction(1, fact)))
        assert series.coeffs[k] == oracle, f"k={k}"
    report(6, True, f"character coefficients equal phi of plain powers / k! (k <= {order})")


def test_criterion_7_series_layer():
    quot = inv_sinh_quotient(8)
    assert quot.coeffs[2] == ScalarPoly.from_rational(Fraction(-1, 24))
    assert quot.coeffs[4] == ScalarPoly.from_rational(Fraction(7, 5760))
    rng = random.Random(0)
    order = ACCEPTANCE["series"].order
    for _ in range(8):
        s = _random_unit_series(rng, order)
        assert series_sqrt(s) * series_sqrt(s) == s
        assert s * series_inverse(s) == TruncSeries.one(order)
        z = TruncSeries([ScalarPoly.zero()] + list(s.coeffs[1:]), order)
        assert series_log(series_exp(z)) == z
    report(7, True, f"inverse-sinh coefficients -1/24 and 7/5760; property oracles at order {order}")


def test_criterion_8_index_form():
    assert index_form([], None, None, 1) == FormPoly.one(0)
    theta = FormPoly.symbol("T", 2)
    assert index_form([None], theta, None, 2) == theta.scale(ScalarPoly.from_rational(-1))
    rn = FormPoly.symbol("N", 2)
    want = rn.scale(
        ScalarPoly(
            {(1, 0): GaussianRational.of(0, Fraction(1, 2)), (1, 1): GaussianRational.of(0, 1)}
        )
    )
    assert index_form([None], None, rn, 2) == want
    u, v = FormPoly.symbol("U", 8), FormPoly.symbol("V", 8)
    assert ch_exp(u + v, ScalarPoly.one()) == ch_exp(u, ScalarPoly.one()) * ch_exp(
        v, ScalarPoly.one()
    )
    report(8, True, "index form at n=1,2 and multiplicative exponentials")


def test_criterion_9_local_trace_density():
    rng = random.Random(42)
    monos = invariant_monomials(6)
    cases = 0
    for n in (2, 3):
        for _ in range(10):
            base = LocalElement.base_monomial(
                {v: rng.randint(0, 2) for v in range(2 * (n - 1))}
            )
            g = monos[rng.randrange(len(monos))]
            F = local_star(base, LocalElement.from_fiber(g.to_element()))
            assert local_trace_density(F) == base.scale(phi(g))
            cases += 1
    one = LocalElement.base_monomial({})
    assert local_trace_density(one) == one
    for _ in range(10):
        f = monos[rng.randrange(len(monos))]
        g = monos[rng.randrange(len(monos))]
        F, G = LocalElement.from_fiber(f.to_element()), LocalElement.from_fiber(g.to_element())
        assert local_trace_density(local_star(F, G) - local_star(G, F)).is_zero()
    report(9, True, f"{cases} factorized product cases at n=2,3; fiber commutators vanish")


def test_criterion_10_roundtrip_and_associativity():
    rng = random.Random(0)
    for _ in range(500):
        e = _random_element(rng)
        assert parse_element(element_to_text(e)) == e
    for _ in range(200):
        a, b, c = (_random_element(rng, 8) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
    report(10, True, "500 parser round-trips and 200 exact associativity triples")
