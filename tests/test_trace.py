from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, gcd

from dunklweyl import trace
from dunklweyl.scalars import GaussianRational, ScalarPoly
from dunklweyl.spherical import InvariantPoly, invariant_monomials, star
from dunklweyl.trace import (
    ch_phi,
    class_scalar,
    phi,
    recursion_scalar,
    trace_defect,
)
from tests.conftest import h1_range, star_power

M = InvariantPoly.monomial


def ih1_times(rational_part: Fraction, h2_part: Fraction) -> ScalarPoly:
    """i*h1*(rational_part + h2_part * h2)."""
    return ScalarPoly(
        {
            (1, 0): GaussianRational.of(0, rational_part),
            (1, 1): GaussianRational.of(0, h2_part),
        }
    )


class TestPhi:
    def test_normalization(self):
        assert phi(InvariantPoly.one()) == ScalarPoly.one()

    def test_off_diagonal_vanishes(self):
        for p, q in ((2, 0), (0, 2), (3, 1), (1, 3), (4, 2), (5, 1)):
            assert phi(M(p, q)).is_zero()

    def test_zzb(self):
        assert phi(InvariantPoly.zzbar()) == ih1_times(Fraction(1, 2), Fraction(1))

    def test_z2zb2(self):
        # (i h1)^2 (1/2 + h2)(1 - 2 h2/3)
        want = ih1_times(Fraction(1, 2), Fraction(1)) * ih1_times(
            Fraction(1), Fraction(-2, 3)
        )
        assert phi(M(2, 2)) == want

    def test_linearity(self):
        rng = random.Random(0)
        for _ in range(20):
            a = ScalarPoly.monomial(
                GaussianRational.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3))),
                rng.randint(0, 1),
                rng.randint(0, 1),
            )
            b = ScalarPoly.from_rational(Fraction(rng.randint(-3, 3)))
            f, g = M(2, 2), InvariantPoly.zzbar()
            lhs = phi(f.scale(a) + g.scale(b))
            assert lhs == a * phi(f) + b * phi(g)

    def test_value_shape_for_degree_2d(self):
        # h1 exponents stay within 0..d and every term has h2 <= h1
        for m in invariant_monomials(12):
            value = phi(m)
            lo, hi = h1_range(value)
            assert lo >= 0 and hi <= m.degree() // 2
            assert all(b <= a for (a, b) in value.term_map())


class TestRecursionScalars:
    def test_frozen_values(self):
        expected = {
            1: (Fraction(1, 2), Fraction(1)),
            2: (Fraction(1), Fraction(-2, 3)),
            3: (Fraction(3, 2), Fraction(1)),
            4: (Fraction(2), Fraction(-4, 5)),
            5: (Fraction(5, 2), Fraction(1)),
            6: (Fraction(3), Fraction(-6, 7)),
        }
        for k, (const, lin) in expected.items():
            assert recursion_scalar(k) == ih1_times(const, lin), f"k={k}"

    def test_class_scalar_is_product(self):
        acc = ScalarPoly.one()
        for k in range(1, 7):
            acc = acc * recursion_scalar(k)
            assert class_scalar(k) == acc



def ref_step(l: int) -> ScalarPoly:
    """The l-th one-step scalar, built from Fractions here: the engine's class
    scalars used to be the ScalarPoly product of these."""
    return ih1_times(Fraction(l, 2), Fraction((1 if l % 2 else -1) * 2 * ((l + 1) // 2), l + 1))


class TestIntegerClassScalars:
    def test_agrees_with_scalar_product(self):
        want = ScalarPoly.one()
        for k in range(61):
            if k:
                want = want * ref_step(k)
            got = class_scalar(k)
            assert got == want and got.to_json() == want.to_json(), f"k={k}"
            for c in got.term_map().values():
                assert c._d > 0 and gcd(c._r, c._s, c._d) == 1
        series = ch_phi(60)
        assert series.coeffs[60] == want.scale(GaussianRational.of(Fraction(1, factorial(60))))

    def test_trace_module_keeps_no_table(self):
        # memory follows the answer: after large requests no module-level
        # container or cache of the trace layer holds more than a few entries
        class_scalar(200)
        phi(sum((M(k, k) for k in range(201)), InvariantPoly()))
        ch_phi(60)
        for name, value in vars(trace).items():
            if name.startswith("__"):
                continue
            if isinstance(value, (list, dict, set, tuple)):
                assert len(value) <= 4, name
            if hasattr(value, "cache_info"):
                assert value.cache_info().currsize <= 4, name

    def test_phi_reads_the_rows_once(self, monkeypatch):
        # one pass up to the largest diagonal degree: 60 steps, where a
        # stream restarted for each of the 61 terms would take 1,830
        f = sum((M(k, k) for k in range(61)), InvariantPoly())
        want = sum((class_scalar(k) for k in range(61)), ScalarPoly.zero())
        calls = []
        step = trace._step
        monkeypatch.setattr(trace, "_step", lambda l: calls.append(l) or step(l))
        assert phi(f) == want
        assert len(calls) <= 60

    def test_ch_phi_agrees_with_scaled_class_scalars(self):
        # ch_phi folds k! into the row denominator and reduces each coefficient
        # by a gcd against the row denominator, then one against k!; the old
        # path scaled each class scalar by 1/k!, one Gaussian rational product
        # per coefficient
        series = ch_phi(150)
        for k, got in enumerate(series.coeffs):
            want = class_scalar(k).scale(GaussianRational.of(Fraction(1, factorial(k))))
            assert got == want and got.to_json() == want.to_json(), f"k={k}"
            for c in got.term_map().values():
                assert c._d > 0 and gcd(c._r, c._s, c._d) == 1, f"k={k}"


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Product of two polynomials in h2, as coefficient lists."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def pochhammer_row(k: int) -> list[Fraction]:
    """Row k of the deformation-factor product in closed form, from rising factorials:
    row(2M) = 4^M (M!)^2 / (2M+1)! * (1/2 + h2)_M * (3/2 - h2)_M and
    row(2M+1) = row(2M) * (2M+1 + 2*h2) / 2."""
    m = k // 2
    row = [Fraction(4**m * factorial(m) ** 2, factorial(2 * m + 1))]
    for i in range(m):
        row = _poly_mul(row, [Fraction(1, 2) + i, Fraction(1)])
        row = _poly_mul(row, [Fraction(3, 2) + i, Fraction(-1)])
    if k % 2:
        row = _poly_mul(row, [Fraction(k, 2), Fraction(1)])
    return row


class TestClosedFormRows:
    def test_class_scalar_is_the_pochhammer_form(self):
        # an independent computation: neither the product stream nor the step factors
        i_powers = ((1, 0), (0, 1), (-1, 0), (0, -1))
        for k in range(61):
            re, im = i_powers[k % 4]
            want = ScalarPoly({(k, j): GaussianRational.of(re * c, im * c)
                               for j, c in enumerate(pochhammer_row(k)) if c})
            got = class_scalar(k)
            assert got == want and got.to_json() == want.to_json(), f"k={k}"

    def test_rows_need_no_row_gcd(self, monkeypatch):
        # the factors enter the row primitive, so by Gauss's lemma the row
        # stays primitive and only its rational content takes a gcd: a few
        # integers per step, where one gcd(den, *row) per step passed 20,500
        seen = []
        monkeypatch.setattr(trace, "gcd", lambda *ns: seen.append(len(ns)) or gcd(*ns))
        class_scalar(200)
        assert 0 < sum(seen) < 2000


class TestTraceDefect:
    def test_examples(self):
        assert trace_defect(M(2, 0), M(0, 2)).is_zero()
        assert trace_defect(M(2, 2), InvariantPoly.one()).is_zero()
        assert trace_defect(M(3, 1), M(1, 3)).is_zero()

    def test_small_sweep(self):
        for m1 in invariant_monomials(6):
            for m2 in invariant_monomials(6 - m1.degree()):
                assert trace_defect(m1, m2).is_zero()


class TestStarPower:
    def test_trivial_powers(self):
        zzb = InvariantPoly.zzbar()
        assert star_power(zzb, 0) == InvariantPoly.one()
        assert star_power(zzb, 1) == zzb
        assert star_power(zzb, 2) == star(zzb, zzb)


class TestChPhi:
    def test_first_coefficients(self):
        series = ch_phi(6)
        assert series.coeffs[0] == ScalarPoly.one()
        assert series.coeffs[1] == ih1_times(Fraction(1, 2), Fraction(1))

    def test_termwise_exponential_oracle(self):
        # coefficient of t^k equals phi((z zb)^k) / k! with plain powers:
        # the trace of the termwise exponential of t*z*zb
        series = ch_phi(6)
        fact = 1
        for k in range(7):
            if k:
                fact *= k
            oracle = phi(InvariantPoly.monomial(k, k)).scale(GaussianRational.of(Fraction(1, fact)))
            assert series.coeffs[k] == oracle, f"k={k}"

    def test_star_powers_differ_from_plain_powers(self):
        # The star square of z*zb is z^2 zb^2 - i h1 (1 - 2 h2) z zb, and its
        # trace is -(4/3) h1^2 h2 (1/2 + h2): NOT the closed-form coefficient.
        # This pins down why the character series is the trace of the
        # termwise exponential, not of the star exponential.
        zzb = InvariantPoly.zzbar()
        got = phi(star_power(zzb, 2))
        want = ScalarPoly.monomial(GaussianRational.of(Fraction(-4, 3)), 2, 1) * ScalarPoly(
            {(0, 0): GaussianRational.of(Fraction(1, 2)), (0, 1): GaussianRational.of(1)}
        )
        assert got == want
        assert got != phi(InvariantPoly.monomial(2, 2))
