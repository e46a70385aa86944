from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dunklweyl.index import a_hat_factor
from dunklweyl.scalars import (
    GaussianRational,
    NonInvertibleError,
    ScalarPoly,
    SeriesDomainError,
    TruncSeries,
    dot,
    series_exp,
    series_inverse,
    series_log,
    series_sqrt,
)
from tests.conftest import gaussian_rationals, scalar_from_json, scalar_polys


def sp(re, h1=0, h2=0, im=0):
    return ScalarPoly.monomial(GaussianRational.of(Fraction(re), Fraction(im)), h1, h2)


@dataclass(frozen=True)
class RefGaussianRational:
    """Reference Gaussian rational re + im*i on a pair of Fractions."""

    re: Fraction
    im: Fraction

    def __add__(self, other):
        return RefGaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return RefGaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return RefGaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        return RefGaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self):
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return RefGaussianRational(self.re / norm, -self.im / norm)

    def is_zero(self):
        return self.re == 0 and self.im == 0


# Small parts hit the equal-denominator and zero-part fast paths; wide ones
# exceed 2^64 in numerator and denominator.
wide_rationals = st.builds(
    Fraction,
    st.one_of(st.integers(-6, 6), st.integers(-(2**80), 2**80)),
    st.one_of(st.integers(1, 6), st.integers(1, 2**80)),
)


def assert_matches(got: GaussianRational, want: RefGaussianRational) -> None:
    r, s, d = got._r, got._s, got._d
    assert d > 0 and gcd(r, s, d) == 1, (r, s, d)
    assert (got.re, got.im) == (want.re, want.im)
    assert type(got.re) is Fraction and type(got.im) is Fraction


class TestGaussianRational:
    @given(wide_rationals, wide_rationals, wide_rationals, wide_rationals)
    def test_agrees_with_fraction_reference(self, ar, ai, br, bi):
        a, b = GaussianRational.of(ar, ai), GaussianRational.of(br, bi)
        ra, rb = RefGaussianRational(ar, ai), RefGaussianRational(br, bi)
        assert_matches(a, ra)
        assert_matches(a * b, ra * rb)
        assert_matches(-a, -ra)
        assert a.is_zero() == ra.is_zero()
        assert (a == b) == (ra == rb)
        if a == b:
            assert hash(a) == hash(b)
        if not ra.is_zero():
            assert_matches(a.inverse(), ra.inverse())
            assert_matches(b * a.inverse(), rb * ra.inverse())

    @given(wide_rationals, wide_rationals, wide_rationals, wide_rationals)
    def test_cancelled_sum_is_the_same_value(self, ar, ai, br, bi):
        a, b = GaussianRational.of(ar, ai), GaussianRational.of(br, bi)
        if not b.is_zero():  # the sums moved to TestScalarPolyAgainstReference
            back = (a * b) * b.inverse()
            assert back == a and hash(back) == hash(a)
        assert (a * GaussianRational.of(0)).is_zero()

    def test_equal_values_by_different_routes(self):
        half = GaussianRational.of(Fraction(1, 2))
        assert GaussianRational.of(Fraction(2, 4)) == half
        assert hash(GaussianRational.of(Fraction(2, 4))) == hash(half)
        third = GaussianRational.of(Fraction(1, 3), Fraction(-5, 6))
        back = third * GaussianRational.of(Fraction(1, 6), 7) * GaussianRational.of(Fraction(1, 6), 7).inverse()
        assert back == third and hash(back) == hash(third)
        assert {third: 1}[back] == 1
        assert (back._r, back._s, back._d) == (2, -5, 6)

    def test_boundary_types(self):
        with pytest.raises(TypeError):
            GaussianRational.of(1.5)
        with pytest.raises(TypeError):
            GaussianRational.of(0, "1")
        with pytest.raises(ZeroDivisionError):
            GaussianRational.of(0).inverse()
        assert GaussianRational.of(0, Fraction(-3, 9)).im == Fraction(-1, 3)

    def test_power_refuses_a_negative_exponent(self):
        # unchecked, f"{k:b}" would read the '-' as a bit and d**k would be a float
        two = GaussianRational.of(2)
        for k in (-1, -2, -7):
            with pytest.raises(ValueError, match="negative exponent"):
                two**k
        third = GaussianRational.of(Fraction(1, 3), 1)
        assert two**0 == GaussianRational.of(1) and third**1 == third
        assert third**3 == third * third * third and (third**3).parts() == (-26, 27, -2, 3)


# -- ScalarPoly against a Fraction reference ------------------------------------
# A reference scalar is a dict (h1, h2) -> nonzero RefGaussianRational; the
# engine's is Gaussian-integer pairs over one denominator.


def ref_clean(terms: dict) -> dict:
    return {hk: c for hk, c in terms.items() if not c.is_zero()}


def ref_plus(x: dict, y: dict, sign: int = 1) -> dict:
    out = dict(x)
    for hk, c in y.items():
        out[hk] = out.get(hk, RefGaussianRational(Fraction(0), Fraction(0))) + (c if sign == 1 else -c)
    return ref_clean(out)


def ref_times(x: dict, y: dict) -> dict:
    out: dict = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            hk = (a1 + a2, b1 + b2)
            out[hk] = out.get(hk, RefGaussianRational(Fraction(0), Fraction(0))) + c1 * c2
    return ref_clean(out)


def ref_of(x: ScalarPoly) -> dict:
    return {hk: RefGaussianRational(c.re, c.im) for hk, c in x.term_map().items()}


def assert_scalar_matches(got: ScalarPoly, want: dict) -> None:
    """got equals want, and its storage, the pairs under the one key (), is in
    lowest terms: d > 0, no zero pair, gcd(d, every r, every s) == 1 and zero
    has d == 1."""
    assert ref_of(got) == want
    d, pairs = got._d, got._terms.get((), {})
    assert list(got._terms) == ([()] if pairs else [])  # one key (), and zero is {}
    assert d > 0 and all(r or s for r, s in pairs.values())
    assert gcd(d, *(n for rs in pairs.values() for n in rs)) == 1
    assert pairs or d == 1


@st.composite
def wide_scalars(draw, max_terms=4):
    """(ScalarPoly, reference) over h1^-2..h1^2, h2^0..h2^2, with parts beyond 2^64."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        hk = (draw(st.integers(-2, 2)), draw(st.integers(0, 2)))
        terms[hk] = RefGaussianRational(draw(wide_rationals), draw(wide_rationals))
    poly = ScalarPoly({hk: GaussianRational.of(c.re, c.im) for hk, c in terms.items()})
    return poly, ref_clean(terms)


class TestScalarPolyAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(wide_scalars(), wide_scalars(), wide_rationals, wide_rationals)
    def test_ring_operations(self, a, b, cr, ci):
        (x, rx), (y, ry) = a, b
        assert_scalar_matches(x, rx)
        assert_scalar_matches(x + y, ref_plus(rx, ry))
        assert_scalar_matches(x - y, ref_plus(rx, ry, -1))
        assert_scalar_matches(-x, {hk: -c for hk, c in rx.items()})
        assert_scalar_matches(x * y, ref_times(rx, ry))
        c = RefGaussianRational(cr, ci)
        scaled = ref_times(rx, {} if c.is_zero() else {(0, 0): c})
        assert_scalar_matches(x.scale(GaussianRational.of(cr, ci)), scaled)
        assert_scalar_matches(x.subs_h2_zero(), {hk: c for hk, c in rx.items() if hk[1] == 0})

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(wide_scalars(), wide_scalars()), max_size=4))
    def test_dot(self, pairs):
        want: dict = {}
        for (_x, rx), (_y, ry) in pairs:
            want = ref_plus(want, ref_times(rx, ry))
        assert_scalar_matches(dot((x, y) for (x, _rx), (y, _ry) in pairs), want)

    @given(wide_rationals, wide_rationals, st.integers(-3, 3))
    def test_invert_monomial(self, re, im, h1):
        assume(re or im)
        x = ScalarPoly.monomial(GaussianRational.of(re, im), h1)
        assert_scalar_matches(x.invert_monomial(), {(-h1, 0): RefGaussianRational(re, im).inverse()})
        assert x * x.invert_monomial() == ScalarPoly.one()

    @settings(max_examples=100, deadline=None)
    @given(wide_scalars(), wide_scalars(), wide_scalars())
    def test_equal_values_by_different_routes(self, a, b, c):
        (x, _rx), (y, _ry), (z, _rz) = a, b, c
        routes = [
            ((x + y) - y, x),
            (x * (y + z), x * y + x * z),
            (dot([(x, y), (x, z)]), x * (y + z)),
            ((x - x) * y, ScalarPoly()),
        ]
        for got, want in routes:
            assert (got._terms, got._d) == (want._terms, want._d)
            assert got == want and hash(got) == hash(want)
        zero = x - x
        assert zero.is_zero() and (zero._terms, zero._d) == ({}, 1)

    def test_negative_h2_is_refused_even_with_a_zero_coefficient(self):
        for c in (GaussianRational.of(1), GaussianRational.of(0)):
            with pytest.raises(ValueError, match="h2 exponent must be non-negative"):
                ScalarPoly({(0, 0): GaussianRational.of(1), (0, -1): c})


class TestScalarPoly:
    def test_additive_cancellation(self):
        # (h1 + i*h1*h2) + (-h1) == i*h1*h2
        a = sp(1, 1) + sp(0, 1, 1, im=1)
        assert a + sp(-1, 1) == sp(0, 1, 1, im=1)

    def test_exponent_addition(self):
        assert ScalarPoly.h1(-1) * ScalarPoly.h1(2) == ScalarPoly.h1(1)

    def test_h2_product_expansion(self):
        # (1 + h2)(1 - 2/3 h2) == 1 + h2/3 - 2/3 h2^2
        lhs = (ScalarPoly.one() + ScalarPoly.h2()) * (
            ScalarPoly.one() + sp(Fraction(-2, 3), 0, 1)
        )
        want = ScalarPoly.one() + sp(Fraction(1, 3), 0, 1) + sp(Fraction(-2, 3), 0, 2)
        assert lhs == want

    def test_h2_product_against_naive_convolution(self):
        # cross-check the same product with plain Fraction convolution
        a, b = [Fraction(1), Fraction(1)], [Fraction(1), Fraction(-2, 3)]
        conv = [Fraction(0)] * 3
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                conv[i + j] += ca * cb
        lhs = (ScalarPoly.one() + ScalarPoly.h2()) * (
            ScalarPoly.one() + sp(Fraction(-2, 3), 0, 1)
        )
        want = ScalarPoly(
            {(0, k): GaussianRational.of(c) for k, c in enumerate(conv) if c != 0}
        )
        assert lhs == want

    def test_negative_h2_rejected(self):
        with pytest.raises(ValueError):
            ScalarPoly({(0, -1): GaussianRational.of(1)})

    def test_no_zero_terms_stored(self):
        a = sp(1, 1) - sp(1, 1)
        assert a.is_zero() and list(a.terms()) == []

    @given(scalar_polys(), scalar_polys(), scalar_polys())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a

    @given(scalar_polys(min_h1=0), scalar_polys(min_h1=0))
    def test_nonnegative_h1_closure(self, a, b):
        assert all(h1 >= 0 for h1, _h2 in (a * b).term_map())

    def test_invert_monomial(self):
        two_ih1 = ScalarPoly.monomial(GaussianRational.of(0, 2), 1, 0)
        inv = two_ih1.invert_monomial()
        assert two_ih1 * inv == ScalarPoly.one()
        with pytest.raises(NonInvertibleError):
            (ScalarPoly.one() + ScalarPoly.h2()).invert_monomial()
        with pytest.raises(NonInvertibleError):
            ScalarPoly.h2().invert_monomial()

    def test_json_roundtrip(self):
        a = sp(Fraction(-3, 2), -1, 2, im=Fraction(1, 3)) + sp(5, 2, 0)
        assert scalar_from_json(a.to_json()) == a


# -- reference series ---------------------------------------------------------
# Power sums: each reference builds successive powers of its argument and sums
# them with the Taylor coefficients of its function.  The engine instead builds
# each output coefficient from the ones before it, by a recurrence.


def ref_series_exp(s: TruncSeries) -> TruncSeries:
    result = TruncSeries.one(s.order)
    term = TruncSeries.one(s.order)
    for k in range(1, s.order + 1):
        term = (term * s).scale(ScalarPoly.from_rational(Fraction(1, k)))
        result = result + term
    return result


def ref_series_log(s: TruncSeries) -> TruncSeries:
    u = s - TruncSeries.one(s.order)
    result = TruncSeries([], s.order)
    power = TruncSeries.one(s.order)
    for k in range(1, s.order + 1):
        power = power * u
        sign = Fraction(1, k) if k % 2 == 1 else Fraction(-1, k)
        result = result + power.scale(ScalarPoly.from_rational(sign))
    return result


def ref_series_sqrt(s: TruncSeries) -> TruncSeries:
    u = s - TruncSeries.one(s.order)
    result = TruncSeries([], s.order)
    power = TruncSeries.one(s.order)
    for k in range(s.order + 1):
        half_binomial = Fraction(1)
        for j in range(k):
            half_binomial *= Fraction(1, 2) - j
        for j in range(1, k + 1):
            half_binomial /= j
        result = result + power.scale(ScalarPoly.from_rational(half_binomial))
        power = power * u
    return result


def ref_series_inverse(s: TruncSeries) -> TruncSeries:
    """s = c0*(1 + u) with c0 = s[0], so s^-1 = c0^-1 * sum_k (-u)^k."""
    c0_inv = s.coeffs[0].invert_monomial()
    minus_u = TruncSeries.one(s.order) - s.scale(c0_inv)
    result = TruncSeries([], s.order)
    power = TruncSeries.one(s.order)
    for _ in range(s.order + 1):
        result = result + power
        power = power * minus_u
    return result.scale(c0_inv)


@st.composite
def invertible_series(draw, max_order=8):
    """A series c0 + c_1 x + ... + c_n x^n whose c0 = c*h1^a is an invertible
    monomial other than 1."""
    c0 = ScalarPoly.monomial(draw(gaussian_rationals()), draw(st.integers(-2, 2)))
    assume(not c0.is_zero() and not c0.is_one())
    order = draw(st.integers(0, max_order))
    tail = draw(st.lists(scalar_polys(), min_size=order, max_size=order))
    return TruncSeries([c0, *tail], order)


@st.composite
def unit_series(draw, max_order=8):
    """A series 1 + c_1 x + ... + c_n x^n with n <= max_order."""
    order = draw(st.integers(0, max_order))
    tail = draw(st.lists(scalar_polys(), min_size=order, max_size=order))
    return TruncSeries([ScalarPoly.one(), *tail], order)


class TestSeriesAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(unit_series())
    def test_exp(self, s):
        u = s - TruncSeries.one(s.order)
        assert series_exp(u) == ref_series_exp(u)

    @settings(max_examples=40, deadline=None)
    @given(unit_series())
    def test_log(self, s):
        assert series_log(s) == ref_series_log(s)

    @settings(max_examples=40, deadline=None)
    @given(unit_series())
    def test_sqrt(self, s):
        assert series_sqrt(s) == ref_series_sqrt(s)

    @settings(max_examples=40, deadline=None)
    @given(invertible_series())
    def test_inverse(self, s):
        assert series_inverse(s) == ref_series_inverse(s)


# A dense series of order 16: every coefficient nonzero, so no pair is skipped.
DENSE = TruncSeries([ScalarPoly.one()] + [sp(k + 2, h2=k % 2) for k in range(16)], 16)
DENSE_ZERO_CONST = TruncSeries([ScalarPoly.zero(), *DENSE.coeffs[1:]], 16)


@pytest.mark.parametrize(
    "op, bound, exact",
    [
        (lambda: series_exp(DENSE_ZERO_CONST), 136, False),  # n(n+1)/2
        (lambda: series_log(DENSE), 120, False),  # n(n-1)/2
        (lambda: series_sqrt(DENSE), 120, False),
        (lambda: DENSE * DENSE, 153, True),
        (lambda: series_inverse(DENSE), 152, True),
        # inv_sinh_quotient(16) makes 52, then 17 coefficients times a running
        # power of h1 (16 steps); rebuilding each h1^k makes 205 in all
        (lambda: a_hat_factor(16), 52 + 17 + 16, True),
    ],
    ids=["exp", "log", "sqrt", "mul", "inverse", "scale_argument"],
)
def test_series_take_one_pass(monkeypatch, op, bound, exact):
    """Each output coefficient is one dot over the coefficients before it, and
    substituting c*x keeps a running power of c, so a series operation at
    order 16 makes O(n^2) ScalarPoly products; a power sum of whole series
    makes 985."""
    calls = []
    mul = ScalarPoly.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(ScalarPoly, "__mul__", counted)
    op()
    if exact:
        assert len(calls) == bound
    else:
        assert len(calls) <= bound


class TestSeries:
    def test_exp_of_zero(self):
        assert series_exp(TruncSeries([], 4)) == TruncSeries.one(4)

    def test_exp_of_x(self):
        got = series_exp(TruncSeries.x(3))
        want = TruncSeries(
            [ScalarPoly.one(), ScalarPoly.one(), sp(Fraction(1, 2)), sp(Fraction(1, 6))], 3
        )
        assert got == want

    def test_exp_of_x_is_the_exponential_series(self):
        got = series_exp(TruncSeries.x(30))
        assert got.order == 30
        assert got.coeffs == [sp(Fraction(1, factorial(k))) for k in range(31)]

    def test_exp_rejects_constant_term(self):
        with pytest.raises(SeriesDomainError):
            series_exp(TruncSeries.one(3))

    def test_log_exp_roundtrip(self):
        s = TruncSeries(
            [ScalarPoly.zero(), ScalarPoly.one(), ScalarPoly.one()], 4
        )  # x + x^2
        assert series_log(series_exp(s)) == s

    def test_sqrt_example(self):
        # sqrt(1 + 2x) at order 2 == 1 + x - x^2/2
        s = TruncSeries([ScalarPoly.one(), sp(2)], 2)
        got = series_sqrt(s)
        assert got == TruncSeries([ScalarPoly.one(), ScalarPoly.one(), sp(Fraction(-1, 2))], 2)
        assert got * got == s

    def test_sqrt_requires_unit_constant(self):
        with pytest.raises(SeriesDomainError):
            series_sqrt(TruncSeries([sp(2), sp(1)], 2))

    def test_inverse_geometric(self):
        s = TruncSeries([ScalarPoly.one(), sp(-1)], 3)  # 1 - x
        want = TruncSeries([ScalarPoly.one()] * 4, 3)
        assert series_inverse(s) == want

    def test_inverse_of_monomial_constant(self):
        # constant term 2*i*h1 is an invertible monomial
        s = TruncSeries([ScalarPoly.monomial(GaussianRational.of(0, 2), 1, 0), sp(1)], 3)
        assert s * series_inverse(s) == TruncSeries.one(3)

    def test_inverse_rejects_nonunit(self):
        with pytest.raises(NonInvertibleError):
            series_inverse(TruncSeries([ScalarPoly.h2(), sp(1)], 2))

    def test_truncation_discards_never_invents(self):
        a = TruncSeries([ScalarPoly.one(), sp(1)], 1)
        b = TruncSeries([ScalarPoly.one(), sp(1), sp(1)], 2)
        assert (a * b).order == 1

    def test_scale_argument(self):
        s = TruncSeries([ScalarPoly.one(), sp(1), sp(1)], 2)
        scaled = s.scale_argument(ScalarPoly.h1())
        assert scaled.coeffs[2] == ScalarPoly.h1(2)
