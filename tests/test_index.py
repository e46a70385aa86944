from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from dunklweyl.algebra import SrcElement
from dunklweyl.index import (
    FormPoly,
    LocalElement,
    a_hat_factor,
    ch_exp,
    ch_phi_form,
    eval_series_at_form,
    index_form,
    inv_sinh_quotient,
    local_star,
    local_trace_density,
)
from dunklweyl.scalars import GaussianRational, ScalarPoly, TruncSeries
from dunklweyl.spherical import InvariantPoly, ParityError, invariant_monomials, star_commutator
from dunklweyl.trace import phi, step_factor


def rat(x):
    return ScalarPoly.from_rational(Fraction(x))


def akiyama_tanigawa(n: int) -> list[Fraction]:
    """The Bernoulli numbers B_0 .. B_n (with B_1 = +1/2) by the Akiyama-Tanigawa algorithm."""
    out, row = [], []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def fiber_part(le: LocalElement) -> SrcElement:
    """The fiber element of a base-free local element."""
    out = {}
    for (base, p, q, eps), c in le.term_map().items():
        assert not base, "element has base variables"
        out[(p, q, eps)] = c
    return SrcElement(out)


class TestAHat:
    def test_constant_term(self):
        assert inv_sinh_quotient(6).coeffs[0] == ScalarPoly.one()

    def test_frozen_coefficients(self):
        series = inv_sinh_quotient(8)
        assert series.coeffs[2] == rat(Fraction(-1, 24))
        assert series.coeffs[4] == rat(Fraction(7, 5760))
        assert series.coeffs[1].is_zero() and series.coeffs[3].is_zero()

    def test_coefficients_are_the_bernoulli_closed_form(self):
        # (x/2)/sinh(x/2) = sum_n (2^(1-2n) - 1) * B_(2n) / (2n)! * x^(2n)
        bernoulli = akiyama_tanigawa(40)
        assert bernoulli[:5] == [1, Fraction(1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]
        series = inv_sinh_quotient(40)
        assert series.order == 40
        for k, c in enumerate(series.coeffs):
            want = 0 if k % 2 else (Fraction(2) ** (1 - k) - 1) * bernoulli[k] / factorial(k)
            assert c == rat(want), k

    def test_inverse_law(self):
        # multiply back by sinh(x/2)/(x/2) and recover 1
        order = 8
        coeffs = [ScalarPoly.zero() for _ in range(order + 1)]
        m = 0
        while 2 * m <= order:
            fact = 1
            for j in range(2, 2 * m + 2):
                fact *= j
            coeffs[2 * m] = rat(Fraction(1, 4**m * fact))
            m += 1
        quotient = TruncSeries(coeffs, order)
        assert inv_sinh_quotient(order) * quotient == TruncSeries.one(order)

    def test_h1_scaling(self):
        s = a_hat_factor(4)
        assert s.coeffs[2] == ScalarPoly.h1(2).scale(GaussianRational.of(Fraction(-1, 24)))


class TestFormCalculus:
    def test_ch_exp_zero(self):
        assert ch_exp(FormPoly({}, 4), ScalarPoly.one()) == FormPoly.one(4)

    def test_ch_exp_theta_over_h1(self):
        theta = FormPoly.symbol("T", 4)
        got = ch_exp(theta, -ScalarPoly.h1(-1))
        want = (
            FormPoly.one(4)
            + theta.scale(-ScalarPoly.h1(-1))
            + (theta * theta).scale(ScalarPoly.h1(-2).scale(GaussianRational.of(Fraction(1, 2))))
        )
        assert got == want

    def test_ch_exp_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            ch_exp(FormPoly.one(4), ScalarPoly.one())

    def test_ch_exp_multiplicative(self):
        u = FormPoly.symbol("U", 8)
        v = FormPoly.symbol("V", 8)
        lhs = ch_exp(u + v, ScalarPoly.one())
        rhs = ch_exp(u, ScalarPoly.one()) * ch_exp(v, ScalarPoly.one())
        assert lhs == rhs

    def test_ch_phi_form_low_degrees(self):
        rn = FormPoly.symbol("N", 4)
        got = ch_phi_form(rn, 4)
        deg0 = got.degree_component(0)
        assert deg0 == FormPoly.one(4)
        # degree2: i*(1/2 + h2) * N
        want2 = rn.scale(
            ScalarPoly(
                {
                    (0, 0): GaussianRational.of(0, Fraction(1, 2)),
                    (0, 1): GaussianRational.of(0, 1),
                }
            )
        )
        assert got.degree_component(2) == want2

    def test_ch_phi_form_h2_zero_matches_plain_powers(self):
        # at h2 = 0 the coefficient of N^k collapses to (i/2)^k
        rn = FormPoly.symbol("N", 8)
        got = ch_phi_form(rn, 8).subs_h2_zero()
        i_half = GaussianRational.of(0, Fraction(1, 2))
        acc = GaussianRational.of(1)
        for k in range(5):
            c = got.coefficient((("N", k),) if k else ())
            assert c == ScalarPoly.monomial(acc), f"k={k}"
            acc = acc * i_half


# -- reference genus factors -------------------------------------------------
# The loops the engine used before both factors went through the shared power
# sum: a term recurrence for the exponential and a running product of step
# factors for the character genus.  Neither calls eval_series_at_form.


def ref_ch_exp(symbol: FormPoly, scale: ScalarPoly) -> FormPoly:
    out = FormPoly.one(symbol.max_form_degree)
    term = FormPoly.one(symbol.max_form_degree)
    scaled = symbol.scale(scale)
    for k in range(1, symbol.max_form_degree // 2 + 1):
        term = (term * scaled).scale(ScalarPoly.from_rational(Fraction(1, k)))
        out = out + term
    return out


def ref_ch_phi_form(rn: FormPoly | None, max_form_degree: int) -> FormPoly:
    if rn is None or rn.is_zero():
        return FormPoly.one(max_form_degree)
    out = FormPoly.one(max_form_degree)
    power = FormPoly.one(max_form_degree)
    prod = ScalarPoly.one()
    i_pow = GaussianRational.of(1)
    for k in range(1, max_form_degree // 2 + 1):
        power = power * rn
        prod = prod * step_factor(k)
        i_pow = i_pow * GaussianRational.of(0, 1)
        coeff = prod.scale(i_pow).scale(GaussianRational.of(Fraction(1, factorial(k))))
        out = out + power.scale(coeff)
    return out


def two_symbol_form(max_form_degree: int) -> FormPoly:
    """N + (2 + h2)*M: two symbols, so powers have mixed terms."""
    n = FormPoly.symbol("N", max_form_degree)
    m = FormPoly.symbol("M", max_form_degree)
    return n + m.scale(rat(2) + ScalarPoly.h2())


class TestGenusFactorsAgainstReference:
    @pytest.mark.parametrize("d", range(0, 21, 2))
    def test_ch_exp(self, d):
        for symbol, scale in (
            (FormPoly.symbol("T", d), -ScalarPoly.h1(-1)),
            (two_symbol_form(d), ScalarPoly.i() + ScalarPoly.h1()),
        ):
            got, want = ch_exp(symbol, scale), ref_ch_exp(symbol, scale)
            assert got == want
            assert got.max_form_degree == want.max_form_degree == d

    @pytest.mark.parametrize("d", range(0, 21, 2))
    def test_ch_phi_form(self, d):
        # rn truncated at d itself, and at a larger and a smaller degree
        for rn_degree in sorted({d, 20, max(d - 2, 0)}):
            rn = two_symbol_form(rn_degree)
            got, want = ch_phi_form(rn, d), ref_ch_phi_form(rn, d)
            assert got == want
            assert got.max_form_degree == want.max_form_degree
        assert ch_phi_form(None, d) == FormPoly.one(d)

    def test_ch_phi_form_rejects_degree_zero(self):
        # like ch_exp: a degree-0 part would make the genus an infinite sum
        rn = FormPoly.symbol("N", 4) + FormPoly.one(4)
        with pytest.raises(ValueError):
            ch_phi_form(rn, 4)


class TestIndexForm:
    def test_n1_is_one(self):
        assert index_form([], None, None, 1) == FormPoly.one(0)

    def test_n2_pure_normal_genus(self):
        rn = FormPoly.symbol("N", 2)
        got = index_form([None], None, rn, 2)
        want = rn.scale(
            ScalarPoly(
                {
                    (1, 0): GaussianRational.of(0, Fraction(1, 2)),
                    (1, 1): GaussianRational.of(0, 1),
                }
            )
        )
        assert got == want

    def test_n2_pure_central(self):
        theta = FormPoly.symbol("T", 2)
        got = index_form([None], theta, None, 2)
        assert got == theta.scale(ScalarPoly.from_rational(-1))

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            index_form([], None, None, 0)

    def test_rt_count_checked(self):
        with pytest.raises(ValueError):
            index_form([], None, None, 2)

    def test_n3_mixed_degree4(self):
        # every degree-4 coefficient of h1^2 * ahat(R) exp(-T/h1) genus(N),
        # expanded by hand
        rt = FormPoly.symbol("R", 4)
        theta = FormPoly.symbol("T", 4)
        rn = FormPoly.symbol("N", 4)
        got = index_form([rt, None], theta, rn, 3)
        half_plus_h2 = ScalarPoly(
            {(0, 0): GaussianRational.of(Fraction(1, 2)), (0, 1): GaussianRational.of(1)}
        )
        one_minus = ScalarPoly(
            {(0, 0): GaussianRational.of(1), (0, 1): GaussianRational.of(Fraction(-2, 3))}
        )
        assert got.coefficient((("T", 2),)) == rat(Fraction(1, 2))
        assert got.coefficient((("R", 1), ("T", 1))).is_zero()
        assert got.coefficient((("R", 2),)) == ScalarPoly.h1(4).scale(
            GaussianRational.of(Fraction(-1, 24))
        )
        # T*N: h1^2 * (-1/h1) * i*(1/2 + h2) = -i*h1*(1/2 + h2)
        assert got.coefficient((("N", 1), ("T", 1))) == ScalarPoly.monomial(
            GaussianRational.of(0, -1), 1, 0
        ) * half_plus_h2
        # N^2: h1^2 * (i^2/2) * (1/2 + h2)(1 - 2 h2/3)
        assert got.coefficient((("N", 2),)) == ScalarPoly.monomial(
            GaussianRational.of(Fraction(-1, 2)), 2, 0
        ) * half_plus_h2 * one_minus


class TestLocalModel:
    def test_base_weyl_relation(self):
        p1 = LocalElement.base_var("p", 1)
        q1 = LocalElement.base_var("q", 1)
        got = local_star(p1, q1) - local_star(q1, p1)
        assert got == LocalElement.base_monomial({}, ScalarPoly.h1())

    def test_unit(self):
        F = local_star(
            LocalElement.base_var("p", 1, 2), LocalElement.from_fiber(InvariantPoly.zzbar().to_element())
        )
        one = LocalElement.base_monomial({})
        assert local_star(F, one) == F
        assert local_star(one, F) == F

    def test_base_only_matches_reference_weyl(self):
        # independent check of the base product on a hand-expanded case:
        # (p1 q1) * (p1 q1) = p1^2 q1^2 + h1 p1 q1 ... with symmetric ordering
        p1q1 = LocalElement.base_monomial({0: 1, 1: 1})
        got = local_star(p1q1, p1q1)
        # exp expansion: a=b=1 terms etc.; reference computed by hand:
        # (pq)*(pq) = p^2q^2 + (h1/2)(pq - qp cross terms) ... = p^2 q^2 - h1^2/4
        want = (
            LocalElement.base_monomial({0: 2, 1: 2})
            + LocalElement.base_monomial({}, ScalarPoly.h1(2).scale(GaussianRational.of(Fraction(-1, 4))))
        )
        assert got == want

    def test_local_star_makes_no_element_and_no_mul(self, monkeypatch):
        from dunklweyl import algebra, exprs

        F = exprs.eval_local(exprs.parse("(p1 + 2/3*h2*q2)*z*zb + g*p2^2*q1 - i*z^2*g + q1*q2*zb^3"), 2)
        G = exprs.eval_local(exprs.parse("p1*q1*zb^2 + (1 - h2)*g*z + p2*z*zb*q2 + 5*h1"), 2)
        F = F + F.scale(ScalarPoly.h1(-1)) * LocalElement.base_var("q", 1)
        want = [local_star(F, G), local_star(G, F), local_star(F, F)]

        def refuse(*_args, **_kwargs):
            raise AssertionError("local_star left the one product kernel")

        monkeypatch.setattr(algebra, "mul", refuse)
        monkeypatch.setattr(SrcElement, "monomial", refuse)
        assert [local_star(F, G), local_star(G, F), local_star(F, F)] == want
        assert not want[0].is_zero()

    def test_local_star_builds_each_base_pairs_weights_once(self, monkeypatch):
        from dunklweyl import exprs, index

        F = exprs.eval_local(exprs.parse("(p1 + q1 + z*zb + p2*q2)^3"), 2)
        G = exprs.eval_local(exprs.parse("(q1 + g*z + p1*zb*q2)^2"), 2)
        want = local_star(F, G)
        calls, base_weights = [], index._base_weights

        def counted(b1, b2, den):
            calls.append((b1, b2))
            return base_weights(b1, b2, den)

        monkeypatch.setattr(index, "_base_weights", counted)
        assert local_star(F, G) == want
        # one call per pair of base monomials, not one per pair of terms
        pairs = {(k1[0], k2[0]) for k1 in F.term_map() for k2 in G.term_map()}
        assert sorted(calls) == sorted(pairs)
        assert len(calls) < len(F.term_map()) * len(G.term_map())

    def test_fiber_only_matches_star_after_fold(self):
        from dunklweyl.index import fiber_fold
        from dunklweyl.spherical import star

        rng = random.Random(3)
        monos = invariant_monomials(6)
        for _ in range(15):
            f = monos[rng.randrange(len(monos))]
            g = monos[rng.randrange(len(monos))]
            F = LocalElement.from_fiber(f.to_element())
            G = LocalElement.from_fiber(g.to_element())
            folded = fiber_part(fiber_fold(local_star(F, G)))
            assert InvariantPoly.from_element(folded) == star(f, g)

    def test_trace_density_of_one(self):
        one = LocalElement.base_monomial({})
        assert local_trace_density(one) == one

    def test_trace_density_factorizes(self):
        rng = random.Random(5)
        monos = invariant_monomials(6)
        for n in (2, 3):
            for _ in range(10):
                base_exps = {
                    v: rng.randint(0, 2) for v in range(2 * (n - 1))
                }
                base = LocalElement.base_monomial(base_exps)
                g = monos[rng.randrange(len(monos))]
                F = local_star(base, LocalElement.from_fiber(g.to_element()))
                assert local_trace_density(F) == base.scale(phi(g))

    def test_trace_density_kills_fiber_commutators(self):
        rng = random.Random(7)
        monos = invariant_monomials(6)
        for _ in range(10):
            f = monos[rng.randrange(len(monos))]
            g = monos[rng.randrange(len(monos))]
            F = LocalElement.from_fiber(f.to_element())
            G = LocalElement.from_fiber(g.to_element())
            comm = local_star(F, G) - local_star(G, F)
            assert local_trace_density(comm).is_zero()
            # the same fact seen through the spherical engine
            assert phi(star_commutator(f, g)).is_zero()

    def test_parity_guard(self):
        bad = LocalElement.from_fiber(
            InvariantPoly.zzbar().to_element()
        ) + LocalElement({((), 1, 0, 0): ScalarPoly.one()})
        with pytest.raises(ParityError):
            local_trace_density(bad)
