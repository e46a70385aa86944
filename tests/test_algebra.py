from __future__ import annotations

import random
from fractions import Fraction

from dunklweyl.algebra import (
    SrcElement,
    commutator,
    homogeneous_component,
    idempotent,
    mul,
)
from dunklweyl.exprs import parse_element
from dunklweyl.scalars import GaussianRational, ScalarPoly


def ih1(mult=1, h2=0):
    return ScalarPoly.monomial(GaussianRational.of(0, Fraction(mult)), 1, h2)


Z = SrcElement.z
ZB = SrcElement.zb
G = SrcElement.gamma


def random_element(rng, max_degree=8, allow_gamma=True):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        p = rng.randint(0, max_degree)
        q = rng.randint(0, max_degree - p)
        eps = rng.randint(0, 1) if allow_gamma else 0
        c = GaussianRational.of(
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
        )
        if c.is_zero():
            c = GaussianRational.of(1)
        terms[(p, q, eps)] = ScalarPoly.monomial(c, rng.randint(0, 1), rng.randint(0, 1))
    return SrcElement(terms)


class TestRelations:
    def test_defining_commutator(self):
        got = commutator(Z(), ZB())
        want = SrcElement.monomial(0, 0, 0, ih1()) + SrcElement.monomial(0, 0, 1, ih1(2, 1))
        assert got == want

    def test_z2_zb(self):
        assert commutator(Z(2), ZB()) == SrcElement.monomial(1, 0, 0, ih1(2))

    def test_gamma_square(self):
        assert mul(G(), G()) == SrcElement.one()

    def test_gamma_sign_rule(self):
        assert mul(G(), Z()) == SrcElement.monomial(1, 0, 1, ScalarPoly.from_rational(-1))
        assert mul(G(), ZB()) == SrcElement.monomial(0, 1, 1, ScalarPoly.from_rational(-1))

    def test_z_zbq_family(self):
        for q in range(1, 9):
            got = commutator(Z(), ZB(q))
            want = SrcElement.monomial(0, q - 1, 0, ih1(q))
            if q % 2 == 1:
                want = want + SrcElement.monomial(0, q - 1, 1, ih1(2, 1))
            assert got == want, f"q={q}"

    def test_scaled_z2_zbp_family(self):
        left = Z(2).scale(ScalarPoly.monomial(GaussianRational.of(0, 2), 1, 0).invert_monomial())
        for p in range(2, 9):
            got = commutator(left, ZB(p))
            want = (
                SrcElement.monomial(1, p - 1, 0, ScalarPoly.from_rational(p))
                + SrcElement.monomial(0, p - 2, 0, ih1(-Fraction(p * (p - 1), 2)))
                + SrcElement.monomial(0, p - 2, 1, ih1(-2 * ((-1) ** p) * (p // 2), 1))
            )
            assert got == want, f"p={p}"


class TestFromXY:
    """Words in x = (z+zb)/2 and y = (z-zb)/(2i), read by the parser."""

    def test_yx_minus_xy(self):
        got = parse_element("y*x - x*y")
        half_h1 = ScalarPoly.monomial(GaussianRational.of(Fraction(1, 2)), 1, 0)
        h1h2 = ScalarPoly.monomial(GaussianRational.of(1), 1, 1)
        assert got == SrcElement.monomial(0, 0, 0, half_h1) + SrcElement.monomial(0, 0, 1, h1h2)

    def test_x_alone(self):
        half = ScalarPoly.from_rational(Fraction(1, 2))
        assert parse_element("x") == SrcElement(
            {(1, 0, 0): half, (0, 1, 0): half}
        )

    def test_x2_plus_y2(self):
        got = parse_element("x*x + y*y")
        # (z zb + zb z)/2 normalizes to z zb - i h1 (1 + 2 h2 g)/2
        want = (
            SrcElement.monomial(1, 1, 0)
            + SrcElement.monomial(0, 0, 0, ih1(Fraction(-1, 2)))
            + SrcElement.monomial(0, 0, 1, ih1(-1, 1))
        )
        assert got == want
        # cross-check against mul on the z-side
        direct = mul(Z(), ZB()) + mul(ZB(), Z())
        assert got == direct.scale(ScalarPoly.from_rational(Fraction(1, 2)))


class TestGrading:
    def test_component_of_mixed(self):
        e = SrcElement.monomial(1, 1) + SrcElement.monomial(0, 0, 0, ScalarPoly.h1())
        assert homogeneous_component(e, 2) == e
        assert homogeneous_component(SrcElement.monomial(2, 0), 0).is_zero()

    def test_commutator_stays_homogeneous(self):
        c = commutator(Z(2), ZB(2))
        assert homogeneous_component(c, 4) == c

    def test_product_of_homogeneous_is_homogeneous(self):
        rng = random.Random(7)
        for _ in range(50):
            m = rng.randint(0, 5)
            n = rng.randint(0, 5)
            p1 = rng.randint(0, m)
            a = SrcElement.monomial(p1, m - p1, rng.randint(0, 1))
            p2 = rng.randint(0, n)
            b = SrcElement.monomial(p2, n - p2, rng.randint(0, 1))
            prod = mul(a, b)
            assert homogeneous_component(prod, m + n) == prod

    def test_components_sum_back(self):
        rng = random.Random(11)
        for _ in range(20):
            e = random_element(rng)
            total = SrcElement.zero()
            for d in range(0, 20):
                total = total + homogeneous_component(e, d)
            assert total == e


class TestAlgebraProperties:
    def test_associativity_random(self):
        rng = random.Random(3)
        for _ in range(60):
            a, b, c = (random_element(rng, 6) for _ in range(3))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_jacobi_smoke(self):
        rng = random.Random(5)
        for _ in range(15):
            a, b, c = (random_element(rng, 4) for _ in range(3))
            total = (
                commutator(a, commutator(b, c))
                + commutator(b, commutator(c, a))
                + commutator(c, commutator(a, b))
            )
            assert total.is_zero()

    def test_h2_bound_closure(self):
        # inputs whose every term has h2 <= h1 keep that bound under products
        rng = random.Random(9)
        for _ in range(40):
            elems = []
            for _j in range(2):
                terms = {}
                for _k in range(rng.randint(1, 3)):
                    h1 = rng.randint(0, 2)
                    key = (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 1))
                    terms[key] = ScalarPoly.monomial(
                        GaussianRational.of(rng.randint(1, 3)), h1, rng.randint(0, h1)
                    )
                elems.append(SrcElement(terms))
            a, b = elems
            assert a.h2_bounded_by_h1() and b.h2_bounded_by_h1()
            assert mul(a, b).h2_bounded_by_h1()

    def test_idempotent(self):
        e = idempotent()
        assert mul(e, e) == e
