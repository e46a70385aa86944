from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import factorial, perm

import pytest

from dunklweyl.algebra import SrcElement, commutator, mul
from dunklweyl.index import symmetric_weyl_terms
from dunklweyl.scalars import GaussianRational, ScalarPoly
from dunklweyl.spherical import (
    InvariantPoly,
    ParityError,
    euler_derivation,
    invariant_monomials,
    moyal_star,
    star,
    star_commutator,
)
from tests.conftest import embed, idempotent

M = InvariantPoly.monomial


def ih1(mult=1):
    return ScalarPoly.monomial(GaussianRational.of(0, Fraction(mult)), 1, 0)


def random_invariant(rng, max_degree=8):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        d = 2 * rng.randint(0, max_degree // 2)
        p = rng.randint(0, d)
        c = GaussianRational.of(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        if c.is_zero():
            c = GaussianRational.of(1)
        terms[(p, d - p)] = ScalarPoly.monomial(c)
    return InvariantPoly(terms)


class TestEmbed:
    def test_embed_one_is_idempotent(self):
        assert embed(InvariantPoly.one()) == idempotent()
        e = embed(InvariantPoly.one())
        assert mul(e, e) == e

    def test_embed_zzb(self):
        half = ScalarPoly.from_rational(Fraction(1, 2))
        want = SrcElement({(1, 1, 0): half, (1, 1, 1): half})
        assert embed(InvariantPoly.zzbar()) == want

    def test_parity_rejected_at_boundary(self):
        with pytest.raises(ParityError):
            InvariantPoly.monomial(1, 0)
        with pytest.raises(ParityError):
            InvariantPoly.from_element(SrcElement.monomial(1, 0))


class TestStar:
    def test_unit_laws(self):
        rng = random.Random(1)
        one = InvariantPoly.one()
        for _ in range(10):
            f = random_invariant(rng)
            assert star(f, one) == f
            assert star(one, f) == f

    def test_z2_zb2_commutator(self):
        got = star_commutator(M(2, 0), M(0, 2))
        want = (
            M(1, 1, ih1(4))
            + M(0, 0, ScalarPoly.monomial(GaussianRational.of(2), 2, 0))
            + M(0, 0, ScalarPoly.monomial(GaussianRational.of(4), 2, 1))
        )
        assert got == want
        # brute-force route through the big algebra
        brute = commutator(embed(M(2, 0)), embed(M(0, 2)))
        assert embed(got) == brute

    def test_rotation_weights(self):
        zzb = InvariantPoly.zzbar()
        for p, q in ((2, 0), (3, 1), (2, 2)):
            m = M(p, q)
            assert star_commutator(m, zzb) == m.scale(
                ScalarPoly.monomial(GaussianRational.of(0, p - q), 1, 0)
            )

    def test_commutator_transport(self):
        rng = random.Random(2)
        for _ in range(15):
            f, g = random_invariant(rng, 6), random_invariant(rng, 6)
            assert embed(star_commutator(f, g)) == commutator(embed(f), embed(g))

    def test_embed_is_product_homomorphism(self):
        monos = invariant_monomials(8)
        for f in monos:
            for g in monos:
                assert embed(star(f, g)) == mul(embed(f), embed(g)), (f, g)

    def test_associativity_random(self):
        rng = random.Random(4)
        for _ in range(30):
            f, g, h = (random_invariant(rng, 6) for _ in range(3))
            assert star(star(f, g), h) == star(f, star(g, h))


class TestEuler:
    def test_kernel_and_eigenvalues(self):
        assert euler_derivation(InvariantPoly.zzbar()).is_zero()
        assert euler_derivation(M(2, 0)) == M(2, 0, ih1(2))
        assert euler_derivation(M(3, 1)) == M(3, 1, ih1(2))

    def test_contract_against_star(self):
        zzb = InvariantPoly.zzbar()
        for m in invariant_monomials(10):
            assert euler_derivation(m) == star_commutator(m, zzb)


class TestMoyal:
    def test_unit(self):
        rng = random.Random(6)
        f = random_invariant(rng)
        assert moyal_star(f, InvariantPoly.one()) == f

    def test_zzb_commutator_with_z2(self):
        # quadratic inputs: the product sees only the first-order bracket
        zzb, z2 = InvariantPoly.zzbar(), M(2, 0)
        got = moyal_star(zzb, z2) - moyal_star(z2, zzb)
        assert got == M(2, 0, ih1(-2))

    def test_degeneration_small(self):
        rng = random.Random(8)
        for _ in range(25):
            f, g = random_invariant(rng, 6), random_invariant(rng, 6)
            assert star(f, g).subs_h2_zero() == moyal_star(f.subs_h2_zero(), g.subs_h2_zero())

    def test_integer_counts_against_fraction_reference(self):
        """The integer counts of moyal_star and symmetric_weyl_terms equal
        their closed forms computed with Fraction."""
        minus_i = [(1, 0), (0, -1), (-1, 0), (0, 1)]  # (-i)^k by k % 4
        for p1, q1, p2, q2 in itertools.product(range(5), repeat=4):
            want = {}
            for a in range(min(p1, q2) + 1):
                for b in range(min(q1, p2) + 1):
                    count = Fraction(perm(p1, a) * perm(q2, a), factorial(a))
                    count *= Fraction(perm(q1, b) * perm(p2, b), factorial(b)) * (-1) ** b
                    want[a, b] = count
            got = {(a, b): Fraction(n, d) for a, b, n, d in symmetric_weyl_terms(p1, q1, p2, q2)}
            assert got == want
            if (p1 + q1) % 2 or (p2 + q2) % 2:
                continue
            terms = {}
            for k in range(min(q1, p2) + 1):
                count = Fraction(perm(q1, k) * perm(p2, k), factorial(k))
                re, im = minus_i[k % 4]
                terms[p1 + p2 - k, q1 + q2 - k] = ScalarPoly.monomial(
                    GaussianRational.of(count * re, count * im), k, 0
                )
            assert moyal_star(M(p1, q1), M(p2, q2)) == InvariantPoly(terms)
