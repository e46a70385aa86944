from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, isqrt, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from dunklweyl import algebra
from dunklweyl.algebra import (
    SrcElement,
    commutator,
    idempotent,
    mul,
)
from dunklweyl.exprs import parse_element
from dunklweyl.scalars import GaussianRational, ScalarPoly, TermMap, _reduced, accumulate
from tests.conftest import scalar_polys


def ih1(mult=1, h2=0):
    return ScalarPoly.monomial(GaussianRational.of(0, Fraction(mult)), 1, h2)


def homogeneous_component(a: SrcElement, d: int) -> SrcElement:
    """The degree-d part under the grading |z| = |zb| = 1, |h1| = 2, |h2| = |g| = 0."""
    out = {}
    for (p, q, eps), c in a.term_map().items():
        kept = {(h1, h2): coeff for (h1, h2), coeff in c.terms() if p + q + 2 * h1 == d}
        if kept:
            out[(p, q, eps)] = ScalarPoly(kept)
    return SrcElement(out)


def h2_bounded_by_h1(a: SrcElement) -> bool:
    return all(b <= h for c in a.term_map().values() for (h, b) in c.term_map())


Z = SrcElement.z
ZB = SrcElement.zb
G = SrcElement.gamma


# -- reference reordering ----------------------------------------------------
# The recursive rewriting the engine used before its Dunkl-step builder: one
# application of zb z -> z zb - i h1 (1 + 2 h2 g) at a time, memoized by
# (q, p).  It shares no code with algebra._reorder.


@cache
def ref_zbq_z(q):
    """Normal form of the word zb^q z, built one rewrite step at a time."""
    if q == 0:
        return {(1, 0, 0): ScalarPoly.one()}
    minus_ih1 = ScalarPoly.monomial(GaussianRational.of(0, -1), 1, 0)
    out = {}
    for (a, b, eps), c in ref_zbq_z(q - 1).items():
        if a == 0:
            accumulate(out, (0, b + 1, eps), c)
        else:
            # zb * z * zb^b g^eps, with g zb^b = (-1)^b zb^b g
            accumulate(out, (1, b + 1, eps), c)
            accumulate(out, (0, b, eps), minus_ih1 * c)
            two_h2 = ScalarPoly.monomial(GaussianRational.of(2 * (-1) ** b), 0, 1)
            accumulate(out, (0, b, eps ^ 1), minus_ih1 * two_h2 * c)
    return out


@cache
def ref_reorder(q, p):
    """Normal form of the word zb^q z^p as a term map, by recursion over p."""
    if q == 0 or p == 0:
        return {(p, q, 0): ScalarPoly.one()}
    # zb^q z^p = (zb^q z) z^(p-1); normalize the tail of each resulting word
    out = {}
    for (a, b, eps), c in ref_zbq_z(q).items():
        cc = -c if (eps == 1 and (p - 1) % 2 == 1) else c
        for (x, y, e2), r in ref_reorder(b, p - 1).items():
            accumulate(out, (x + a, y, e2 ^ eps), cc * r)
    return out


def ref_mul(a: SrcElement, b: SrcElement) -> SrcElement:
    """The product as the engine computed it before its integer kernel: one
    ScalarPoly product and one term-map sum per output term, over ref_reorder."""
    out = {}
    for (p1, q1, e1), c1 in a.term_map().items():
        for (p2, q2, e2), c2 in b.term_map().items():
            c = c1 * c2
            # g^e1 crosses z^p2 zb^q2, picking up a sign per generator crossed
            if e1 == 1 and (p2 + q2) % 2 == 1:
                c = -c
            for (x_, y_, eps), r in ref_reorder(q1, p2).items():
                # the inner g (if any) still has to cross zb^q2
                cc = c * r
                if eps == 1 and q2 % 2 == 1:
                    cc = -cc
                accumulate(out, (p1 + x_, y_ + q2, eps ^ e1 ^ e2), cc)
    return SrcElement(out)


# -- reference element ---------------------------------------------------------
# The element class before integer storage: a term map (p, q, eps) -> ScalarPoly
# with the product kernel it used, one flat accumulator keyed (p, q, eps, h1, h2)
# over a common denominator, read out in insertion order.  SrcElement must agree
# with it on values, canonical text and JSON, and the order term_map() lists
# terms in, which decides the term that the errors of spherical._fold and
# index.local_trace_density name.


class RefElement(TermMap):
    __slots__ = ()
    _printer = "element_to_text"
    _zero_coeff = ScalarPoly()
    _key = SrcElement._key
    _order = staticmethod(SrcElement._order)

    def __mul__(self, other: "RefElement") -> "RefElement":
        return ref_kernel_mul(self, other)

    def to_json(self) -> list:
        return [
            {"z": p, "zb": q, "g": eps, "coeff": c.to_json()}
            for (p, q, eps), c in self.terms()
        ]


def _ref_denominator(x: RefElement) -> int:
    return lcm(*{c._d for poly in x._terms.values() for c in poly._terms.values()})


def ref_kernel_mul(a: RefElement, b: RefElement) -> RefElement:
    den = _ref_denominator(a) * _ref_denominator(b)
    acc: dict[tuple[int, int, int, int, int], list[int]] = {}
    for (p1, q1, e1), c1 in a._terms.items():
        for (p2, q2, e2), c2 in b._terms.items():
            c = c1 * c2
            lifted = [
                (h1, h2, gr._r * (den // gr._d), gr._s * (den // gr._d))
                for (h1, h2), gr in c._terms.items()
            ]
            flip = e1 == 1 and (p2 + q2) % 2 == 1
            for x, y, eps, k, row in algebra._reorder(q1, p2):
                negate = flip != (eps == 1 and q2 % 2 == 1)
                for h1, h2, r, s in lifted:
                    if k % 2:
                        r, s = -s, r
                    if negate:
                        r, s = -r, -s
                    for j, n in row:
                        cell = acc.setdefault((p1 + x, y + q2, eps ^ e1 ^ e2, h1 + k, h2 + j), [0, 0])
                        cell[0] += r * n
                        cell[1] += s * n
    grouped: dict = {}
    for (p, q, e, h1, h2), (r, s) in acc.items():
        if r or s:
            grouped.setdefault((p, q, e), {})[(h1, h2)] = _reduced(r, s, den)
    return RefElement({key: ScalarPoly(terms) for key, terms in grouped.items()})


def assert_lowest_terms(x: SrcElement) -> None:
    """One denominator d > 0 and integer pairs with gcd(d, every r, every s) == 1."""
    assert x._d > 0
    nums = []
    for cells in x._terms.values():
        assert cells
        for r, s in cells.values():
            assert r or s
            nums += [r, s]
    assert gcd(x._d, *nums) == 1


def assert_agrees(got: SrcElement, want: RefElement) -> None:
    assert type(got) is SrcElement
    assert_lowest_terms(got)
    got_map, want_map = got.term_map(), want.term_map()
    assert list(got_map) == list(want_map)
    for key, coeff in got_map.items():
        assert coeff == want_map[key]
        assert list(coeff.term_map()) == list(want_map[key].term_map())
    assert got.to_text() == want.to_text()
    assert got.to_json() == want.to_json()


def check_against_reference(q, p):
    ref = ref_reorder(q, p)
    assert mul(ZB(q), Z(p)) == SrcElement(ref), (q, p)
    # zb^q g z^p = (-1)^p zb^q z^p g: the g-sign path of mul
    sign = ScalarPoly.from_rational((-1) ** p)
    want = SrcElement({(a, b, e ^ 1): c * sign for (a, b, e), c in ref.items()})
    assert mul(mul(ZB(q), G()), Z(p)) == want, (q, p)


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


@st.composite
def kernel_elements(draw, max_terms=5, max_degree=10):
    """0-5 terms of degree <= 10 with g, h1^-2..h1^3, h2^0..h2^3 and Gaussian
    coefficients over denominators 1-6."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        p = draw(st.integers(0, max_degree))
        key = (p, draw(st.integers(0, max_degree - p)), draw(st.integers(0, 1)))
        coeff = {}
        for _ in range(draw(st.integers(1, 3))):
            den = draw(st.integers(1, 6))
            re, im = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
            coeff[(draw(st.integers(-2, 3)), draw(st.integers(0, 3)))] = GaussianRational.of(
                Fraction(re, den), Fraction(im, den)
            )
        terms[key] = ScalarPoly(coeff)
    return SrcElement(terms)


def assert_same_product(got: SrcElement, want: SrcElement) -> None:
    assert got == want
    assert got.to_text() == want.to_text()
    assert got.to_json() == want.to_json()
    assert hash(got) == hash(want)
    assert_lowest_terms(got)
    for coeff in got.term_map().values():
        assert not coeff.is_zero()
        for c in coeff.term_map().values():
            assert c._d > 0 and (c._r or c._s)
            assert gcd(c._r, c._s, c._d) == 1


class TestStorageAgainstReference:
    """Integer pairs over one denominator against the ScalarPoly-coefficient class."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_elements(), kernel_elements(), scalar_polys(min_h1=-2, max_h1=3, max_h2=3))
    def test_agrees_with_reference(self, a, b, c):
        ra, rb = RefElement(a.term_map()), RefElement(b.term_map())
        assert_agrees(a, ra)
        assert_agrees(a + b, ra + rb)
        assert_agrees(a - b, ra - rb)
        assert_agrees(-a, -ra)
        assert_agrees(a.scale(c), ra.scale(c))
        assert_agrees(a.subs_h2_zero(), ra.subs_h2_zero())
        assert_agrees(mul(a, b), ra * rb)
        assert (a == b) == (ra == rb)
        # equal elements built along different paths: equal storage and hashes
        for same in ((a + b) - b, SrcElement(a.term_map()), -(-a)):
            assert same == a and hash(same) == hash(a)
            assert same._d == a._d and same._terms == a._terms

    @settings(max_examples=60, deadline=None)
    @given(kernel_elements(max_terms=3, max_degree=5), kernel_elements(max_terms=3, max_degree=5))
    def test_product_order_with_cancellation(self, u, v):
        # products through the idempotents cancel many accumulator entries,
        # which is where the order of the output terms is decided
        e = idempotent()
        for left, right in ((mul(u, e), v), (u, mul(e, v)), (mul(u, e) + v, mul(e, v) - u)):
            assert_agrees(mul(left, right), RefElement(left.term_map()) * RefElement(right.term_map()))

    def test_zero_is_canonical(self):
        a = SrcElement.x() + SrcElement.y().scale(ScalarPoly.h2(2))
        for zero in (a - a, a + (-a), a.scale(ScalarPoly.zero()), SrcElement()):
            assert zero.is_zero() and zero._d == 1 and zero._terms == {}
            assert zero == SrcElement() and hash(zero) == hash(SrcElement())
        assert SrcElement.x()._d == 2 and (SrcElement.x() + SrcElement.x())._d == 1


class TestKernelAgainstReference:
    """The integer kernel of mul against the ScalarPoly-coefficient product."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_elements(), kernel_elements())
    def test_agrees_with_reference(self, a, b):
        assert_same_product(mul(a, b), ref_mul(a, b))

    @settings(max_examples=40, deadline=None)
    @given(kernel_elements(max_terms=3, max_degree=5), kernel_elements(max_terms=3, max_degree=5))
    def test_cancelling_products(self, u, v):
        # (u e)(f v) = u (e f) v = 0 for the idempotents e = (1+g)/2, f = (1-g)/2:
        # every output key of the kernel's accumulator sums to zero
        e = idempotent()
        f = SrcElement.one() - e
        left, right = mul(u, e), mul(f, v)
        got = mul(left, right)
        assert_same_product(got, ref_mul(left, right))
        assert got.is_zero() and got.term_map() == {}
        assert got._d == 1 and got._terms == {}

    def test_zero_factor(self):
        a = SrcElement.z(2) + SrcElement.gamma()
        assert_same_product(mul(a, SrcElement()), SrcElement())
        assert_same_product(mul(SrcElement(), a), SrcElement())


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
            total = SrcElement()
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
            assert h2_bounded_by_h1(a) and h2_bounded_by_h1(b)
            assert h2_bounded_by_h1(mul(a, b))

    def test_idempotent(self):
        e = idempotent()
        assert mul(e, e) == e


class TestReorder:
    """zb^q z^p built by Dunkl steps, against the recursive reference."""

    def test_agrees_with_reference_exhaustively(self):
        algebra._reorder.cache_clear()
        for q in range(25):
            for p in range(25):
                check_against_reference(q, p)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 48), st.integers(0, 48))
    def test_agrees_with_reference(self, q, p):
        check_against_reference(q, p)

    def test_h2_free_part_is_chu_vandermonde(self):
        # at h2 = 0, zb^q z^p = sum_k k! C(q,k) C(p,k) (-i h1)^k z^(p-k) zb^(q-k)
        minus_i_powers = ((1, 0), (0, -1), (-1, 0), (0, 1))
        for q in range(31):
            for p in range(31):
                got = mul(ZB(q), Z(p)).subs_h2_zero()
                keys = set()
                for k in range(min(p, q) + 1):
                    re, im = minus_i_powers[k % 4]
                    n = factorial(k) * comb(q, k) * comb(p, k)
                    coeff = got.coefficient((p - k, q - k, 0))
                    assert coeff.term_map().keys() == {(k, 0)}, (q, p, k)
                    c = coeff.coefficient((k, 0))
                    assert (c.re, c.im) == (re * n, im * n), (q, p, k)
                    keys.add((p - k, q - k, 0))
                assert got.term_map().keys() == keys, (q, p)

    def test_cache_is_bounded_and_immutable(self):
        memos = [
            name for name, value in vars(algebra).items()
            if isinstance(value, dict) and not name.startswith("__")
        ]
        assert memos == []
        assert not hasattr(algebra, "_REORDER") and not hasattr(algebra, "_ZBQ_Z")
        maxsize = algebra._reorder.cache_parameters()["maxsize"]
        assert maxsize is not None
        for n in range(61):
            parse_element(f"zb^{n}*z^{n}")
        side = isqrt(maxsize) + 1  # side * side keys, more than maxsize
        for q in range(side):
            for p in range(side):
                algebra._reorder(q, p)
        assert algebra._reorder.cache_info().currsize <= maxsize
        assert isinstance(algebra._reorder(3, 4), tuple)
