from __future__ import annotations

import ast
import contextlib
import io
import itertools
import random
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, isqrt, lcm, perm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dunklweyl import algebra, cli, exprs, index, scalars, spherical
from dunklweyl.algebra import SrcElement, commutator, mul
from dunklweyl.exprs import parse_element
from dunklweyl.index import FormPoly, LocalElement
from dunklweyl.scalars import ExtractionError, GaussianRational, ParityError, ScalarPoly, TermMap, gaussian
from dunklweyl.spherical import InvariantPoly
from tests.conftest import idempotent, scalar_polys


def accumulate(out: dict, key, value) -> None:
    """Add value to out[key], dropping the entry when the sum is zero: how the
    references below sum, one ScalarPoly addition per repeated key."""
    s = out.get(key)
    s = value if s is None else s + value
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


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


def Z(p: int = 1) -> SrcElement:
    return SrcElement.monomial(p, 0)


def ZB(q: int = 1) -> SrcElement:
    return SrcElement.monomial(0, q)


def G() -> SrcElement:
    return SrcElement.monomial(0, 0, 1)


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


# -- reference term map --------------------------------------------------------
# The generic term map every container used before integer storage: a dict
# key -> ScalarPoly summed through accumulate.  The integer storage of
# scalars.TermMap must agree with it on values, the canonical order of terms(),
# canonical text and JSON.  The storage order is unspecified; an error that
# names a term names the first offending one in the canonical order.


class RefTermMap:
    __slots__ = ("_terms",)
    _printer: str

    def __init__(self, terms=None):
        cleaned: dict = {}
        for key, c in (terms or {}).items():
            key = self._key(key)
            if key is not None:
                accumulate(cleaned, key, c)
        self._terms = cleaned

    def _key(self, key):
        return key

    @staticmethod
    def _order(key):
        return key

    def _new(self, terms: dict):
        out = object.__new__(type(self))
        out._terms = terms
        return out

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        order = self._order
        return iter(sorted(self._terms.items(), key=lambda kv: order(kv[0])))

    def term_map(self) -> dict:
        return dict(self._terms)

    def coefficient(self, key):
        return self._terms.get(self._key(key), ScalarPoly())

    def __add__(self, other):
        out = dict(self._terms)
        for key, c in other._terms.items():
            accumulate(out, key, c)
        return self._new(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({k: -c for k, c in self._terms.items()})

    def scale(self, c):
        if c.is_zero():
            return self._new({})
        return self._new({k: v * c for k, v in self._terms.items()})

    def subs_h2_zero(self):
        out: dict = {}
        for key, c in self._terms.items():
            accumulate(out, key, c.subs_h2_zero())
        return self._new(out)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def to_text(self) -> str:
        from dunklweyl import exprs

        return getattr(exprs, self._printer)(self)


# The element class before integer storage, with the product kernel it used:
# one flat accumulator keyed (p, q, eps, h1, h2) over a common denominator,
# read out in insertion order.


class RefElement(RefTermMap):
    __slots__ = ()
    _printer = "element_to_text"
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
    return lcm(*{c._d for poly in x._terms.values() for c in poly.term_map().values()})


def ref_kernel_mul(a: RefElement, b: RefElement) -> RefElement:
    den = _ref_denominator(a) * _ref_denominator(b)
    acc: dict[tuple[int, int, int, int, int], list[int]] = {}
    for (p1, q1, e1), c1 in a._terms.items():
        for (p2, q2, e2), c2 in b._terms.items():
            c = c1 * c2
            lifted = [
                (h1, h2, gr._r * (den // gr._d), gr._s * (den // gr._d))
                for (h1, h2), gr in c.term_map().items()
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
            grouped.setdefault((p, q, e), {})[(h1, h2)] = gaussian(r, s, den)
    return RefElement({key: ScalarPoly(terms) for key, terms in grouped.items()})


class RefInvariant(RefTermMap):
    __slots__ = ()
    _printer = "invariant_to_text"
    _key = staticmethod(InvariantPoly._key)


class RefForm(RefTermMap):
    __slots__ = ("max_form_degree",)
    _printer = "form_to_text"
    _key = FormPoly._key
    _order = staticmethod(FormPoly._order)

    def __init__(self, terms=None, max_form_degree=0):
        self.max_form_degree = max_form_degree
        super().__init__(terms)

    def _new(self, terms: dict) -> "RefForm":
        out = RefTermMap._new(self, terms)
        out.max_form_degree = self.max_form_degree
        return out


class RefLocal(RefTermMap):
    __slots__ = ()
    _printer = "local_to_text"
    _key = LocalElement._key
    _order = staticmethod(LocalElement._order)

    def __mul__(self, other: "RefLocal") -> "RefLocal":
        return ref_local_star(self, other)


CONTAINER_OF = {RefElement: SrcElement, RefInvariant: InvariantPoly, RefForm: FormPoly, RefLocal: LocalElement}


# The re-keys and the local product as the package wrote them over ScalarPoly
# maps; each error names the first bad key in term_map() order, so the tests
# compute the canonical first offender themselves.


def ref_to_element(f: RefInvariant) -> RefElement:
    return RefElement({(p, q, 0): c for (p, q), c in f.term_map().items()})


def ref_fold(e: RefElement) -> RefInvariant:
    out = {}
    for (p, q, _eps), c in e.term_map().items():
        if (p + q) % 2 != 0:
            raise ExtractionError(f"non-invariant residue z^{p} zb^{q}")
        accumulate(out, (p, q), c)
    return RefInvariant(out)


def ref_fiber_fold(F: RefLocal) -> RefLocal:
    out = {}
    for (base, p, q, _eps), c in F.term_map().items():
        accumulate(out, (base, p, q, 0), c)
    return RefLocal(out)


def ref_moyal_pair(p1: int, q1: int, p2: int, q2: int) -> dict[tuple[int, int, int], Fraction]:
    """p^p1 q^q1 * p^p2 q^q2 for one pair with [p, q] = h1, by the Moyal formula
    f*g = sum_k (h1/2)^k/k! sum_{r+s=k} (-1)^s C(k,r) (d_p^r d_q^s f)(d_q^r d_p^s g),
    as {(p exponent, q exponent, h1 power): weight}."""
    out: dict = {}
    for k in range(p1 + q1 + 1):
        for r in range(k + 1):
            s = k - r
            w = Fraction(comb(k, r) * (-1) ** s, 2**k * factorial(k))
            w *= perm(p1, r) * perm(q1, s) * perm(q2, r) * perm(p2, s)
            if w:
                key = (p1 + p2 - k, q1 + q2 - k, k)
                out[key] = out.get(key, 0) + w
    return {key: w for key, w in out.items() if w}


def ref_base_star(b1: tuple, b2: tuple) -> list[tuple[tuple, ScalarPoly]]:
    """The base product of two base monomials, pair by pair by ref_moyal_pair."""
    d1, d2 = dict(b1), dict(b2)
    parts = [((), Fraction(1), 0)]
    for i in sorted({v // 2 for v in d1} | {v // 2 for v in d2}):
        pv, qv = 2 * i, 2 * i + 1
        step = ref_moyal_pair(d1.get(pv, 0), d1.get(qv, 0), d2.get(pv, 0), d2.get(qv, 0))
        parts = [(key + ((pv, p), (qv, q)), w * sw, h + sh) for key, w, h in parts for (p, q, sh), sw in step.items()]
    return [(key, ScalarPoly.monomial(GaussianRational.of(w), h, 0)) for key, w, h in parts]


def ref_local_star(F: RefLocal, G: RefLocal) -> RefLocal:
    out = {}
    one = ScalarPoly.one()
    for (b1, p1, q1, e1), c1 in F.term_map().items():
        for (b2, p2, q2, e2), c2 in G.term_map().items():
            c = c1 * c2
            fiber = ref_kernel_mul(RefElement({(p1, q1, e1): one}), RefElement({(p2, q2, e2): one}))
            for bkey, bw in ref_base_star(b1, b2):
                for (p, q, eps), fc in fiber.term_map().items():
                    accumulate(out, (bkey, p, q, eps), c * bw * fc)
    return RefLocal(out)


# The products, the FormPoly truncations and from_element as the package wrote
# them before TermMap.rekey and TermMap.product: ScalarPoly coefficients read
# through term_map() and lifted back through the constructor.  The reference
# scale is RefTermMap.scale, the same dict of ScalarPoly products.


def ref_merge_exponents(k1: tuple, k2: tuple) -> tuple:
    acc: dict = {}
    for v, e in k1 + k2:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def ref_form_mul(a: RefForm, b: RefForm) -> RefForm:
    deg = min(a.max_form_degree, b.max_form_degree)
    out = {}
    for k1, c1 in a.term_map().items():
        for k2, c2 in b.term_map().items():
            key = ref_merge_exponents(k1, k2)
            if index._sym_degree(key) <= deg:
                accumulate(out, key, c1 * c2)
    return RefForm(out, deg)


def ref_form_add(a: RefForm, b: RefForm) -> RefForm:
    return RefForm((a + b).term_map(), min(a.max_form_degree, b.max_form_degree))


def ref_degree_component(a: RefForm, d: int) -> RefForm:
    return RefForm({k: c for k, c in a.term_map().items() if index._sym_degree(k) == d}, a.max_form_degree)


def ref_from_element(e: RefElement) -> RefInvariant:
    if not all(eps == 0 for _p, _q, eps in e.term_map()):
        raise ParityError("element carries the reflection generator")
    return RefInvariant({(p, q): c for (p, q, _eps), c in e.term_map().items()})


def assert_lowest_terms(x) -> None:
    """One denominator d > 0 and integer pairs with gcd(d, every r, every s) == 1;
    zero has d == 1."""
    assert x._d > 0
    nums = []
    for cells in x._terms.values():
        assert cells
        for r, s in cells.values():
            assert r or s
            nums += [r, s]
    assert gcd(x._d, *nums) == 1
    assert x._terms or x._d == 1


def assert_agrees(got, want: RefTermMap) -> None:
    """got, in integer storage, equals the reference want on values, the key
    sets of term_map() (outer and inner), the canonical order of terms(),
    canonical text and JSON; the storage order is unspecified."""
    assert type(got) is CONTAINER_OF[type(want)]
    assert_lowest_terms(got)
    got_map, want_map = got.term_map(), want.term_map()
    assert set(got_map) == set(want_map)
    for key, coeff in got_map.items():
        assert coeff == want_map[key]
        assert set(coeff.term_map()) == set(want_map[key].term_map())
    assert [key for key, _c in got.terms()] == [key for key, _c in want.terms()]
    assert got.to_text() == want.to_text()
    json_of = getattr(type(got), "to_json", cli._local_json)
    assert json_of(got) == json_of(want)


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


def test_mul_makes_one_integer_scalar_product_per_term_pair(monkeypatch):
    """algebra.mul multiplies the Gaussian-integer numerators of each term pair
    once, as one ScalarPoly product that builds no Gaussian rational."""
    # terms with one to three scalar monomials each: 42 GaussianRational products at the parent
    a = parse_element("(1/2*i*h1 + 2/3*h2 - 1/5)*z^2 + (2/3-1/5*i)*(h2 + 3/4*h1^-1)*zb*g + 3/7*z*zb - 5/4*h1^-1")
    b = parse_element("(1/4+i)*zb^2 - 5/6*(h1^-1 + 2*h2^2)*z + 2/9*i*h2*g + (3-1/2*i)*(1 + h1)*z*zb^3")
    want = ref_kernel_mul(RefElement(a.term_map()), RefElement(b.term_map()))
    calls = {"ScalarPoly": 0, "GaussianRational": 0}

    def counted(cls):
        product = cls.__mul__

        def wrapper(x, y):
            calls[cls.__name__] += 1
            return product(x, y)

        monkeypatch.setattr(cls, "__mul__", wrapper)

    counted(ScalarPoly)
    counted(GaussianRational)
    got = mul(a, b)
    monkeypatch.undo()
    pairs = len(list(a.terms())) * len(list(b.terms()))
    assert pairs == 16 and calls == {"ScalarPoly": pairs, "GaussianRational": 0}
    assert got.term_map() == want.term_map() and got.to_text() == want.to_text()


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


# -- storage of every term map --------------------------------------------------

COEFFS = scalar_polys(min_h1=-2, max_h1=3, max_h2=3)
KEYS = {
    SrcElement: st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 1)),
    InvariantPoly: st.tuples(st.integers(0, 5), st.integers(0, 5)).map(lambda k: (k[0], k[1] + sum(k) % 2)),
    # unsorted, with zero exponents and degrees beyond the truncation at 4
    FormPoly: st.lists(st.tuples(st.sampled_from("ABC"), st.integers(0, 2)), max_size=2, unique_by=lambda t: t[0])
    .map(tuple),
    LocalElement: st.tuples(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=2, unique_by=lambda t: t[0]).map(tuple),
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(0, 1),
    ),
}
REFERENCE_OF = {container: ref for ref, container in CONTAINER_OF.items()}


def build(cls, terms: dict):
    return cls(terms, 4) if cls in (FormPoly, RefForm) else cls(terms)


@st.composite
def term_map_pairs(draw, cls):
    """Two maps key -> ScalarPoly, the second cancelling some terms or pairs of
    the first, both in drawn order."""
    keys = draw(st.lists(KEYS[cls], max_size=5, unique=True))
    first = {key: draw(COEFFS) for key in keys}
    second = {}
    for key in keys:
        how = draw(st.integers(0, 3))
        if how == 0:
            second[key] = -first[key]
        elif how == 1:
            second[key] = draw(COEFFS) - first[key]
    for key in draw(st.lists(KEYS[cls], max_size=3)):
        second[key] = draw(COEFFS)
    return first, dict(draw(st.permutations(list(second.items()))))


def flip_eps(terms: dict) -> dict:
    """The same map with the g exponent, the last entry of each key, flipped."""
    return {(*key[:-1], 1 - key[-1]): c for key, c in terms.items()}


class TestTermMapStorage:
    """Every container's integer storage against the reference generic term map."""

    @pytest.mark.parametrize("cls", list(KEYS), ids=lambda c: c.__name__)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_linear_structure(self, cls, data):
        a_terms, b_terms = data.draw(term_map_pairs(cls))
        c = data.draw(COEFFS)
        ref = REFERENCE_OF[cls]
        a, b = build(cls, a_terms), build(cls, b_terms)
        ra, rb = build(ref, a_terms), build(ref, b_terms)
        assert_agrees(a, ra)
        assert_agrees(b, rb)
        assert_agrees(a + b, ra + rb)
        assert_agrees(a - b, ra - rb)
        assert_agrees(-a, -ra)
        assert_agrees(a.scale(c), ra.scale(c))
        assert_agrees(a.subs_h2_zero(), ra.subs_h2_zero())
        assert (a == b) == (ra == rb)
        # equal values built along different paths: equal storage and hashes
        for same in ((a + b) - b, build(cls, a.term_map()), -(-a), b + (a - b)):
            assert same == a and hash(same) == hash(a)
            assert same._d == a._d and same._terms == a._terms

    @pytest.mark.parametrize("cls", list(KEYS), ids=lambda c: c.__name__)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_built_from_pairs(self, cls, data):
        # pairs that repeat keys, cancel some keys to nothing and carry zero coefficients
        first, second = data.draw(term_map_pairs(cls))
        zeros = [(key, ScalarPoly.zero()) for key in data.draw(st.lists(KEYS[cls], max_size=2))]
        pairs = data.draw(st.permutations([*first.items(), *second.items(), *zeros]))
        summed: dict = {}
        for key, c in pairs:
            accumulate(summed, key, c)
        got = build(cls, pairs)
        assert_agrees(got, build(REFERENCE_OF[cls], summed))
        for same in (build(cls, summed), build(cls, first) + build(cls, second)):
            assert same == got and hash(same) == hash(got)
            assert same._d == got._d and same._terms == got._terms

    def test_repeated_keys_reach_lowest_terms(self):
        half = ScalarPoly.from_rational(Fraction(1, 2))
        x = SrcElement.x()
        assert x._d == 2
        twice = SrcElement([*x.term_map().items()] * 2)
        assert twice == x + x and twice._d == 1 and hash(twice) == hash(x + x)
        one = InvariantPoly([((1, 1), half), ((1, 1), half)])
        assert one._d == 1 and one._terms == {(1, 1): {(0, 0): (1, 0)}}
        assert InvariantPoly([((1, 1), half), ((1, 1), -half)]) == InvariantPoly()

    def test_a_bad_key_raises_whatever_its_coefficient(self):
        zero, one = ScalarPoly.zero(), ScalarPoly.one()
        with pytest.raises(ParityError, match=r"^monomial z\^1 zb\^0 is not invariant$"):
            InvariantPoly({(1, 0): zero})
        # keys are checked in input order: the first bad one is named
        with pytest.raises(ParityError, match=r"^monomial z\^2 zb\^1 is not invariant$"):
            InvariantPoly([((0, 0), one), ((2, 1), zero), ((1, 0), one)])
        with pytest.raises(ValueError, match="bad fiber exponents"):
            LocalElement([(((), 0, 0, 2), zero)])

    def test_repeated_keys_make_no_scalar_sum(self, monkeypatch):
        # every operation below meets one key more than once
        half = ScalarPoly.from_rational(Fraction(1, 2))
        f = exprs.parse_invariant("z*zb + zb^2")
        g = exprs.parse_invariant("z*zb + z^2")
        pq = LocalElement.base_monomial({0: 1, 1: 1})
        F = LocalElement.from_fiber(parse_element("z*zb + z^2*zb^2")) * pq
        calls = []
        add = ScalarPoly.__add__
        monkeypatch.setattr(ScalarPoly, "__add__", lambda x, y: calls.append(1) or add(x, y))
        assert not spherical.moyal_star(f, g).is_zero()
        assert not index.local_star(pq, pq).is_zero()
        assert not index.local_trace_density(F).is_zero()
        assert not spherical.euler_derivation(f).is_zero()
        assert calls == []
        assert InvariantPoly([((1, 1), half), ((1, 1), half)]) == InvariantPoly.zzbar()
        assert calls == []

    @settings(max_examples=50, deadline=None)
    @given(term_map_pairs(InvariantPoly))
    def test_to_element_and_fold(self, inv):
        f = InvariantPoly(inv[0]) - InvariantPoly(inv[1])
        rf = RefInvariant(inv[0]) - RefInvariant(inv[1])
        assert_agrees(f.to_element(), ref_to_element(rf))

    @settings(max_examples=50, deadline=None)
    @given(term_map_pairs(InvariantPoly), term_map_pairs(InvariantPoly))
    def test_star_is_the_folded_product(self, one, two):
        # multi-term factors, whose g-carrying rows cancel terms and pairs across the fold
        for f_terms, g_terms in ((one[0], two[0]), (one[1], two[1]), (one[0], one[1])):
            rf, rg = RefInvariant(f_terms), RefInvariant(g_terms)
            want = ref_fold(ref_kernel_mul(ref_to_element(rf), ref_to_element(rg)))
            assert_agrees(spherical.star(InvariantPoly(f_terms), InvariantPoly(g_terms)), want)

    def test_a_product_off_the_corner_names_its_residue(self):
        # only forced storage holds an odd key; the message is the one the old fold gave
        z = scalars._stored(InvariantPoly, {(1, 0): {(0, 0): (1, 0)}}, 1)
        with pytest.raises(ExtractionError, match=r"^non-invariant residue z\^2 zb\^1$"):
            spherical.star(z, InvariantPoly.zzbar())

    def test_star_makes_no_element_and_no_mul(self, monkeypatch):
        f = exprs.parse_invariant("z^2*zb^2 + 1/3*i*h1*z*zb - h2 + zb^2")
        g = exprs.parse_invariant("(2 - h2)*z*zb + z^2 + 5*h1")
        want = [spherical.star(f, g), spherical.star(g, f), spherical.star(f, f)]

        def refuse(*_args):
            raise AssertionError("star left the corner")

        monkeypatch.setattr(algebra, "mul", refuse)
        monkeypatch.setattr(InvariantPoly, "to_element", refuse)
        assert [spherical.star(f, g), spherical.star(g, f), spherical.star(f, f)] == want
        assert not want[0].is_zero()

    @settings(max_examples=50, deadline=None)
    @given(term_map_pairs(LocalElement))
    def test_fiber_fold(self, pair):
        F = LocalElement(pair[0]) + LocalElement(flip_eps(pair[1]))
        rF = RefLocal(pair[0]) + RefLocal(flip_eps(pair[1]))
        assert_agrees(F, rF)
        assert_agrees(index.fiber_fold(F), ref_fiber_fold(rF))

    @settings(max_examples=40, deadline=None)
    @given(term_map_pairs(LocalElement), term_map_pairs(LocalElement))
    def test_local_star_against_reference(self, one, two):
        # multi-term factors over two base pairs, with g and h1^-1 in the coefficients
        for f_terms, g_terms in ((one[0], two[0]), (one[1], two[1]), (one[0], one[1])):
            want = ref_local_star(RefLocal(f_terms), RefLocal(g_terms))
            assert_agrees(index.local_star(LocalElement(f_terms), LocalElement(g_terms)), want)

    def test_reference_base_product_against_symmetric_weyl_terms(self):
        for p1, q1, p2, q2 in itertools.product(range(5), repeat=4):
            want: dict = {}
            for a, b, n, d in index.symmetric_weyl_terms(p1, q1, p2, q2):
                key = (p1 + p2 - a - b, q1 + q2 - a - b, a + b)
                want[key] = want.get(key, 0) + Fraction(n, d * 2 ** (a + b))
            assert ref_moyal_pair(p1, q1, p2, q2) == {key: w for key, w in want.items() if w}

    def test_rekeys_build_no_scalar_views(self, monkeypatch):
        f = exprs.parse_invariant("z^2*zb^2 + 1/3*i*h1*z*zb - h2")
        e = mul(parse_element("(z + zb)^2 + g"), parse_element("z*zb - 1/2*h1*g"))
        F = LocalElement.base_var("p", 1) * LocalElement.from_fiber(e)

        def no_view(*_args):
            raise AssertionError("a ScalarPoly was built")

        g_free = f.to_element()
        top = FormPoly.symbol("A", 4) * FormPoly.symbol("B", 4)
        wide = top + FormPoly.symbol("C", 4)
        narrow = FormPoly.symbol("A", 2)
        truncated = FormPoly.symbol("C", 2) + narrow

        monkeypatch.setattr(scalars, "_view", no_view)
        monkeypatch.setattr(scalars, "_scalar", no_view)
        monkeypatch.setattr(ScalarPoly, "__init__", no_view)
        assert not f.to_element().is_zero()
        assert not index.fiber_fold(F).is_zero()
        assert not LocalElement.from_fiber(e).is_zero()
        assert InvariantPoly.from_element(g_free) == f
        assert wide.degree_component(4) == top
        total = wide + narrow  # the A*B term lies above the smaller degree 2
        assert total == truncated and total.max_form_degree == 2

    def test_only_scalars_and_algebra_know_the_storage(self):
        # a module outside scalars and algebra's constructors reaches the
        # integer storage only through TermMap's operations
        hidden = {"_merge", "_stored", "_summed", "_lift", "accumulate", "_view", "_d", "_terms"}

        def storage_names(source: str) -> set[str]:
            names = set()
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.Name) and node.id in hidden - {"_d"}:
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr in hidden:
                    names.add(node.attr)
                elif isinstance(node, ast.alias) and node.name in hidden:
                    names.add(node.name)
            return names

        assert storage_names("from .scalars import _merge\nx = e._d + scalars._view(c, 1)") == {"_merge", "_d", "_view"}
        package = Path(scalars.__file__).parent
        modules = sorted(package.glob("*.py"))
        assert {"spherical.py", "index.py", "cli.py"} <= {path.name for path in modules}
        for path in modules:
            if path.name not in ("scalars.py", "algebra.py"):
                assert storage_names(path.read_text()) == set(), path.name
        # algebra builds its constructors' storage; the product kernel lives in TermMap.product
        assert storage_names((package / "algebra.py").read_text()) <= {"_stored", "_d", "_terms"}
        for gone in ("_summed", "_lift", "accumulate"):
            assert not hasattr(scalars, gone), gone

    def test_one_storage(self):
        for cls in KEYS:
            assert issubclass(cls, TermMap) and cls.__slots__ in ((), ("max_form_degree",))
            assert not hasattr(cls, "_zero_coeff")
        for name in ("__init__", "__add__", "__neg__", "scale", "subs_h2_zero", "__eq__", "__hash__",
                     "terms", "term_map", "coefficient"):
            assert name not in vars(SrcElement), name
        # a scalar is the term map over the one key (): it inherits the linear structure and the protocol
        assert issubclass(ScalarPoly, TermMap) and ScalarPoly.__slots__ == ()
        for name in ("is_zero", "__add__", "__sub__", "plus", "__neg__", "subs_h2_zero", "__eq__", "__hash__",
                     "__repr__", "__str__", "to_text"):
            assert name not in vars(ScalarPoly), name
        assert not hasattr(scalars, "_sum")


FORM_DEGREES = st.sampled_from([0, 2, 4, 6])
# (p, q) with p + q odd: monomials that are not invariant
ODD_PAIRS = st.tuples(st.integers(0, 5), st.integers(0, 5)).map(lambda k: (k[0], k[1] + 1 - sum(k) % 2))


class TestRekeyAndProductAgainstReference:
    """The ports onto TermMap.rekey and TermMap.product against the view-based
    code they replace, on values, term order, text and JSON."""

    @settings(max_examples=40, deadline=None)
    @given(term_map_pairs(FormPoly), FORM_DEGREES, FORM_DEGREES, FORM_DEGREES, COEFFS)
    def test_form_operations(self, pair, deg_a, deg_b, d, c):
        # operands truncated at different degrees
        a, b = FormPoly(pair[0], deg_a), FormPoly(pair[1], deg_b)
        ra, rb = RefForm(pair[0], deg_a), RefForm(pair[1], deg_b)
        for got, want in (
            (a + b, ref_form_add(ra, rb)),
            (a - b, ref_form_add(ra, -rb)),
            (a * b, ref_form_mul(ra, rb)),
            ((a + b) * (a - b), ref_form_mul(ref_form_add(ra, rb), ref_form_add(ra, -rb))),
            (a.degree_component(d), ref_degree_component(ra, d)),
            ((a * b).degree_component(d), ref_degree_component(ref_form_mul(ra, rb), d)),
            (a.scale(c), ra.scale(c)),
        ):
            assert_agrees(got, want)
            assert got.max_form_degree == want.max_form_degree

    @pytest.mark.parametrize("cls", list(KEYS), ids=lambda c: c.__name__)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_scale(self, cls, data):
        terms = data.draw(term_map_pairs(cls))[0]
        c = data.draw(COEFFS)
        a, ra = build(cls, terms), build(REFERENCE_OF[cls], terms)
        assert_agrees(a.scale(c), ra.scale(c))
        assert_agrees(a.scale(-c).scale(c), ra.scale(-c).scale(c))
        zero = a.scale(ScalarPoly.zero())
        assert_agrees(zero, ra.scale(ScalarPoly.zero()))
        assert zero._d == 1 and zero._terms == {}

    @settings(max_examples=30, deadline=None)
    @given(term_map_pairs(SrcElement), st.booleans())
    def test_from_element(self, pair, with_g):
        first, second = ({(p, q, 0): c for (p, q, _eps), c in terms.items()} for terms in pair)
        if with_g:
            second[(0, 0, 1)] = ScalarPoly.one()
        e = SrcElement(first) + SrcElement(second)
        re_ = RefElement(first) + RefElement(second)
        try:
            want = ref_from_element(re_)
        except ParityError as exc:
            with pytest.raises(ParityError) as got:
                InvariantPoly.from_element(e)
            odd = first_odd(key[:2] for key, _c in re_.terms())
            assert str(got.value) == (str(exc) if with_g else f"monomial z^{odd[0]} zb^{odd[1]} is not invariant")
        else:
            assert_agrees(InvariantPoly.from_element(e), want)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_from_element_names_the_first_odd_term(self, data):
        odd = data.draw(st.lists(ODD_PAIRS, min_size=2, max_size=3, unique=True))
        even = data.draw(st.lists(KEYS[InvariantPoly], max_size=3, unique=True))
        keys = data.draw(st.permutations(odd + even))
        terms = {(p, q, 0): data.draw(COEFFS.filter(lambda c: not c.is_zero())) for p, q in keys}
        with pytest.raises(ParityError):
            ref_from_element(RefElement(terms))
        with pytest.raises(ParityError) as got:
            InvariantPoly.from_element(SrcElement(terms))
        p, q = first_odd(key[:2] for key, _c in RefElement(terms).terms())
        assert str(got.value) == f"monomial z^{p} zb^{q} is not invariant"


def ref_parsed(src: str, atom_of):
    """The reference element of an expression, its atoms read off the package's."""
    return exprs._eval_generic(exprs.parse(src), atom_of)


def ref_element_atom(name, arg) -> RefElement:
    return RefElement(exprs._element_atom(name, arg).term_map())


def ref_local_atom(name, arg) -> RefLocal:
    if name[0] in "pq":
        return RefLocal(LocalElement.base_var(name[0], int(name[1:])).term_map())
    return RefLocal(LocalElement.from_fiber(exprs._element_atom(name, arg)).term_map())


def first_odd(keys) -> tuple[int, int] | None:
    return next(((p, q) for p, q in keys if (p + q) % 2), None)


def cli_stderr(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard error of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


COEFF_TEXT = st.sampled_from(["1", "-2", "1/3", "i", "(1-i)", "h1", "h2"])


def power_sums(name: str):
    """Sums of one to three scalar multiples of powers of one generator."""
    term = st.builds(f"{{}}*{name}^{{}}".format, COEFF_TEXT, st.integers(0, 3))
    return st.lists(term, min_size=1, max_size=3).map(lambda ts: "(" + " + ".join(ts) + ")")


# z-sums times zb-sums are in normal order already, so no g appears
FIBER_PRODUCTS = st.tuples(power_sums("z"), power_sums("zb")).map("*".join)
EXPRESSIONS = st.lists(FIBER_PRODUCTS, min_size=2, max_size=3).map(" - ".join)
LOCAL_EXPRESSIONS = st.lists(
    st.tuples(st.sampled_from(["p1", "q1", "p1*q1", "q1^2", "1"]), FIBER_PRODUCTS).map("*".join), min_size=2, max_size=3
).map(" + ".join)


class TestParityErrorsNameTheSameTerm:
    """Inputs with two or more non-invariant terms: star, trace and localtrace
    name the first one in the canonical term order of the reference value."""

    @settings(max_examples=40, deadline=None)
    @given(EXPRESSIONS, st.sampled_from(["star", "trace"]))
    def test_star_and_trace(self, src, command):
        keys = [key for key, _c in ref_parsed(src, ref_element_atom).terms()]
        assume(sum((p + q) % 2 for p, q, _eps in keys) >= 2)
        p, q = first_odd((p, q) for p, q, _eps in keys)
        argv = [command, src, "1"] if command == "star" else [command, src]
        assert cli_stderr(argv) == (2, f"error: monomial z^{p} zb^{q} is not invariant\n")

    @settings(max_examples=40, deadline=None)
    @given(LOCAL_EXPRESSIONS)
    def test_localtrace(self, src):
        folded = [key for key, _c in ref_fiber_fold(ref_parsed(src, ref_local_atom)).terms()]
        assume(sum((p + q) % 2 for _base, p, q, _eps in folded) >= 2)
        p, q = first_odd((p, q) for _base, p, q, _eps in folded)
        assert cli_stderr(["localtrace", "--n", "2", src]) == (2, f"error: fiber part z^{p} zb^{q} is not invariant\n")

    def test_localtrace_names_after_folding_g(self):
        # the fold of g adds zb after z, but zb comes first in canonical order
        assert cli_stderr(["localtrace", "--n", "1", "z + zb*g"]) == (2, "error: fiber part z^0 zb^1 is not invariant\n")

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(["star", "trace", "localtrace"]))
    def test_permuted_summands_give_the_same_message(self, data, command):
        # equal values spelled differently: the error depends on the value only
        base = st.sampled_from(["1", "p1", "q1", "p1*q1"]) if command == "localtrace" else st.just("1")
        keys = data.draw(st.lists(st.tuples(base, st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=5,
                                  unique=True))
        assume(sum((p + q) % 2 for _b, p, q in keys) >= 2)
        summands = [f"{data.draw(COEFF_TEXT)}*{b}*z^{p}*zb^{q}" for b, p, q in keys]
        calls = {
            "star": lambda src: ["star", src, "1"],
            "trace": lambda src: ["trace", src],
            "localtrace": lambda src: ["localtrace", "--n", "2", src],
        }
        runs = {cli_stderr(calls[command](" + ".join(order))) for order in (summands, data.draw(st.permutations(summands)))}
        assert len(runs) == 1 and runs.pop()[0] == 2


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
        a = SrcElement.monomial(2, 0) + SrcElement.monomial(0, 0, 1)
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

    @settings(max_examples=150, deadline=None)
    @given(kernel_elements(max_terms=4, max_degree=8), kernel_elements(max_terms=4, max_degree=8))
    def test_h2_and_g_sign_change_is_an_automorphism(self, a, b):
        # the relation is unchanged by (h2, g) -> (-h2, -g), which the table's
        # one polynomial per move count, split by the parity of h2, rests on
        def sigma(x: SrcElement) -> SrcElement:
            return SrcElement({(p, q, e): ScalarPoly({(h1, j): -c if (j + e) % 2 else c
                                                      for (h1, j), c in coeff.term_map().items()})
                               for (p, q, e), coeff in x.term_map().items()})

        assert mul(sigma(a), sigma(b)) == sigma(mul(a, b))

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

    def test_large_tables_are_built_but_not_kept(self):
        algebra._reorder.cache_clear()
        # the deep_nf ladder's largest table stays cached
        algebra._reorder(36, 36)
        assert algebra._reorder.cache_info().currsize == 1
        table = algebra._reorder(300, 300)
        assert algebra._reorder.cache_info().currsize == 1
        assert table[-1][:4] == (0, 0, 1, 300)  # built in full: 300 Dunkl moves reach z^0 zb^0
