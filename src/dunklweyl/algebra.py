"""Normal-form arithmetic in the rank-one symplectic reflection algebra.

The algebra is generated over the scalar ring by z, zb and the reflection g,
subject to

    z*zb - zb*z = i*h1*(1 + 2*h2*g),    g*z = -z*g,    g*zb = -zb*g,    g*g = 1.

Every element has a unique normal form as a finite sum c * z^p * zb^q * g^eps.
Multiplication rewrites zb*z -> z*zb - i*h1*(1+2*h2*g) until no inversions
remain; the reordering of zb^q * z^p is memoized, keyed by (q, p).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .scalars import GaussianRational, ScalarPoly, TermMap, accumulate

TermKey = tuple[int, int, int]  # (z exponent, zb exponent, g exponent in {0,1})

# Memo tables for the rewriting engine.  Inserts are idempotent, so
# concurrent readers sharing these tables are safe.
_ZBQ_Z: dict[int, dict[TermKey, ScalarPoly]] = {}
_REORDER: dict[tuple[int, int], dict[TermKey, ScalarPoly]] = {}


def _zbq_z(q: int) -> dict[TermKey, ScalarPoly]:
    """Normal form of the word zb^q z, built one rewrite step at a time."""
    cached = _ZBQ_Z.get(q)
    if cached is not None:
        return cached
    if q == 0:
        result = {(1, 0, 0): ScalarPoly.one()}
        _ZBQ_Z[q] = result
        return result
    minus_ih1 = ScalarPoly.monomial(GaussianRational.of(0, -1), 1, 0)
    out: dict[TermKey, ScalarPoly] = {}
    for (a, b, eps), c in _zbq_z(q - 1).items():
        if a == 0:
            accumulate(out, (0, b + 1, eps), c)
        else:
            # zb * z * zb^b g^eps, one application of
            # zb z -> z zb - i h1 (1 + 2 h2 g), with g zb^b = (-1)^b zb^b g
            accumulate(out, (1, b + 1, eps), c)
            accumulate(out, (0, b, eps), minus_ih1 * c)
            two_h2 = ScalarPoly.monomial(GaussianRational.of(2 * (-1) ** b), 0, 1)
            accumulate(out, (0, b, eps ^ 1), minus_ih1 * two_h2 * c)
    _ZBQ_Z[q] = out
    return out


def _reorder(q: int, p: int) -> dict[TermKey, ScalarPoly]:
    """Normal form of the word zb^q z^p as a term map, memoized by (q, p)."""
    cached = _REORDER.get((q, p))
    if cached is not None:
        return cached
    if q == 0 or p == 0:
        result = {(p, q, 0): ScalarPoly.one()}
        _REORDER[(q, p)] = result
        return result
    # zb^q z^p = (zb^q z) z^(p-1); normalize the tail of each resulting word.
    out: dict[TermKey, ScalarPoly] = {}
    for (a, b, eps), c in _zbq_z(q).items():
        sign = -1 if (eps == 1 and (p - 1) % 2 == 1) else 1
        cc = c if sign == 1 else -c
        for (x, y, e2), r in _reorder(b, p - 1).items():
            accumulate(out, (x + a, y, e2 ^ eps), cc * r)
    _REORDER[(q, p)] = out
    return out


class SrcElement(TermMap):
    """Element of the reflection algebra in normal form.

    Term map from (p, q, eps) to a ScalarPoly coefficient, standing for
    coeff * z^p * zb^q * g^eps.
    """

    __slots__ = ()
    _printer = "element_to_text"
    _zero_coeff = ScalarPoly()

    def _key(self, key: TermKey) -> TermKey:
        p, q, eps = key
        if p < 0 or q < 0 or eps not in (0, 1):
            raise ValueError(f"bad term key {(p, q, eps)}")
        return key

    @staticmethod
    def _order(key: TermKey) -> tuple[int, int, int]:
        # canonical order: (eps, p, q)
        return (key[2], key[0], key[1])

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "SrcElement":
        return SrcElement()

    @staticmethod
    def one() -> "SrcElement":
        return SrcElement({(0, 0, 0): ScalarPoly.one()})

    @staticmethod
    def scalar(c: ScalarPoly) -> "SrcElement":
        return SrcElement({(0, 0, 0): c})

    @staticmethod
    def z(p: int = 1) -> "SrcElement":
        return SrcElement({(p, 0, 0): ScalarPoly.one()})

    @staticmethod
    def zb(q: int = 1) -> "SrcElement":
        return SrcElement({(0, q, 0): ScalarPoly.one()})

    @staticmethod
    def gamma() -> "SrcElement":
        return SrcElement({(0, 0, 1): ScalarPoly.one()})

    @staticmethod
    def monomial(p: int, q: int, eps: int = 0, coeff: ScalarPoly | None = None) -> "SrcElement":
        return SrcElement({(p, q, eps): coeff if coeff is not None else ScalarPoly.one()})

    @staticmethod
    def x() -> "SrcElement":
        """x = (z + zb)/2."""
        h = ScalarPoly.from_rational(Fraction(1, 2))
        return SrcElement({(1, 0, 0): h, (0, 1, 0): h})

    @staticmethod
    def y() -> "SrcElement":
        """y = (z - zb)/(2i) = -i/2 z + i/2 zb."""
        mi2 = ScalarPoly.from_rational(0, Fraction(-1, 2))
        pi2 = ScalarPoly.from_rational(0, Fraction(1, 2))
        return SrcElement({(1, 0, 0): mi2, (0, 1, 0): pi2})

    # -- queries -------------------------------------------------------

    def gamma_free(self) -> bool:
        return all(eps == 0 for (_p, _q, eps) in self._terms)

    def h2_bounded_by_h1(self) -> bool:
        return all(c.h2_bounded_by_h1() for c in self._terms.values())

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "SrcElement") -> "SrcElement":
        return mul(self, other)

    def pow(self, n: int) -> "SrcElement":
        if n < 0:
            raise ValueError("negative powers are not defined in the algebra")
        out = SrcElement.one()
        for _ in range(n):
            out = mul(out, self)
        return out

    def to_json(self) -> list:
        return [
            {"z": p, "zb": q, "g": eps, "coeff": c.to_json()}
            for (p, q, eps), c in self.terms()
        ]

    @staticmethod
    def from_json(data: Iterable) -> "SrcElement":
        return SrcElement(
            {(t["z"], t["zb"], t["g"]): ScalarPoly.from_json(t["coeff"]) for t in data}
        )


def mul(a: SrcElement, b: SrcElement) -> SrcElement:
    """Exact product in normal form."""
    out: dict[TermKey, ScalarPoly] = {}
    for (p1, q1, e1), c1 in a._terms.items():
        for (p2, q2, e2), c2 in b._terms.items():
            c = c1 * c2
            # g^e1 crosses z^p2 zb^q2, picking up a sign per generator crossed
            if e1 == 1 and (p2 + q2) % 2 == 1:
                c = -c
            for (x_, y_, eps), r in _reorder(q1, p2).items():
                # the inner g (if any) still has to cross zb^q2
                cc = c * r
                if eps == 1 and q2 % 2 == 1:
                    cc = -cc
                accumulate(out, (p1 + x_, y_ + q2, eps ^ e1 ^ e2), cc)
    return a._new(out)


def commutator(a: SrcElement, b: SrcElement) -> SrcElement:
    return mul(a, b) - mul(b, a)


def homogeneous_component(a: SrcElement, d: int) -> SrcElement:
    """The degree-d part under the grading |z| = |zb| = 1, |h1| = 2, |h2| = |g| = 0."""
    out: dict[TermKey, ScalarPoly] = {}
    for (p, q, eps), c in a._terms.items():
        kept = {
            (h1, h2): coeff
            for (h1, h2), coeff in c.terms()
            if p + q + 2 * h1 == d
        }
        if kept:
            out[(p, q, eps)] = ScalarPoly(kept)
    return SrcElement(out)


def idempotent() -> SrcElement:
    """The symmetrizing idempotent (1 + g)/2."""
    h = ScalarPoly.from_rational(Fraction(1, 2))
    return SrcElement({(0, 0, 0): h, (0, 0, 1): h})
