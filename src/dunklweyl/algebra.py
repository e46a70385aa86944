"""Normal-form arithmetic in the rank-one symplectic reflection algebra.

The algebra is generated over the scalar ring by z, zb and the reflection g,
subject to

    z*zb - zb*z = i*h1*(1 + 2*h2*g),    g*z = -z*g,    g*zb = -zb*g,    g*g = 1.

Every element has a unique normal form as a finite sum c * z^p * zb^q * g^eps.
Multiplication reorders each zb^q * z^p by the Dunkl-operator action of zb on
powers of z (see _reorder), with a bounded cache keyed by (q, p).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .scalars import GaussianRational, ScalarPoly, TermMap, accumulate

TermKey = tuple[int, int, int]  # (z exponent, zb exponent, g exponent in {0,1})

# Keys (q, p) cached by _reorder; the suite battery touches about 200, all <= 14.
REORDER_CACHE_SIZE = 512
_MINUS_I_POWERS = ((1, 0), (0, -1), (-1, 0), (0, 1))  # (-i)^k as (re, im), by k % 4


@lru_cache(maxsize=REORDER_CACHE_SIZE)
def _reorder(q: int, p: int) -> tuple[tuple[TermKey, ScalarPoly], ...]:
    """Normal form of the word zb^q z^p as (key, coefficient) pairs.

    Starts from z^p and left-multiplies by zb q times.  On z^a zb^b g^e, zb
    acts as the rank-one Dunkl operator:

        zb z^a zb^b g^e = z^a zb^(b+1) g^e
                          - i h1 a z^(a-1) zb^b g^e
                          - 2 i h1 h2 (-1)^b [a odd] z^(a-1) zb^b g^(1-e).

    After k Dunkl moves a term is z^(p-k) zb^(q-k) g^e with coefficient
    (-i h1)^k times a polynomial in h2 with integer coefficients, so the loop
    runs on {h2 power: int} maps and wraps them into scalars once at the end.
    """
    top = min(p, q)
    polys: list[tuple[dict[int, int], dict[int, int]]] = [({}, {}) for _ in range(top + 1)]
    polys[0][0][0] = 1
    # Before each step polys[k][e] is the h2 polynomial of z^(p-k) zb^(step-k) g^e.
    # The pass move leaves it where it is; the Dunkl move adds into k + 1, so k
    # runs downwards and each source is read before this step adds to it.
    for step in range(q):
        for k in range(min(step, top - 1), -1, -1):
            a = p - k
            sign = -2 if (step - k) % 2 else 2
            for e in (0, 1):
                src = polys[k][e]
                same = polys[k + 1][e]
                for j, c in src.items():
                    same[j] = same.get(j, 0) + a * c
                if a % 2:
                    flip = polys[k + 1][1 - e]
                    for j, c in src.items():
                        flip[j + 1] = flip.get(j + 1, 0) + sign * c
    out = []
    for k, pair in enumerate(polys):
        re, im = _MINUS_I_POWERS[k % 4]
        for e, poly in enumerate(pair):
            coeff = {(k, j): GaussianRational.of(re * c, im * c) for j, c in poly.items() if c}
            if coeff:
                out.append(((p - k, q - k, e), ScalarPoly(coeff)))
    return tuple(out)


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

    def to_json(self) -> list:
        return [
            {"z": p, "zb": q, "g": eps, "coeff": c.to_json()}
            for (p, q, eps), c in self.terms()
        ]


def mul(a: SrcElement, b: SrcElement) -> SrcElement:
    """Exact product in normal form."""
    out: dict[TermKey, ScalarPoly] = {}
    for (p1, q1, e1), c1 in a._terms.items():
        for (p2, q2, e2), c2 in b._terms.items():
            c = c1 * c2
            # g^e1 crosses z^p2 zb^q2, picking up a sign per generator crossed
            if e1 == 1 and (p2 + q2) % 2 == 1:
                c = -c
            for (x_, y_, eps), r in _reorder(q1, p2):
                # the inner g (if any) still has to cross zb^q2
                cc = c * r
                if eps == 1 and q2 % 2 == 1:
                    cc = -cc
                accumulate(out, (p1 + x_, y_ + q2, eps ^ e1 ^ e2), cc)
    return a._new(out)


def commutator(a: SrcElement, b: SrcElement) -> SrcElement:
    return mul(a, b) - mul(b, a)


def idempotent() -> SrcElement:
    """The symmetrizing idempotent (1 + g)/2."""
    h = ScalarPoly.from_rational(Fraction(1, 2))
    return SrcElement({(0, 0, 0): h, (0, 0, 1): h})
