"""Normal-form arithmetic in the rank-one symplectic reflection algebra.

The algebra is generated over the scalar ring by z, zb and the reflection g,
subject to

    z*zb - zb*z = i*h1*(1 + 2*h2*g),    g*z = -z*g,    g*zb = -zb*g,    g*g = 1.

Every element has a unique normal form as a finite sum c * z^p * zb^q * g^eps.
Multiplication reorders each zb^q * z^p by the Dunkl-operator action of zb on
powers of z.  _reorder returns that normal form as integer tables, behind a
bounded cache keyed by (q, p); mul spreads one scalar product per term pair
over the table into one integer accumulator over a common denominator, and
reduces each output coefficient once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .scalars import ScalarPoly, TermMap, _reduced

TermKey = tuple[int, int, int]  # (z exponent, zb exponent, g exponent in {0,1})

# Keys (q, p) cached by _reorder; the suite battery touches about 200, all <= 14.
REORDER_CACHE_SIZE = 512
_MINUS_I_POWERS = ((1, 0), (0, -1), (-1, 0), (0, 1))  # (-i)^k as (re, im), by k % 4


@lru_cache(maxsize=REORDER_CACHE_SIZE)
def _reorder(q: int, p: int) -> tuple[tuple, ...]:
    """Normal form of the word zb^q z^p as integer tables.

    Starts from z^p and left-multiplies by zb q times.  On z^a zb^b g^e, zb
    acts as the rank-one Dunkl operator:

        zb z^a zb^b g^e = z^a zb^(b+1) g^e
                          - i h1 a z^(a-1) zb^b g^e
                          - 2 i h1 h2 (-1)^b [a odd] z^(a-1) zb^b g^(1-e).

    After k Dunkl moves a term is z^(p-k) zb^(q-k) g^e with coefficient
    (-i h1)^k times a polynomial in h2 with integer coefficients n_j.  Its
    entry (p-k, q-k, e, k, ((j, nr, ns), ...)) stands for
    z^(p-k) zb^(q-k) g^e * h1^k * sum_j (nr + ns*i) * h2^j, nr + ns*i = (-i)^k * n_j.
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
            row = tuple((j, re * c, im * c) for j, c in poly.items() if c)
            if row:
                out.append((p - k, q - k, e, k, row))
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


def _denominator(x: SrcElement) -> int:
    """lcm of the denominators of every coefficient of x."""
    return lcm(*{c._d for poly in x._terms.values() for c in poly._terms.values()})


def mul(a: SrcElement, b: SrcElement) -> SrcElement:
    """Exact product in normal form.

    One ScalarPoly product c1*c2 per term pair, lifted to integer numerators
    over den and spread over the pair's _reorder table into one accumulator
    keyed (p, q, eps, h1, h2); one gcd per output coefficient at the end.
    """
    den = _denominator(a) * _denominator(b)
    acc: dict[tuple[int, int, int, int, int], list[int]] = {}
    get = acc.get
    for (p1, q1, e1), c1 in a._terms.items():
        for (p2, q2, e2), c2 in b._terms.items():
            c = c1 * c2
            lifted = [
                (h1, h2, gr._r * (den // gr._d), gr._s * (den // gr._d))
                for (h1, h2), gr in c._terms.items()
            ]
            # g^e1 crosses z^p2 zb^q2, picking up a sign per generator crossed
            flip = e1 == 1 and (p2 + q2) % 2 == 1
            for x, y, eps, k, row in _reorder(q1, p2):
                # the inner g (if any) still has to cross zb^q2
                negate = flip != (eps == 1 and q2 % 2 == 1)
                p, q, e = p1 + x, y + q2, eps ^ e1 ^ e2
                # (-i)^k n is real for even k and imaginary for odd k, so a row
                # entry scales r + s*i, turned by i when k is odd, by nr + ns
                odd = k % 2
                for h1, h2, r, s in lifted:
                    if odd:
                        r, s = -s, r
                    if negate:
                        r, s = -r, -s
                    h1 += k
                    for j, nr, ns in row:
                        n = nr + ns
                        key = (p, q, e, h1, h2 + j)
                        cell = get(key)
                        if cell is None:
                            acc[key] = [r * n, s * n]
                        else:
                            cell[0] += r * n
                            cell[1] += s * n
    grouped: dict[TermKey, dict] = {}
    for (p, q, e, h1, h2), (r, s) in acc.items():
        if r or s:
            terms = grouped.get((p, q, e))
            if terms is None:
                terms = grouped[(p, q, e)] = {}
            terms[(h1, h2)] = _reduced(r, s, den)
    return a._new({key: ScalarPoly.from_clean(terms) for key, terms in grouped.items()})


def commutator(a: SrcElement, b: SrcElement) -> SrcElement:
    return mul(a, b) - mul(b, a)


def idempotent() -> SrcElement:
    """The symmetrizing idempotent (1 + g)/2."""
    h = ScalarPoly.from_rational(Fraction(1, 2))
    return SrcElement({(0, 0, 0): h, (0, 0, 1): h})
