"""Normal-form arithmetic in the rank-one symplectic reflection algebra.

The algebra is generated over the scalar ring by z, zb and the reflection g,
subject to

    z*zb - zb*z = i*h1*(1 + 2*h2*g),    g*z = -z*g,    g*zb = -zb*g,    g*g = 1.

Every element has a unique normal form as a finite sum c * z^p * zb^q * g^eps.
An element stores its coefficients as integer pairs over one denominator.
Multiplication reorders each zb^q * z^p by the Dunkl-operator action of zb on
powers of z.  _reorder returns that normal form as integer tables, behind a
bounded cache keyed by (q, p); mul spreads one scalar product per term pair
over the table into one integer accumulator and divides out its content once
at the end.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import Iterator, Mapping

from .scalars import ScalarPoly, TermMap, _reduced

TermKey = tuple[int, int, int]  # (z exponent, zb exponent, g exponent in {0,1})
# One term's scalar: {(h1 exponent, h2 exponent): (r, s)}, numerators of (r + s*i)/d
Cells = dict[tuple[int, int], tuple[int, int]]

# Keys (q, p) cached by _reorder; the suite battery touches about 200, all <= 14.
REORDER_CACHE_SIZE = 512
_MINUS_I_SIGNS = (1, -1, -1, 1)  # (-i)^k = i^(k % 2) * sign, by k % 4


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
    entry (p-k, q-k, e, k, ((j, n), ...)) stands for
    z^(p-k) zb^(q-k) g^e * h1^k * i^(k % 2) * sum_j n * h2^j, n = (-i)^k n_j / i^(k % 2).
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
        sign = _MINUS_I_SIGNS[k % 4]
        for e, poly in enumerate(pair):
            row = tuple((j, sign * c) for j, c in poly.items() if c)
            if row:
                out.append((p - k, q - k, e, k, row))
    return tuple(out)


class SrcElement(TermMap):
    """Element of the reflection algebra in normal form.

    Stored as one denominator d > 0 and a term map from (p, q, eps) to
    integer pairs {(h1, h2): (r, s)}, standing for the sum of
    (r + s*i)/d * h1^h1 * h2^h2 * z^p * zb^q * g^eps, in lowest terms (gcd of
    d with every r and s is 1), so equal elements have equal storage and
    hashes.  terms(), term_map() and coefficient() build ScalarPoly views.
    """

    __slots__ = ("_d",)
    _printer = "element_to_text"
    _zero_coeff = ScalarPoly()

    def __init__(self, terms: Mapping | None = None):
        """The element sum coeff * z^p zb^q g^eps of a map (p, q, eps) -> ScalarPoly."""
        TermMap.__init__(self, terms)
        polys = self._terms
        # over the lcm of denominators in lowest terms the pairs are primitive
        d = self._d = lcm(*(c._d for poly in polys.values() for c in poly._terms.values()))
        self._terms = {
            key: {hk: (c._r * (d // c._d), c._s * (d // c._d)) for hk, c in poly._terms.items()}
            for key, poly in polys.items()
        }

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
    def one() -> "SrcElement":
        return _units(1, (0, 0, 0))

    @staticmethod
    def scalar(c: ScalarPoly) -> "SrcElement":
        return SrcElement({(0, 0, 0): c})

    @staticmethod
    def z(p: int = 1) -> "SrcElement":
        return _units(1, (p, 0, 0))

    @staticmethod
    def zb(q: int = 1) -> "SrcElement":
        return _units(1, (0, q, 0))

    @staticmethod
    def gamma() -> "SrcElement":
        return _units(1, (0, 0, 1))

    @staticmethod
    def monomial(p: int, q: int, eps: int = 0, coeff: ScalarPoly | None = None) -> "SrcElement":
        return SrcElement({(p, q, eps): coeff if coeff is not None else ScalarPoly.one()})

    @staticmethod
    def x() -> "SrcElement":
        """x = (z + zb)/2."""
        return _units(2, (1, 0, 0), (0, 1, 0))

    @staticmethod
    def y() -> "SrcElement":
        """y = (z - zb)/(2i) = -i/2 z + i/2 zb."""
        return _element({(1, 0, 0): {(0, 0): (0, -1)}, (0, 1, 0): {(0, 0): (0, 1)}}, 2)

    # -- views and queries ---------------------------------------------

    def terms(self) -> Iterator[tuple[TermKey, ScalarPoly]]:
        """Terms in canonical order."""
        return ((key, _view(self._terms[key], self._d)) for key in sorted(self._terms, key=self._order))

    def term_map(self) -> dict[TermKey, ScalarPoly]:
        return {key: _view(cells, self._d) for key, cells in self._terms.items()}

    def coefficient(self, key: TermKey) -> ScalarPoly:
        cells = self._terms.get(self._key(key))
        return self._zero_coeff if cells is None else _view(cells, self._d)

    def gamma_free(self) -> bool:
        return all(eps == 0 for (_p, _q, eps) in self._terms)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "SrcElement") -> "SrcElement":
        d = lcm(self._d, other._d)
        out = {key: _times(cells, d // self._d) for key, cells in self._terms.items()}
        m = d // other._d
        for key, cells in other._terms.items():
            mine = out.setdefault(key, {})
            for hk, (r, s) in cells.items():
                r0, s0 = mine.get(hk, (0, 0))
                r, s = r0 + r * m, s0 + s * m
                if r or s:
                    mine[hk] = (r, s)
                else:
                    del mine[hk]
            if not mine:
                del out[key]
        return _primitive(out, d)

    def __neg__(self) -> "SrcElement":
        neg = {key: {hk: (-r, -s) for hk, (r, s) in cells.items()} for key, cells in self._terms.items()}
        return _element(neg, self._d)

    def scale(self, c: ScalarPoly) -> "SrcElement":
        """Every coefficient times the scalar c."""
        return SrcElement({key: v * c for key, v in self.term_map().items()})

    def subs_h2_zero(self) -> "SrcElement":
        kept = {key: {hk: rs for hk, rs in cells.items() if hk[1] == 0} for key, cells in self._terms.items()}
        return _primitive({key: cells for key, cells in kept.items() if cells}, self._d)

    def __mul__(self, other: "SrcElement") -> "SrcElement":
        return mul(self, other)

    def __eq__(self, other: object) -> bool:
        if type(other) is not SrcElement:
            return NotImplemented
        return self._d == other._d and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._d, frozenset((k, frozenset(v.items())) for k, v in self._terms.items())))

    def to_json(self) -> list:
        return [
            {"z": p, "zb": q, "g": eps, "coeff": c.to_json()}
            for (p, q, eps), c in self.terms()
        ]


_new = object.__new__


def _element(terms: dict[TermKey, Cells], d: int) -> SrcElement:
    """An element around storage that is already in lowest terms."""
    out = _new(SrcElement)
    out._terms = terms
    out._d = d
    return out


def _units(d: int, *keys: TermKey) -> SrcElement:
    """The sum of z^p zb^q g^eps over keys, divided by d."""
    return _element({key: {(0, 0): (1, 0)} for key in keys}, d)


def _primitive(terms: dict[TermKey, Cells], d: int) -> SrcElement:
    """The element terms / d in lowest terms; divides the pairs of terms in place."""
    g = d
    for cells in terms.values():
        for r, s in cells.values():
            g = gcd(g, r, s)
            if g == 1:
                return _element(terms, d)
    for cells in terms.values():
        for hk, (r, s) in cells.items():
            cells[hk] = (r // g, s // g)
    return _element(terms, d // g)


def _times(cells: Cells, m: int) -> Cells:
    """A fresh copy of one term's pairs, each multiplied by m."""
    return {hk: (r * m, s * m) for hk, (r, s) in cells.items()} if m != 1 else dict(cells)


def _view(cells: Cells, d: int) -> ScalarPoly:
    """The ScalarPoly of one term's pairs over d, each coefficient reduced."""
    return ScalarPoly.from_clean({hk: _reduced(r, s, d) for hk, (r, s) in cells.items()})


def mul(a: SrcElement, b: SrcElement) -> SrcElement:
    """Exact product in normal form: one ScalarPoly product per term pair, of
    the terms' Gaussian-integer numerators, spread over the pair's _reorder
    table into {(p, q, eps): {(h1, h2): [r, s, visit]}} over a._d * b._d."""
    right = [(key, _view(cells, 1)) for key, cells in b._terms.items()]
    acc: dict[TermKey, dict] = {}
    visit = 0  # one per (term pair, table entry); each visit feeds one output term
    for (p1, q1, e1), cells1 in a._terms.items():
        n1 = _view(cells1, 1)
        for (p2, q2, e2), n2 in right:
            lifted = [(h1, h2, c._r, c._s) for (h1, h2), c in (n1 * n2)._terms.items()]
            # g^e1 crosses z^p2 zb^q2, picking up a sign per generator crossed
            flip = e1 == 1 and (p2 + q2) % 2 == 1
            for x, y, eps, k, row in _reorder(q1, p2):
                # the inner g (if any) still has to cross zb^q2
                negate = flip != (eps == 1 and q2 % 2 == 1)
                key = (p1 + x, y + q2, eps ^ e1 ^ e2)
                cells = acc.get(key)
                if cells is None:
                    cells = acc[key] = {}
                visit += 1
                # a row entry n stands for i^(k % 2) * n: odd k turns r + s*i by i
                odd = k % 2
                for h1, h2, r, s in lifted:
                    if odd:
                        r, s = -s, r
                    if negate:
                        r, s = -r, -s
                    h1 += k
                    for j, n in row:
                        hk = (h1, h2 + j)
                        cell = cells.get(hk)
                        if cell is None:
                            cells[hk] = [r * n, s * n, visit]
                        else:
                            cell[0] += r * n
                            cell[1] += s * n
    # Each group gives way to its nonzero pairs, so no second copy builds up.
    # Terms go in the order of the first visit that left a nonzero pair.
    firsts = []
    for key, cells in acc.items():
        kept = {hk: (r, s) for hk, (r, s, _visit) in cells.items() if r or s}
        if kept:
            firsts.append((cells[next(iter(kept))][2], key))
        acc[key] = kept
    return _primitive({key: acc[key] for _visit, key in sorted(firsts)}, a._d * b._d)


def commutator(a: SrcElement, b: SrcElement) -> SrcElement:
    return mul(a, b) - mul(b, a)


def idempotent() -> SrcElement:
    """The symmetrizing idempotent (1 + g)/2."""
    return _units(2, (0, 0, 0), (0, 0, 1))
