"""Normal-form arithmetic in the rank-one symplectic reflection algebra.

The algebra is generated over the scalar ring by z, zb and the reflection g,
subject to

    z*zb - zb*z = i*h1*(1 + 2*h2*g),    g*z = -z*g,    g*zb = -zb*g,    g*g = 1.

Every element has a unique normal form as a finite sum c * z^p * zb^q * g^eps.
An element stores its coefficients as integer pairs over one denominator.
Multiplication reorders each zb^q * z^p by the Dunkl-operator action of zb on
powers of z.  _reorder returns that normal form as integer tables, behind a
bounded cache keyed by (q, p) that keeps only small tables; mul is one
TermMap.product, which spreads one ScalarPoly product per term pair over the
pair's table, keyed and signed by _spread.
"""

from __future__ import annotations

from functools import lru_cache

from .scalars import GR_ONE, GaussianRational, ScalarPoly, TermMap, _stored, gaussian

TermKey = tuple[int, int, int]  # (z exponent, zb exponent, g exponent in {0,1})

# Keys (q, p) cached by _reorder; the suite battery touches about 200, all <= 14.
REORDER_CACHE_SIZE = 512
# The largest m = min(q, p), the number of Dunkl moves, whose table _reorder keeps:
# at most 2*(m+1) entries of m+1 h2 powers, enough for the deep_nf ladder (m <= 36).
REORDER_CACHE_MAX_MOVES = 36
_MINUS_I_SIGNS = (1, -1, -1, 1)  # (-i)^k = i^(k % 2) * sign, by k % 4


def _reorder(q: int, p: int) -> tuple[tuple, ...]:
    """_reorder_table(q, p), kept in the cache when min(q, p) <= REORDER_CACHE_MAX_MOVES."""
    if min(q, p) > REORDER_CACHE_MAX_MOVES:
        return _reorder_table(q, p)
    return _cached_table(q, p)


def _reorder_table(q: int, p: int) -> tuple[tuple, ...]:
    """Normal form of the word zb^q z^p as integer tables.

    Starts from z^p and left-multiplies by zb q times.  On z^a zb^b g^e, zb
    acts as the rank-one Dunkl operator:

        zb z^a zb^b g^e = z^a zb^(b+1) g^e
                          - i h1 a z^(a-1) zb^b g^e
                          - 2 i h1 h2 (-1)^b [a odd] z^(a-1) zb^b g^(1-e).

    After k Dunkl moves the terms z^(p-k) zb^(q-k) g^e have coefficient (-i h1)^k
    times P_k = sum_j n_j h2^j, one integer polynomial for both e: a flip adds one
    h2 and toggles g, so e is the parity of j (the relation is unchanged by
    (h2, g) -> (-h2, -g)).  P_k gives one entry (p-k, q-k, e, k, ((j, n), ...))
    per parity e of its powers j, standing for
    z^(p-k) zb^(q-k) g^e * h1^k * i^(k % 2) * sum_j n * h2^j, n = (-i)^k n_j / i^(k % 2).
    """
    top = min(p, q)
    polys: list[dict[int, int]] = [{} for _ in range(top + 1)]
    polys[0][0] = 1
    # Before each step polys[k] is P_k of z^(p-k) zb^(step-k).  A Dunkl move adds into
    # k + 1, so k runs downwards and each source is read before this step adds to it.
    for step in range(q):
        for k in range(min(step, top - 1), -1, -1):
            a, dst = p - k, polys[k + 1]
            if a % 2:
                sign = -2 if (step - k) % 2 else 2
                for j, c in polys[k].items():
                    dst[j] = dst.get(j, 0) + a * c
                    dst[j + 1] = dst.get(j + 1, 0) + sign * c
            else:
                for j, c in polys[k].items():
                    dst[j] = dst.get(j, 0) + a * c
    rows = ((k, e, tuple((j, _MINUS_I_SIGNS[k % 4] * c) for j, c in poly.items() if c and j % 2 == e))
            for k, poly in enumerate(polys) for e in (0, 1))
    return tuple((p - k, q - k, e, k, row) for k, e, row in rows if row)


_cached_table = lru_cache(maxsize=REORDER_CACHE_SIZE)(_reorder_table)
_reorder.cache_info = _cached_table.cache_info
_reorder.cache_clear = _cached_table.cache_clear
_reorder.cache_parameters = _cached_table.cache_parameters


class SrcElement(TermMap):
    """Element of the reflection algebra in normal form.

    A term map from (p, q, eps) to scalars, standing for the sum of
    coeff * z^p * zb^q * g^eps; TermMap holds it as integer pairs over one
    denominator.
    """

    __slots__ = ()
    _printer = "element_to_text"

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
        return SrcElement.term((0, 0, 0))

    @staticmethod
    def scalar(c: ScalarPoly) -> "SrcElement":
        return SrcElement({(0, 0, 0): c})

    @staticmethod
    def monomial(p: int, q: int, eps: int = 0, coeff: ScalarPoly | None = None) -> "SrcElement":
        return SrcElement({(p, q, eps): coeff if coeff is not None else ScalarPoly.one()})

    @staticmethod
    def term(key: TermKey, c: GaussianRational = GR_ONE, h1: int = 0, h2: int = 0) -> "SrcElement":
        """c * h1^h1 * h2^h2 * z^p zb^q g^eps for a valid key."""
        return _stored(SrcElement, {} if c.is_zero() else {key: {(h1, h2): (c._r, c._s)}}, c._d)

    @staticmethod
    def x() -> "SrcElement":
        """x = (z + zb)/2."""
        return _stored(SrcElement, {(1, 0, 0): {(0, 0): (1, 0)}, (0, 1, 0): {(0, 0): (1, 0)}}, 2)

    @staticmethod
    def y() -> "SrcElement":
        """y = (z - zb)/(2i) = -i/2 z + i/2 zb."""
        return _stored(SrcElement, {(1, 0, 0): {(0, 0): (0, -1)}, (0, 1, 0): {(0, 0): (0, 1)}}, 2)

    # -- queries and arithmetic ------------------------------------------

    def constant(self) -> tuple[int, int, GaussianRational] | None:
        """(h1, h2, c) when self is the scalar c * h1^h1 * h2^h2, else None."""
        if len(self._terms) == 1 and len(cells := self._terms.get((0, 0, 0), ())) == 1:
            ((h1, h2), (r, s)), = cells.items()
            return h1, h2, gaussian(r, s, self._d)
        return None

    def gamma_free(self) -> bool:
        return all(eps == 0 for (_p, _q, eps) in self._terms)

    def __mul__(self, other: "SrcElement") -> "SrcElement":
        return mul(self, other)

    def to_json(self) -> list:
        return [
            {"z": p, "zb": q, "g": eps, "coeff": c.to_json()}
            for (p, q, eps), c in self.terms()
        ]


def mul(a: SrcElement, b: SrcElement) -> SrcElement:
    """Exact product in normal form: each term pair spread over its _reorder table."""
    return a.product(b, _spread)


def _spread(k1: TermKey, k2: TermKey) -> list[tuple]:
    """The entries of z^p1 zb^q1 g^e1 * z^p2 zb^q2 g^e2: the rows of _reorder(q1, p2), keyed and signed."""
    (p1, q1, e1), (p2, q2, e2) = k1, k2
    # g^e1 crosses z^p2 zb^q2, picking up a sign per generator crossed
    flip = e1 == 1 and (p2 + q2) % 2 == 1
    # the inner g (if any) still has to cross zb^q2
    return [((p1 + x, y + q2, eps ^ e1 ^ e2), -1 if flip != (eps == 1 and q2 % 2 == 1) else 1, k, k % 2, row)
            for x, y, eps, k, row in _reorder(q1, p2)]


def commutator(a: SrcElement, b: SrcElement) -> SrcElement:
    return mul(a, b) - mul(b, a)
