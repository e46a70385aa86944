"""Exact coefficient arithmetic for the deformation engine.

Scalars live in the Laurent-polynomial ring Q(i)[h1, h1^-1, h2]: Gaussian
rational coefficients, an integer power of the quantization parameter h1 and
a non-negative power of the reflection parameter h2.  All arithmetic is
exact; there is no floating point anywhere in this package.

One integer form serves the ring: a scalar is the term map over the one key
(), {(): {(h1, h2): (r, s)}} over one denominator in lowest terms (the
content/primitive part form of Knuth, TAOCP vol. 2, 4.6.1), so its linear
structure is TermMap's.  GaussianRational is the boundary value that the
parser folds constants with and the printers and JSON read.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:  # re and im import it when called, so no engine call loads it
    from fractions import Fraction


class NonInvertibleError(ValueError):
    """Raised when asked to invert a scalar that is not an invertible monomial."""


class SeriesDomainError(ValueError):
    """Raised when a series operation is applied outside its domain."""


class ParityError(ValueError):
    """Raised when a polynomial is not invariant under z, zb -> -z, -zb."""


class ExtractionError(RuntimeError):
    """Internal consistency failure: a product left the invariant corner."""


class GaussianRational:
    """A Gaussian rational (r + s*i) / d held as three Python integers.

    The boundary value of the scalar ring: the parser folds constants with
    `*` and `**`, the printers and JSON read `parts()`, and `inverse` serves
    `ScalarPoly.invert_monomial`; ScalarPoly itself stores integer pairs.
    The triple is kept in lowest terms: gcd(r, s, d) == 1 and d > 0, so equal
    values have equal triples and equal hashes.  Every value is built from
    integers by `gaussian`; only the `re` and `im` properties import Fraction.
    """

    __slots__ = ("_r", "_s", "_d")

    def __new__(cls, re=0, im=0):
        """re + im*i for ints or Fractions, read by numerator and denominator."""
        try:
            rn, rd, sn, sd = re.numerator, re.denominator, im.numerator, im.denominator
        except AttributeError:
            kinds = f"{type(re).__name__} and {type(im).__name__}"
            raise TypeError(f"expected ints or Fractions, got {kinds}") from None
        return gaussian(rn * sd, sn * rd, rd * sd)

    @staticmethod
    def of(re=0, im=0) -> "GaussianRational":
        return GaussianRational(re, im)

    @property
    def re(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._r, self._d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._s, self._d)

    def parts(self) -> tuple[int, int, int, int]:
        """(re numerator, re denominator, im numerator, im denominator) in
        lowest terms, with one gcd per part when neither is zero; what printers and JSON read."""
        r, s, d = self._r, self._s, self._d
        if not s:  # then gcd(r, d) is gcd(r, s, d), which is 1
            return r, d, 0, 1
        if not r:
            return 0, 1, s, d
        g, h = gcd(r, d), gcd(s, d)
        return r // g, d // g, s // h, d // h

    def __neg__(self) -> "GaussianRational":
        return gaussian(-self._r, -self._s, self._d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        r1, s1, r2, s2 = self._r, self._s, other._r, other._s
        return gaussian(r1 * r2 - s1 * s2, r1 * s2 + s1 * r2, self._d * other._d)

    def __pow__(self, k: int) -> "GaussianRational":
        """self**k for k >= 0: the numerator squared from the top bit, over d**k, reduced once."""
        if k < 0:
            raise ValueError(f"negative exponent {k}: only h1 has negative powers")
        r, s = 1, 0
        for bit in f"{k:b}":
            r, s = r * r - s * s, 2 * r * s
            if bit == "1":
                r, s = r * self._r - s * self._s, r * self._s + s * self._r
        return gaussian(r, s, self._d**k)

    def inverse(self) -> "GaussianRational":
        r = self._r
        s = self._s
        norm = r * r + s * s
        if not norm:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        d = self._d
        return gaussian(d * r, -d * s, norm)

    def is_zero(self) -> bool:
        return not self._r and not self._s

    def __eq__(self, other: object) -> bool:
        if type(other) is not GaussianRational:
            return NotImplemented
        return self._r == other._r and self._s == other._s and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._r, self._s, self._d))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"


_new = object.__new__


def gaussian(r: int, s: int, d: int) -> GaussianRational:
    """The Gaussian rational (r + s*i) / d of integers, d != 0, in lowest terms."""
    if d < 0:
        r, s, d = -r, -s, -d
    if d != 1:
        g = gcd(r, s, d)
        if g != 1:
            r //= g
            s //= g
            d //= g
    out = _new(GaussianRational)
    out._r = r
    out._s = s
    out._d = d
    return out


GR_ONE = GaussianRational.of(1)
GR_I = GaussianRational.of(0, 1)


# The cells of one term's scalar in a term map, so also of a ScalarPoly, the
# term map over the one key (): {(h1 exponent, h2 exponent): (r, s)},
# numerators of (r + s*i)/d over one denominator d.
Cells = dict[tuple[int, int], tuple[int, int]]


def _content(cell_maps: Iterable[Cells], d: int) -> int:
    """The gcd of d with every pair of the cell maps, cut short at 1."""
    g = d
    for cells in cell_maps:
        for r, s in cells.values():
            if g == 1:
                return 1
            g = gcd(g, r, s)
    return g


def _lowest(cell_maps: Iterable[Cells], d: int) -> int:
    """The denominator of cell_maps / d in lowest terms; divides their pairs in place."""
    g = _content(cell_maps, d)
    if g != 1:
        for cells in cell_maps:
            for hk, (r, s) in cells.items():
                cells[hk] = (r // g, s // g)
    return d // g


def _scalar(cells: Cells, d: int) -> ScalarPoly:
    """The ScalarPoly cells / d, d > 0, brought to lowest terms; cells must be
    its own, hold no zero pair and no negative h2 exponent."""
    out = _new(ScalarPoly)
    out._terms = {(): cells} if cells else {}
    out._d = d if d == 1 else _lowest((cells,), d)
    return out


def _view(cells: Cells, d: int) -> ScalarPoly:
    """The ScalarPoly of one term's pairs over d: it shares cells, which nothing
    may divide in place, only when they are in lowest terms over d."""
    return _scalar(cells if d == 1 or _content((cells,), d) == 1 else dict(cells), d)


def _merge(out: dict, key, cells: Cells, m: int = 1) -> None:
    """Add m * cells into out[key]: the one merge of every term map.

    A pair or key that cancels drops.  Copies cells on first sight, so out
    owns every pair map it holds.
    """
    mine = out.get(key)
    if mine is None:
        out[key] = {hk: (r * m, s * m) for hk, (r, s) in cells.items()}
        return
    for hk, (r, s) in cells.items():
        r0, s0 = mine.get(hk, (0, 0))
        r, s = r0 + r * m, s0 + s * m
        if r or s:
            mine[hk] = (r, s)
        else:
            del mine[hk]
    if not mine:
        del out[key]


def _stored(cls, terms: dict, d: int):
    """A cls around terms / d in lowest terms; terms must be its own."""
    out = _new(cls)
    out._terms = terms
    out._d = d if d == 1 else _lowest(terms.values(), d)
    return out


def one_key(key) -> tuple:
    """The spread of a product of keys that is key alone: one entry, or none for a None key."""
    return () if key is None else ((key, 1, 0, 0, ((0, 1),)),)


class TermMap:
    """Sparse map from monomial keys to nonzero scalars in Q(i)[h1^+-1, h2].

    The linear structure of every element container and of the scalars
    themselves, stored as one denominator d > 0 and {key: {(h1, h2): (r, s)}},
    standing for the sum of (r + s*i)/d * h1^h1 * h2^h2 * key.  The storage
    is in lowest terms (the gcd of d with every r and s is 1, and zero has
    d == 1), so equal values have equal storage and hashes; its order is
    unspecified.  A subclass checks and normalises keys (`_key`, whose None
    drops a term) and chooses the printer in the exprs module and the
    canonical term order (`_order`) of terms(), the printers and every error
    that names a term.

    Containers reach the storage through the constructor, which sums (key,
    coefficient) pairs, and two operations besides the linear structure:
    rekey moves every term to a new key, and product, the one bilinear kernel,
    spreads each product of keys over weighted keys (mul, star, local_star,
    the FormPoly product and scale are each one call).  The constructor and
    rekey merge through _merge; terms(), term_map() and coefficient() build
    ScalarPoly views, and a scalar's cells are read through its key ().
    Instances are treated as immutable.
    """

    __slots__ = ("_terms", "_d")
    _printer: str  # name of the canonical printer in the exprs module

    def __init__(self, terms: Mapping | Iterable[tuple] | None = None):
        """The sum of coeff * key over (key, ScalarPoly coeff) pairs, or over a
        map's items, merged once over the lcm of the denominators.  Every key
        is checked in input order, also one whose coefficient is zero."""
        if isinstance(terms, Mapping):
            terms = terms.items()
        checked = ((self._key(key), c) for key, c in terms or ())
        pairs = [(key, c) for key, c in checked if key is not None and c._terms]
        d = lcm(*(c._d for _, c in pairs))
        out: dict = {}
        for key, c in pairs:
            _merge(out, key, c._terms[()], d // c._d)
        self._terms = out
        self._d = _lowest(out.values(), d)

    @staticmethod
    def _order(key):
        """Sort key of a term key in canonical order."""
        return key

    def _new(self, terms: dict, d: int):
        """An instance of this class around terms / d, brought to lowest terms."""
        return _stored(type(self), terms, d)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator:
        """Terms in canonical order, with ScalarPoly coefficients."""
        d = self._d
        return ((key, _view(self._terms[key], d)) for key in sorted(self._terms, key=self._order))

    def term_map(self) -> dict:
        return {key: _view(cells, self._d) for key, cells in self._terms.items()}

    def coefficient(self, key) -> ScalarPoly:
        """The coefficient of one monomial; zero when it is absent."""
        cells = self._terms.get(self._key(key))
        return ScalarPoly() if cells is None else _view(cells, self._d)

    # -- linear structure ----------------------------------------------

    def __add__(self, other):
        return self.plus(((1, other),))

    def __sub__(self, other):
        return self + (-other)

    def plus(self, parts):
        """self plus sign * x for each (sign, x) in parts, merged once over the lcm of the denominators."""
        parts = ((1, self), *parts)
        d = lcm(*(x._d for _sign, x in parts))
        out: dict = {}
        for sign, x in parts:
            for key, cells in x._terms.items():
                _merge(out, key, cells, sign * (d // x._d))
        return self._new(out, d)

    def __neg__(self):
        neg = {key: {hk: (-r, -s) for hk, (r, s) in cells.items()} for key, cells in self._terms.items()}
        return self._new(neg, self._d)

    def scale(self, c: ScalarPoly):
        """Every coefficient times the scalar c: the product with c, a term map over the key ()."""
        return self.product(c, lambda key, _unit: one_key(key))

    def subs_h2_zero(self):
        kept = {key: {hk: rs for hk, rs in cells.items() if hk[1] == 0} for key, cells in self._terms.items()}
        return self._new({key: cells for key, cells in kept.items() if cells}, self._d)

    # -- re-keys and products --------------------------------------------

    def rekey(self, fn, cls=None):
        """The sum of coeff * fn(key) over the terms, as a cls (default: built
        as self).  A None key drops its term.  fn sees the keys in canonical
        order, so an error it raises names the first offending term."""
        out: dict = {}
        for key in sorted(self._terms, key=self._order):
            new = fn(key)
            if new is not None:
                _merge(out, new, self._terms[key])
        return self._new(out, self._d) if cls is None else _stored(cls, out, self._d)

    def product(self, other, spread):
        """The bilinear product, built as self, that spreads the product of keys k1, k2 over spread(k1, k2).

        spread gives entries (key, sign, h, t, row), each standing for the integer sign *
        i^t * h1^h * sum n * h2^j over the (j, n) in row, times key, with t 0 or 1.  A pair
        of terms with an entry makes one ScalarPoly product of their Gaussian-integer
        numerators, whose pairs (turned by i for t = 1, each list built on first use) go
        one row entry at a time into one integer accumulator over self._d * other._d.
        """
        right = [(key, _view(cells, 1)) for key, cells in other._terms.items()]
        acc: dict = {}
        for k1, cells1 in self._terms.items():
            n1 = _view(cells1, 1)
            for k2, n2 in right:
                entries = spread(k1, k2)
                if not entries:
                    continue
                # a product of nonzero Gaussian-integer polynomials is nonzero
                prod = (n1 * n2)._terms[()].items()
                turns = [None, None]
                for key, sign, h, t, row in entries:
                    if turns[t] is None:
                        turns[t] = [(a, b, -s, r) if t else (a, b, r, s) for (a, b), (r, s) in prod]
                    cells = acc.get(key)
                    if cells is None:
                        cells = acc[key] = {}
                    for j, n in row:
                        n *= sign
                        for h1, h2, r, s in turns[t]:
                            hk = (h1 + h, h2 + j)
                            cell = cells.get(hk)
                            if cell is None:
                                cells[hk] = [r * n, s * n]
                            else:
                                cell[0] += r * n
                                cell[1] += s * n
        # each group gives way to its nonzero pairs in place, so no second copy builds up
        for key, cells in acc.items():
            acc[key] = {hk: (r, s) for hk, (r, s) in cells.items() if r or s}
        for key in [key for key, cells in acc.items() if not cells]:
            del acc[key]
        return self._new(acc, self._d * other._d)

    # -- protocol ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._d == other._d and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._d, frozenset((k, frozenset(v.items())) for k, v in self._terms.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()})"

    def __str__(self) -> str:
        return self.to_text()

    def to_text(self) -> str:
        from . import exprs

        return getattr(exprs, self._printer)(self)


class ScalarPoly(TermMap):
    """Finite sum of terms c * h1^a * h2^b with Gaussian rational c.

    The coefficient ring of every term map, and itself the term map over the
    one key (): {(): {(a, b): (r, s)}} over a denominator d > 0 ({} for zero),
    standing for the sum of (r + s*i)/d * h1^a * h2^b.  TermMap gives it the
    linear structure, h2 -> 0, equality, hashing and printing; it adds the
    ring product, one Gaussian-integer convolution of the pairs over the
    product of the denominators, reduced once, and views keyed (a, b) with
    GaussianRational values.  The h1 exponent may be negative, the h2
    exponent may not.  Instances may share their pairs with a term map.
    """

    __slots__ = ()
    _printer = "scalar_to_text"

    def __init__(self, terms: Mapping | None = None):
        """The sum of c * h1^a * h2^b over a map (a, b) -> GaussianRational c."""
        terms = terms or {}
        if any(b < 0 for _a, b in terms):
            raise ValueError("h2 exponent must be non-negative")
        terms = {hk: c for hk, c in terms.items() if not c.is_zero()}
        # over the lcm of the reduced denominators the pairs are in lowest terms
        d = self._d = lcm(*(c._d for c in terms.values()))
        cells = {hk: (c._r * (d // c._d), c._s * (d // c._d)) for hk, c in terms.items()}
        self._terms = {(): cells} if cells else {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "ScalarPoly":
        return ScalarPoly()

    @staticmethod
    def one() -> "ScalarPoly":
        return ScalarPoly({(0, 0): GR_ONE})

    @staticmethod
    def from_rational(x, y=0) -> "ScalarPoly":
        """The constant x + y*i."""
        return ScalarPoly({(0, 0): GaussianRational.of(x, y)})

    @staticmethod
    def i() -> "ScalarPoly":
        return ScalarPoly({(0, 0): GR_I})

    @staticmethod
    def monomial(c: GaussianRational, h1: int = 0, h2: int = 0) -> "ScalarPoly":
        return ScalarPoly({(h1, h2): c})

    @staticmethod
    def h1(power: int = 1) -> "ScalarPoly":
        return ScalarPoly({(power, 0): GR_ONE})

    @staticmethod
    def h2(power: int = 1) -> "ScalarPoly":
        return ScalarPoly({(0, power): GR_ONE})

    # -- queries -------------------------------------------------------

    def is_one(self) -> bool:
        return self._d == 1 and self._terms == {(): {(0, 0): (1, 0)}}

    def terms(self) -> Iterator[tuple[tuple[int, int], GaussianRational]]:
        """Terms in canonical order: by (h1, h2) exponent."""
        d = self._d
        return ((hk, gaussian(r, s, d)) for hk, (r, s) in sorted(self._terms.get((), {}).items()))

    def term_map(self) -> dict[tuple[int, int], GaussianRational]:
        return dict(self.terms())

    def coefficient(self, key: tuple[int, int]) -> GaussianRational:
        r, s = self._terms.get((), {}).get(key, (0, 0))
        return gaussian(r, s, self._d)

    # -- arithmetic ----------------------------------------------------

    def scale(self, c: GaussianRational) -> "ScalarPoly":
        """Every coefficient times the Gaussian rational c."""
        cr, cs = c._r, c._s
        cells = {hk: (r * cr - s * cs, r * cs + s * cr) for hk, (r, s) in self._terms.get((), {}).items()}
        return _scalar(cells if cr or cs else {}, self._d * c._d)

    def __mul__(self, other: "ScalarPoly") -> "ScalarPoly":
        """One Gaussian-integer convolution of the pairs over the product of the denominators."""
        if not (self._terms and other._terms):
            return _scalar({}, 1)
        t1, t2 = self._terms[()], other._terms[()]
        if len(t1) < len(t2):
            t1, t2 = t2, t1
        if len(t2) == 1:  # times one term: no two products meet and none is zero
            ((a2, b2), (r2, s2)), = t2.items()
            cells = {(a1 + a2, b1 + b2): (r1 * r2 - s1 * s2, r1 * s2 + s1 * r2)
                     for (a1, b1), (r1, s1) in t1.items()}
            return _scalar(cells, self._d * other._d)
        out: dict = {}
        for (a1, b1), (r1, s1) in t1.items():
            for (a2, b2), (r2, s2) in t2.items():
                hk = (a1 + a2, b1 + b2)
                r, s = r1 * r2 - s1 * s2, r1 * s2 + s1 * r2
                cell = out.get(hk)
                out[hk] = (r, s) if cell is None else (cell[0] + r, cell[1] + s)
        return _scalar({hk: (r, s) for hk, (r, s) in out.items() if r or s}, self._d * other._d)

    def invert_monomial(self) -> "ScalarPoly":
        """Inverse of a single-term scalar c*h1^a; anything else is rejected.

        h2 has no inverse in this ring, so a nonzero h2 exponent is an error.
        """
        cells = self._terms.get((), {})
        if len(cells) != 1:
            raise NonInvertibleError("only monomial scalars are invertible")
        ((a, b), (r, s)), = cells.items()
        if b != 0:
            raise NonInvertibleError("h2 is not invertible")
        c = gaussian(r, s, self._d).inverse()
        return _scalar({(-a, 0): (c._r, c._s)}, c._d)

    def to_json(self) -> list:
        """Canonical JSON form: sorted [a, b, re_num, re_den, im_num, im_den]."""
        return [[a, b, *c.parts()] for (a, b), c in self.terms()]


def dot(pairs: Iterable[tuple[ScalarPoly, ScalarPoly]]) -> ScalarPoly:
    """sum a * b over the pairs, merged once: the one step of every
    truncated-series operation.  A pair with a zero factor is skipped."""
    return ScalarPoly().plus((1, a * b) for a, b in pairs if a._terms and b._terms)


class TruncSeries:
    """Power series in one formal variable, truncated at a fixed order.

    coeffs[k] is the ScalarPoly coefficient of x^k for k = 0..order.
    Binary operations truncate to the smaller order; coefficients beyond
    the truncation order are discarded, never invented.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable[ScalarPoly], order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be non-negative")
        coeffs = coeffs[: order + 1]
        coeffs += [ScalarPoly.zero()] * (order + 1 - len(coeffs))
        self.coeffs = coeffs
        self.order = order

    @staticmethod
    def one(order: int) -> "TruncSeries":
        return TruncSeries([ScalarPoly.one()], order)

    @staticmethod
    def x(order: int) -> "TruncSeries":
        return TruncSeries([ScalarPoly.zero(), ScalarPoly.one()], order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        inner = ", ".join(c.to_text() for c in self.coeffs)
        return f"TruncSeries([{inner}], order={self.order})"

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        return TruncSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], min(self.order, other.order))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return TruncSeries([a - b for a, b in zip(self.coeffs, other.coeffs)], min(self.order, other.order))

    def __neg__(self) -> "TruncSeries":
        return TruncSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        """Coefficient m of the product is sum_{j <= m} self[j] * other[m-j]."""
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return TruncSeries([dot((a[j], b[m - j]) for j in range(m + 1)) for m in range(n + 1)], n)

    def scale(self, c: ScalarPoly) -> "TruncSeries":
        return TruncSeries([c * a for a in self.coeffs], self.order)

    def scale_argument(self, c: ScalarPoly) -> "TruncSeries":
        """Substitute x -> c*x, i.e. multiply coeffs[k] by c^k (a running power)."""
        powers = [ScalarPoly.one()]
        for _ in self.coeffs[1:]:
            powers.append(powers[-1] * c)
        return TruncSeries([c_k * a for c_k, a in zip(powers, self.coeffs)], self.order)


def series_exp(s: TruncSeries) -> TruncSeries:
    """exp of a series with zero constant term, from E' = s'E:
    n*E[n] = sum_{1 <= k <= n} k*s[k] * E[n-k]."""
    if not s.coeffs[0].is_zero():
        raise SeriesDomainError("series_exp needs a zero constant term")
    ds = [c.scale(gaussian(k, 0, 1)) for k, c in enumerate(s.coeffs)]
    out = [ScalarPoly.one()]
    for n in range(1, s.order + 1):
        out.append(dot((ds[k], out[n - k]) for k in range(1, n + 1)).scale(gaussian(1, 0, n)))
    return TruncSeries(out, s.order)


def series_log(s: TruncSeries) -> TruncSeries:
    """log of a series with constant term 1, from s*L' = s':
    n*L[n] = n*s[n] - sum_{1 <= k < n} k*L[k] * s[n-k]."""
    if not s.coeffs[0].is_one():
        raise SeriesDomainError("series_log needs constant term 1")
    c = s.coeffs
    dl = [ScalarPoly.zero()]  # dl[k] = k*L[k]
    for n in range(1, s.order + 1):
        dl.append(c[n].scale(gaussian(n, 0, 1)) - dot((dl[k], c[n - k]) for k in range(1, n)))
    return TruncSeries([d.scale(gaussian(1, 0, max(n, 1))) for n, d in enumerate(dl)], s.order)


def series_sqrt(s: TruncSeries) -> TruncSeries:
    """Square root of a series with constant term 1, from R^2 = s and R[0] = 1:
    2*R[n] = s[n] - sum_{0 < k < n} R[k] * R[n-k]."""
    if not s.coeffs[0].is_one():
        raise SeriesDomainError("series_sqrt needs constant term 1")
    out = [ScalarPoly.one()]
    for n in range(1, s.order + 1):
        out.append((s.coeffs[n] - dot((out[k], out[n - k]) for k in range(1, n))).scale(gaussian(1, 0, 2)))
    return TruncSeries(out, s.order)


def series_inverse(s: TruncSeries) -> TruncSeries:
    """Multiplicative inverse; c0 = s[0] must be an invertible monomial:
    out[n] = -c0^-1 * sum_{1 <= k <= n} s[k] * out[n-k]."""
    c = s.coeffs
    c0 = c[0].invert_monomial()
    out = [c0]
    for n in range(1, s.order + 1):
        out.append(-(c0 * dot((c[k], out[n - k]) for k in range(1, n + 1))))
    return TruncSeries(out, s.order)
