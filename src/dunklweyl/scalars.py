"""Exact coefficient arithmetic for the deformation engine.

Scalars live in the Laurent-polynomial ring Q(i)[h1, h1^-1, h2]: Gaussian
rational coefficients, an integer power of the quantization parameter h1 and
a non-negative power of the reflection parameter h2.  All arithmetic is
exact; there is no floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Iterable, Iterator, Mapping


class NonInvertibleError(ValueError):
    """Raised when asked to invert a scalar that is not an invertible monomial."""


class SeriesDomainError(ValueError):
    """Raised when a series operation is applied outside its domain."""


class ParityError(ValueError):
    """Raised when a polynomial is not invariant under z, zb -> -z, -zb."""


class ExtractionError(RuntimeError):
    """Internal consistency failure: a product left the invariant corner."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussianRational:
    """A Gaussian rational (r + s*i) / d held as three Python integers.

    The triple is kept in lowest terms: gcd(r, s, d) == 1 and d > 0, so equal
    values have equal triples and equal hashes.  Arithmetic uses integer
    products and one gcd per result; Fraction appears only at the boundary,
    in the constructor and in the `re` and `im` properties.
    """

    __slots__ = ("_r", "_s", "_d")

    def __init__(self, re=0, im=0):
        re, im = _frac(re), _frac(im)
        d = lcm(re.denominator, im.denominator)
        self._r = re.numerator * (d // re.denominator)
        self._s = im.numerator * (d // im.denominator)
        self._d = d

    @staticmethod
    def of(re=0, im=0) -> "GaussianRational":
        return GaussianRational(re, im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._r, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._s, self._d)

    # __add__ and __mul__ run once per coefficient sum and product of every
    # engine layer, so they inline _reduced instead of calling it.

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d1 = self._d
        d2 = other._d
        if d1 == d2:
            r = self._r + other._r
            s = self._s + other._s
            d = d1
        else:
            r = self._r * d2 + other._r * d1
            s = self._s * d2 + other._s * d1
            d = d1 * d2
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

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return self + -other

    def __neg__(self) -> "GaussianRational":
        out = _new(GaussianRational)
        out._r = -self._r
        out._s = -self._s
        out._d = self._d
        return out

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        r1 = self._r
        s1 = self._s
        r2 = other._r
        s2 = other._s
        # Most engine coefficients are purely real or purely imaginary.
        if not s1:
            r = r1 * r2
            s = r1 * s2
        elif not r1:
            r = -s1 * s2
            s = s1 * r2
        else:
            r = r1 * r2 - s1 * s2
            s = r1 * s2 + s1 * r2
        d = self._d * other._d
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

    def inverse(self) -> "GaussianRational":
        r = self._r
        s = self._s
        norm = r * r + s * s
        if not norm:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        d = self._d
        return _reduced(d * r, -d * s, norm)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        return self * other.inverse()

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


def _reduced(r: int, s: int, d: int) -> GaussianRational:
    """The Gaussian rational (r + s*i) / d, d > 0, brought to lowest terms."""
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


GR_ZERO = GaussianRational.of(0)
GR_ONE = GaussianRational.of(1)
GR_I = GaussianRational.of(0, 1)


def accumulate(out: dict, key, value) -> None:
    """Add value to out[key], dropping the entry when the sum is zero.

    The one place where a term map is summed into; values need `+` and
    `is_zero`.
    """
    s = out.get(key)
    s = value if s is None else s + value
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


class TermMap:
    """Sparse map from monomial keys to nonzero coefficients.

    The linear structure shared by every coefficient container.  A subclass
    chooses how keys are checked (`_key`), the canonical term order
    (`_order`), the zero coefficient returned for absent keys and the
    printer in the exprs module.  Zero coefficients are never stored, and
    instances are treated as immutable.
    """

    __slots__ = ("_terms",)
    _printer: str  # name of the canonical printer in the exprs module
    _zero_coeff: object  # the coefficient of an absent key

    def __init__(self, terms: Mapping | None = None):
        cleaned: dict = {}
        if terms:
            for key, c in terms.items():
                key = self._key(key)
                if key is not None:
                    accumulate(cleaned, key, c)
        self._terms = cleaned

    def _key(self, key):
        """The checked, normalised form of a key; None drops the term."""
        return key

    @staticmethod
    def _order(key):
        """Sort key of a term key in canonical order."""
        return key

    def _new(self, terms: dict):
        """An instance of this class around terms that are already clean."""
        out = object.__new__(type(self))
        out._terms = terms
        return out

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator:
        """Terms in canonical order."""
        order = self._order
        return iter(sorted(self._terms.items(), key=lambda kv: order(kv[0])))

    def term_map(self) -> dict:
        return dict(self._terms)

    def coefficient(self, key):
        """The coefficient of one monomial; zero when it is absent."""
        return self._terms.get(self._key(key), self._zero_coeff)

    # -- linear structure ----------------------------------------------

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
        """Every coefficient times c (the coefficient ring has no zero divisors)."""
        if c.is_zero():
            return self._new({})
        return self._new({k: v * c for k, v in self._terms.items()})

    def subs_h2_zero(self):
        out: dict = {}
        for key, c in self._terms.items():
            accumulate(out, key, c.subs_h2_zero())
        return self._new(out)

    # -- protocol ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()})"

    def __str__(self) -> str:
        return self.to_text()

    def to_text(self) -> str:
        from . import exprs

        return getattr(exprs, self._printer)(self)


class ScalarPoly(TermMap):
    """Finite sum of terms c * h1^a * h2^b with Gaussian rational c.

    The h1 exponent may be negative, the h2 exponent may not.
    """

    __slots__ = ()
    _printer = "scalar_to_text"
    _zero_coeff = GR_ZERO

    def _key(self, key: tuple[int, int]) -> tuple[int, int]:
        _a, b = key
        if b < 0:
            raise ValueError("h2 exponent must be non-negative")
        return key

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
    def from_clean(terms: dict) -> "ScalarPoly":
        """A ScalarPoly around a term map with valid keys and no zero coefficient."""
        out = _new(ScalarPoly)
        out._terms = terms
        return out

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
        return self._terms == {(0, 0): GR_ONE}

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "ScalarPoly") -> "ScalarPoly":
        out: dict[tuple[int, int], GaussianRational] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                accumulate(out, (a1 + a2, b1 + b2), c1 * c2)
        return self._new(out)

    def pow(self, n: int) -> "ScalarPoly":
        if n < 0:
            return self.invert_monomial().pow(-n)
        out = ScalarPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def invert_monomial(self) -> "ScalarPoly":
        """Inverse of a single-term scalar c*h1^a; anything else is rejected.

        h2 has no inverse in this ring, so a nonzero h2 exponent is an error.
        """
        if len(self._terms) != 1:
            raise NonInvertibleError("only monomial scalars are invertible")
        ((a, b), c), = self._terms.items()
        if b != 0:
            raise NonInvertibleError("h2 is not invertible")
        return ScalarPoly({(-a, 0): c.inverse()})

    def subs_h2_zero(self) -> "ScalarPoly":
        return self._new({k: c for k, c in self._terms.items() if k[1] == 0})

    def to_json(self) -> list:
        """Canonical JSON form: sorted [a, b, re_num, re_den, im_num, im_den]."""
        out = []
        for (a, b), c in self.terms():
            re, im = c.re, c.im  # each read builds a Fraction
            out.append([a, b, re.numerator, re.denominator, im.numerator, im.denominator])
        return out

    @staticmethod
    def from_json(data: Iterable) -> "ScalarPoly":
        terms = {}
        for a, b, rn, rd, imn, imd in data:
            terms[(a, b)] = GaussianRational(Fraction(rn, rd), Fraction(imn, imd))
        return ScalarPoly(terms)


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
    def zero(order: int) -> "TruncSeries":
        return TruncSeries([], order)

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

    def _zip_order(self, other: "TruncSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        n = self._zip_order(other)
        return TruncSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n
        )

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        n = self._zip_order(other)
        return TruncSeries(
            [self.coeffs[k] - other.coeffs[k] for k in range(n + 1)], n
        )

    def __neg__(self) -> "TruncSeries":
        return TruncSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        n = self._zip_order(other)
        out = [ScalarPoly.zero() for _ in range(n + 1)]
        for j, cj in enumerate(self.coeffs[: n + 1]):
            if cj.is_zero():
                continue
            for k in range(n + 1 - j):
                ck = other.coeffs[k]
                if not ck.is_zero():
                    out[j + k] = out[j + k] + cj * ck
        return TruncSeries(out, n)

    def scale(self, c: ScalarPoly) -> "TruncSeries":
        return TruncSeries([c * a for a in self.coeffs], self.order)

    def scale_argument(self, c: ScalarPoly) -> "TruncSeries":
        """Substitute x -> c*x, i.e. multiply coeffs[k] by c^k."""
        return TruncSeries([c.pow(k) * a for k, a in enumerate(self.coeffs)], self.order)


def power_sum(coeffs: list, u, one):
    """sum_k coeffs[k] * u^k: the one loop that evaluates a series at u.

    u and one (its unit) lie in a ring with `+`, `*` and `scale` by a
    ScalarPoly, here TruncSeries or FormPoly; coeffs must not be empty.
    """
    out = one.scale(coeffs[0])
    power = one
    for c in coeffs[1:]:
        power = power * u
        if not c.is_zero():
            out = out + power.scale(c)
    return out


def _rational_power_sum(fracs: Iterable[Fraction], u: TruncSeries) -> TruncSeries:
    coeffs = [ScalarPoly.from_rational(f) for f in fracs]
    return power_sum(coeffs, u, TruncSeries.one(u.order))


def series_exp(s: TruncSeries) -> TruncSeries:
    """exp of a series with zero constant term, by summing s^k / k!."""
    if not s.coeffs[0].is_zero():
        raise SeriesDomainError("series_exp needs a zero constant term")
    return _rational_power_sum((Fraction(1, factorial(k)) for k in range(s.order + 1)), s)


def series_log(s: TruncSeries) -> TruncSeries:
    """log of a series with constant term 1 (the exp oracle's inverse)."""
    if not s.coeffs[0].is_one():
        raise SeriesDomainError("series_log needs constant term 1")
    fracs = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, s.order + 1)]
    return _rational_power_sum(fracs, s - TruncSeries.one(s.order))


def series_sqrt(s: TruncSeries) -> TruncSeries:
    """Square root of a series with constant term 1, via the binomial series."""
    if not s.coeffs[0].is_one():
        raise SeriesDomainError("series_sqrt needs constant term 1")
    # binomial(1/2, k) = (-1)^(k+1) * C(2k, k) / (4^k * (2k - 1))
    fracs = (
        Fraction((-1) ** (k + 1) * comb(2 * k, k), 4**k * (2 * k - 1))
        for k in range(s.order + 1)
    )
    return _rational_power_sum(fracs, s - TruncSeries.one(s.order))


def series_inverse(s: TruncSeries) -> TruncSeries:
    """Multiplicative inverse; the constant term must be an invertible monomial."""
    c0 = s.coeffs[0].invert_monomial()
    out = [c0]
    for n in range(1, s.order + 1):
        acc = ScalarPoly.zero()
        for k in range(1, n + 1):
            acc = acc + s.coeffs[k] * out[n - k]
        out.append(-(c0 * acc))
    return TruncSeries(out, s.order)
