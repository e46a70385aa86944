"""Characteristic-class generating functions and the flat local model.

Curvature data enters as abstract commuting symbols of form degree 2 living
in a FormPoly truncated by total form degree, so all exponentials are finite
sums.  The degree-(n-1) index form multiplies one inverse-sinh factor per
tangent eigenvalue pair, the exponential of -theta/h1, and the deformed
character genus of the normal symbol, then extracts the top component.  All
three factors are truncated series (a_hat_factor, series_exp and the trace
module's ch_phi) evaluated at a nilpotent form by eval_series_at_form, the
one loop that sums a series' coefficients times powers of a form.

The local model is the Weyl algebra on n-1 base pairs (p_i, q_i) with
[p_i, q_j] = h1*delta_ij tensored with the reflection algebra in the fiber
variables z, zb.  Its product is one TermMap.product whose spread crosses
the integer base weights of symmetric_weyl_terms with the fiber entries of
algebra._spread.  Its trace density applies the spherical trace fiberwise
and returns a base polynomial.
"""

from __future__ import annotations

from math import factorial, perm, prod
from typing import Iterable, Iterator, Mapping

from . import algebra
from .scalars import ParityError, ScalarPoly, TermMap, TruncSeries, gaussian, one_key, series_exp, series_inverse
from .trace import ch_phi, class_scalars

SymKey = tuple[tuple[str, int], ...]  # sorted ((symbol, exponent), ...)


def _sym_degree(key: SymKey) -> int:
    return 2 * sum(e for _n, e in key)


def _product_key(k1: SymKey, k2: SymKey, deg: int) -> SymKey | None:
    """Product of two curvature monomials, or None when it is above degree deg."""
    acc: dict = {}
    for v, e in k1 + k2:
        acc[v] = acc.get(v, 0) + e
    key = tuple(sorted(acc.items()))
    return None if _sym_degree(key) > deg else key


class FormPoly(TermMap):
    """Polynomial in commuting degree-2 curvature symbols, degree-truncated."""

    __slots__ = ("max_form_degree",)
    _printer = "form_to_text"

    def __init__(self, terms: Mapping[SymKey, ScalarPoly] | None = None, max_form_degree: int = 0):
        if max_form_degree < 0 or max_form_degree % 2 != 0:
            raise ValueError("max_form_degree must be a non-negative even integer")
        self.max_form_degree = max_form_degree
        super().__init__(terms)

    def _key(self, key: SymKey) -> SymKey | None:
        key = tuple(sorted((n, e) for n, e in key if e != 0))
        if any(e < 0 for _n, e in key):
            raise ValueError("negative symbol exponent")
        return None if _sym_degree(key) > self.max_form_degree else key

    @staticmethod
    def _order(key: SymKey) -> tuple[int, SymKey]:
        return (_sym_degree(key), key)

    def _new(self, terms: dict, d: int) -> "FormPoly":
        """A FormPoly of self's degree around terms / d, keys above that degree dropped."""
        deg = self.max_form_degree
        out = TermMap._new(self, {key: c for key, c in terms.items() if _sym_degree(key) <= deg}, d)
        out.max_form_degree = deg
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def one(max_form_degree: int) -> "FormPoly":
        return FormPoly({(): ScalarPoly.one()}, max_form_degree)

    @staticmethod
    def symbol(name: str, max_form_degree: int) -> "FormPoly":
        return FormPoly({((name, 1),): ScalarPoly.one()}, max_form_degree)

    # -- queries -------------------------------------------------------

    def degree_component(self, d: int) -> "FormPoly":
        return self.rekey(lambda key: key if _sym_degree(key) == d else None)

    # -- arithmetic ----------------------------------------------------

    # a sum or product is known only up to the smaller truncation degree: built on that operand
    def __add__(self, other: "FormPoly") -> "FormPoly":
        low, high = sorted((self, other), key=lambda f: f.max_form_degree)
        return TermMap.__add__(low, high)

    def __mul__(self, other: "FormPoly") -> "FormPoly":
        low, high = sorted((self, other), key=lambda f: f.max_form_degree)
        return low.product(high, lambda k1, k2: one_key(_product_key(k1, k2, low.max_form_degree)))

    def __repr__(self) -> str:
        return f"FormPoly({self.to_text()}, max_form_degree={self.max_form_degree})"

    def to_json(self) -> list:
        return [
            {"syms": {n: e for n, e in key}, "coeff": c.to_json()}
            for key, c in self.terms()
        ]


# -- generating functions ----------------------------------------------


def inv_sinh_quotient(order: int) -> TruncSeries:
    """(x/2)/sinh(x/2) as a truncated series, via series inversion.

    sinh(x/2)/(x/2) = sum_m x^(2m) / (4^m (2m+1)!) is inverted exactly.
    """
    coeffs = [ScalarPoly.zero() for _ in range(order + 1)]
    m = 0
    while 2 * m <= order:
        coeffs[2 * m] = ScalarPoly.monomial(gaussian(1, 0, 4**m * factorial(2 * m + 1)))
        m += 1
    return series_inverse(TruncSeries(coeffs, order))


def a_hat_factor(order: int) -> TruncSeries:
    """(x/2)/sinh(x/2) evaluated at x = h1*r, as a series in r."""
    return inv_sinh_quotient(order).scale_argument(ScalarPoly.h1())


def eval_series_at_form(series: TruncSeries, s: FormPoly) -> FormPoly:
    """Substitute a nilpotent form for the series variable: the finite sum of
    series[k] * s^k over k up to half the form degree."""
    if not s.coefficient(()).is_zero():
        raise ValueError("form substituted into a series must have no degree-0 part")
    powers = [FormPoly.one(s.max_form_degree)]
    for _ in range(min(series.order, s.max_form_degree // 2)):
        powers.append(powers[-1] * s)
    zero = FormPoly(max_form_degree=s.max_form_degree)
    return zero.plus((1, power.scale(c)) for power, c in zip(powers, series.coeffs) if not c.is_zero())


def ch_exp(symbol: FormPoly, scale: ScalarPoly) -> FormPoly:
    """exp(scale * symbol), a finite sum by nilpotency."""
    order = symbol.max_form_degree // 2
    return eval_series_at_form(series_exp(TruncSeries.x(order)), symbol.scale(scale))


def ch_phi_form(rn: FormPoly | None, max_form_degree: int) -> FormPoly:
    """Deformed character genus: the character series ch_phi at t = rn/h1.

    The h1 of the character series cancels against the 1/h1 carried by the
    argument, leaving an h2-deformed genus in the bare symbol.
    """
    if rn is None or rn.is_zero():
        return FormPoly.one(max_form_degree)
    # the product with one truncates t at the smaller of the two degrees
    t = FormPoly.one(max_form_degree) * rn.scale(ScalarPoly.h1(-1))
    return eval_series_at_form(ch_phi(max_form_degree // 2), t)


def index_form(
    rt_pairs: Iterable[FormPoly | None],
    theta: FormPoly | None,
    rn: FormPoly | None,
    n: int,
) -> FormPoly:
    """h1^(n-1) times the form-degree 2(n-1) component of the genus product.

    rt_pairs supplies one symplectic eigenvalue-pair symbol per base pair
    (n-1 of them); theta feeds exp(-theta/h1); rn feeds the deformed genus.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    deg = 2 * (n - 1)
    rt_pairs = list(rt_pairs)
    if len(rt_pairs) != n - 1:
        raise ValueError(f"expected {n - 1} tangent symbols, got {len(rt_pairs)}")
    total = FormPoly.one(deg)
    series = a_hat_factor(max(n - 1, 0))
    for rt in rt_pairs:
        if rt is None or rt.is_zero():
            continue
        total = total * eval_series_at_form(series, rt)
    if theta is not None and not theta.is_zero():
        total = total * ch_exp(theta, -ScalarPoly.h1(-1))
    total = total * ch_phi_form(rn, deg)
    return total.degree_component(deg).scale(ScalarPoly.h1(n - 1))


# -- the flat local model ----------------------------------------------

BaseKey = tuple[tuple[int, int], ...]  # sorted ((variable, exponent), ...)
LocalKey = tuple[BaseKey, int, int, int]  # (base, z exp, zb exp, g exp)


def base_var_id(kind: str, i: int) -> int:
    """Variable id for p_i / q_i, 1-based pair index."""
    if kind not in ("p", "q") or i < 1:
        raise ValueError(f"bad base variable {kind}{i}")
    return 2 * (i - 1) + (0 if kind == "p" else 1)


def base_var_name(v: int) -> str:
    """The spelling p<i> or q<i> of variable id v, the inverse of base_var_id."""
    return f"{'q' if v % 2 else 'p'}{v // 2 + 1}"


class LocalElement(TermMap):
    """Element of the local model: base Weyl monomials tensor fiber words."""

    __slots__ = ()
    _printer = "local_to_text"

    def _key(self, key: LocalKey) -> LocalKey:
        base, p, q, eps = key
        base = tuple(sorted((v, e) for v, e in base if e != 0))
        if any(e < 0 or v < 0 for v, e in base):
            raise ValueError("bad base exponents")
        if p < 0 or q < 0 or eps not in (0, 1):
            raise ValueError("bad fiber exponents")
        return (base, p, q, eps)

    @staticmethod
    def _order(key: LocalKey) -> tuple:
        # canonical order: (eps, base, p, q)
        return (key[3], key[0], key[1], key[2])

    # -- constructors -------------------------------------------------

    @staticmethod
    def base_monomial(exps: Mapping[int, int], coeff: ScalarPoly | None = None) -> "LocalElement":
        return LocalElement(
            {(tuple(exps.items()), 0, 0, 0): coeff if coeff is not None else ScalarPoly.one()}
        )

    @staticmethod
    def base_var(kind: str, i: int, power: int = 1) -> "LocalElement":
        return LocalElement.base_monomial({base_var_id(kind, i): power})

    @staticmethod
    def from_fiber(e: algebra.SrcElement) -> "LocalElement":
        return e.rekey(lambda key: ((), *key), LocalElement)

    # -- structure -----------------------------------------------------

    def __mul__(self, other: "LocalElement") -> "LocalElement":
        return local_star(self, other)


def symmetric_weyl_terms(p1: int, q1: int, p2: int, q2: int) -> Iterator[tuple[int, int, int, int]]:
    """The Weyl-symmetric product of x^p1 y^q1 and x^p2 y^q2, term by term.

    With [x, y] = 2*s, the product is the sum over the yielded (a, b, n, d)
    of (n/d) * s^(a+b) * x^(p1+p2-a-b) * y^(q1+q2-a-b): a contractions of
    x on the left with y on the right, b of y on the left with x on the
    right, weighted by falling factorials over d = a!*b! and the sign (-1)^b.
    """
    for a in range(min(p1, q2) + 1):
        for b in range(min(q1, p2) + 1):
            n = perm(p1, a) * perm(q1, b) * perm(q2, a) * perm(p2, b)
            yield a, b, -n if b % 2 == 1 else n, factorial(a) * factorial(b)


def _base_weights(b1: BaseKey, b2: BaseKey, den: int) -> list[tuple[BaseKey, int, int]]:
    """Symmetric-ordering Weyl product of base monomials, [p_i, q_i] = h1 = 2*s, as
    (canonical key, integer weight over den, h1 power) triples; a key may repeat."""
    d1, d2 = dict(b1), dict(b2)
    # partial products over the pairs seen so far: (key, weight n/d, h1 power)
    results: list[tuple[BaseKey, int, int, int]] = [((), 1, 1, 0)]
    for i in sorted({v // 2 for v in d1} | {v // 2 for v in d2}):
        pv, qv = 2 * i, 2 * i + 1
        p1, q1, p2, q2 = d1.get(pv, 0), d1.get(qv, 0), d2.get(pv, 0), d2.get(qv, 0)
        step = [(tuple((v, e) for v, e in ((pv, p1 + p2 - a - b), (qv, q1 + q2 - a - b)) if e),
                 n, d << (a + b), a + b) for a, b, n, d in symmetric_weyl_terms(p1, q1, p2, q2)]
        results = [(k + sk, n * sn, d * sd, h + sh) for k, n, d, h in results for sk, sn, sd, sh in step]
    return [(key, n * (den // d), h) for key, n, d, h in results]


def local_star(F: LocalElement, G: LocalElement) -> LocalElement:
    """Base Weyl product tensored with the fiber product: one TermMap.product of F / den
    and G.  den is a multiple of every a! b! 2^(a+b) of the base weights: a contracts p_i
    on the left with q_i on the right, so it is at most the smaller of their largest
    exponents, and b likewise (base variable v ^ 1 is the partner of v)."""
    # the largest exponent of each base variable: dict keeps the last of the sorted pairs
    tops = [dict(sorted(ve for key in X.term_map() for ve in key[0])) for X in (F, G)]
    den = prod(factorial(m) << m for m in (min(e, tops[1].get(v ^ 1, 0)) for v, e in tops[0].items()))
    weights: dict[tuple[BaseKey, BaseKey], list] = {}  # _base_weights of each base pair, built on first use

    def spread(k1: LocalKey, k2: LocalKey) -> list[tuple]:
        (b1, p1, q1, e1), (b2, p2, q2, e2) = k1, k2
        fiber = algebra._spread((p1, q1, e1), (p2, q2, e2))
        base_weights = weights.get((b1, b2)) or weights.setdefault((b1, b2), _base_weights(b1, b2, den))
        return [((base, *key), sign * w, h + k, t, row) for base, w, h in base_weights
                for key, sign, k, t, row in fiber]

    return F.scale(ScalarPoly.monomial(gaussian(1, 0, den))).product(G, spread)


def fiber_fold(F: LocalElement) -> LocalElement:
    """Fold the fiber reflection generator onto 1 (corner identification)."""
    return F.rekey(lambda key: (*key[:3], 0))


def local_trace_density(F: LocalElement) -> LocalElement:
    """Apply the spherical trace to the fiber variables, returning a base poly.

    The input must be invariant in the fiber after folding; the output is the
    coefficient of the base volume element.  A parity error names the first
    offending fiber part in canonical order.
    """
    diagonal = []
    for (base, p, q, _eps), c in fiber_fold(F).terms():
        if (p + q) % 2 != 0:
            raise ParityError(f"fiber part z^{p} zb^{q} is not invariant")
        if p == q:
            diagonal.append((base, p, c))
    scalars = class_scalars(p for _base, p, _c in diagonal)
    return LocalElement(((base, 0, 0, 0), scalars[p] * c) for base, p, c in diagonal)
