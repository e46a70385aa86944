"""The closed-form trace on the spherical algebra and its character series.

The trace of an invariant polynomial f is

    phi(f) = sum_k (i*h1)^k / (k!)^2
             * prod_{l=1}^{k} ( l/2 + (-1)^(l+1) * 2*floor((l+1)/2)*h2/(l+1) )
             * d^(2k) f / dz^k dzb^k at (0, 0),

a finite sum for polynomial input.  The mixed derivative at the origin is
read off combinatorially: the coefficient of z^k zb^k times (k!)^2.

phi vanishes on all star commutators and is normalized by phi(1) = 1; the
certificate machinery in the homology module re-proves both facts
constructively, and the two routes are required to agree exactly.

One stream, _products, builds every product of the deformation factors: the
rows of phi, class_scalar and ch_phi (factors 1..k) and the suffix products
of the homology module's certificates (factors k..1).  A product is a reduced
fraction times a primitive integer polynomial in h2; each factor enters the
polynomial divided by its content, so by Gauss's lemma only the fraction
ever needs a gcd.
"""

from __future__ import annotations

from math import factorial, gcd

from .scalars import GaussianRational, ScalarPoly, TruncSeries, _scalar, dot
from .spherical import InvariantPoly, star_commutator


def _step(l: int) -> tuple[int, int, int]:
    """The l-th deformation factor l/2 + (-1)^(l+1) * 2*floor((l+1)/2)*h2/(l+1)
    as integers (c0, c1, den) with factor (c0 + c1*h2) / den."""
    return l * (l + 1), (4 if l % 2 else -4) * ((l + 1) // 2), 2 * (l + 1)


def step_factor(l: int) -> ScalarPoly:
    """The l-th deformation factor, as a scalar."""
    if l < 1:
        raise ValueError("step index starts at 1")
    c0, c1, den = _step(l)
    return _scalar({(0, 0): (c0, 0), (0, 1): (c1, 0)}, den)


def recursion_scalar(k: int) -> ScalarPoly:
    """i*h1 times the k-th deformation factor: the one-step reduction scalar."""
    return ScalarPoly.monomial(GaussianRational.of(0, 1), 1, 0) * step_factor(k)


_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^k as (re, im), by k % 4


def _products(ls):
    """Running products of step_factor(l) over the l in ls, built when asked for: (poly, num, den)
    before each factor and after the last, each product num/den * sum_j poly[j] * h2^j in
    lowest terms (poly primitive, as each factor c0 + c1*h2 enters it over gcd(c0, c1))."""
    poly, num, den = (1,), 1, 1
    for l in ls:
        yield poly, num, den
        c0, c1, d = _step(l)
        g = gcd(c0, c1)
        c0, c1, num, den = c0 // g, c1 // g, num * g, den * d
        poly = tuple(c0 * n + c1 * m for n, m in zip(poly + (0,), (0,) + poly))
        g = gcd(num, den)
        num, den = num // g, den // g
    yield poly, num, den


def _row_scalar(k: int, poly: tuple[int, ...], num: int, den: int) -> ScalarPoly:
    """(i*h1)^k * num/den * sum_j poly[j] * h2^j for a primitive poly, whose
    content is then num/den: one gcd(num, den) brings it to lowest terms."""
    g = gcd(num, den)
    re, im = (num // g * x for x in _I_POWERS[k % 4])
    return _scalar({(k, j): (re * n, im * n) for j, n in enumerate(poly) if n}, den // g)


def class_scalars(ks) -> dict[int, ScalarPoly]:
    """class_scalar(k) for each k >= 0 in ks, from one pass over the products up to the largest."""
    ks = set(ks)
    rows = enumerate(_products(range(1, max(ks, default=0) + 1)))
    return {k: _row_scalar(k, *row) for k, row in rows if k in ks}


def class_scalar(k: int) -> ScalarPoly:
    """phi(z^k zb^k) = prod_{j=1}^{k} recursion_scalar(j)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return class_scalars((k,))[k]


def phi(f: InvariantPoly) -> ScalarPoly:
    """The normalized trace, linear over the scalar ring."""
    diagonal = [(p, c) for (p, q), c in f.terms() if p == q]
    scalars = class_scalars(p for p, _c in diagonal)
    return dot((scalars[p], c) for p, c in diagonal)


def trace_defect(f: InvariantPoly, g: InvariantPoly) -> ScalarPoly:
    """phi of the star commutator; identically zero since phi is a trace."""
    return phi(star_commutator(f, g))


def ch_phi(order: int) -> TruncSeries:
    """Deformed character series in a formal variable t.

    The coefficient of t^k is (i*h1)^k / k! times the product of the first k
    deformation factors, i.e. phi(z^k zb^k) / k!.  Equivalently this is phi
    applied to the plain exponential sum_k t^k (z zb)^k / k!, taken termwise.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    rows = enumerate(_products(range(1, order + 1)))
    return TruncSeries([_row_scalar(k, poly, num, den * factorial(k)) for k, (poly, num, den) in rows], order)
