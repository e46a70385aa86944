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
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .scalars import GaussianRational, ScalarPoly, TruncSeries
from .spherical import InvariantPoly, star, star_commutator


def step_factor(l: int) -> ScalarPoly:
    """The l-th deformation factor l/2 + (-1)^(l+1) * 2*floor((l+1)/2)*h2/(l+1)."""
    if l < 1:
        raise ValueError("step index starts at 1")
    sign = 1 if l % 2 == 1 else -1
    h2_coeff = Fraction(2 * ((l + 1) // 2), l + 1) * sign
    return ScalarPoly(
        {
            (0, 0): GaussianRational.of(Fraction(l, 2)),
            (0, 1): GaussianRational.of(h2_coeff),
        }
    )


def recursion_scalar(k: int) -> ScalarPoly:
    """i*h1 times the k-th deformation factor: the one-step reduction scalar."""
    return ScalarPoly.monomial(GaussianRational.of(0, 1), 1, 0) * step_factor(k)


_CLASS_SCALARS: dict[int, ScalarPoly] = {0: ScalarPoly.one()}


def class_scalar(k: int) -> ScalarPoly:
    """phi(z^k zb^k) = prod_{j=1}^{k} recursion_scalar(j), cached."""
    if k < 0:
        raise ValueError("k must be non-negative")
    n = max(_CLASS_SCALARS)
    while n < k:
        n += 1
        _CLASS_SCALARS[n] = _CLASS_SCALARS[n - 1] * recursion_scalar(n)
    return _CLASS_SCALARS[k]


def phi(f: InvariantPoly) -> ScalarPoly:
    """The normalized trace, linear over the scalar ring."""
    out = ScalarPoly.zero()
    for (p, q), c in f.terms():
        if p == q:
            out = out + class_scalar(p) * c
    return out


def star_power(f: InvariantPoly, k: int) -> InvariantPoly:
    """k-fold star product; the empty product is 1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = InvariantPoly.one()
    for _ in range(k):
        out = star(out, f)
    return out


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
    coeffs = [class_scalar(k).scale(GaussianRational.of(Fraction(1, factorial(k)))) for k in range(order + 1)]
    return TruncSeries(coeffs, order)

