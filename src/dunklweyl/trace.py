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

from math import factorial, gcd

from .scalars import GaussianRational, ScalarPoly, TruncSeries, dot, gaussian
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
    return ScalarPoly.from_clean({(0, 0): gaussian(c0, 0, den), (0, 1): gaussian(c1, 0, den)})


def recursion_scalar(k: int) -> ScalarPoly:
    """i*h1 times the k-th deformation factor: the one-step reduction scalar."""
    return ScalarPoly.monomial(GaussianRational.of(0, 1), 1, 0) * step_factor(k)


_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^k as (re, im), by k % 4


def _rows():
    """Row k of prod_{l=1}^{k} step_factor(l) for k = 0, 1, 2, ..., built when asked for:
    (n, d) with the product = sum_j n[j] * h2^j / d and gcd(n[0], n[1], ..., d) = 1."""
    nums, den = (1,), 1
    while True:
        yield nums, den
        c0, c1, step_den = _step(len(nums))  # row k has k + 1 entries
        new = [c0 * n + c1 * m for n, m in zip(nums + (0,), (0,) + nums)]
        den *= step_den
        g = gcd(den, *new)
        nums, den = tuple(n // g for n in new), den // g


def _row_scalar(k: int, nums: tuple[int, ...], den: int) -> ScalarPoly:
    """(i*h1)^k * sum_j nums[j] * h2^j / den, one reduction per coefficient."""
    re, im = _I_POWERS[k % 4]
    return ScalarPoly.from_clean({(k, j): gaussian(re * n, im * n, den) for j, n in enumerate(nums) if n})


def class_scalars(ks) -> dict[int, ScalarPoly]:
    """class_scalar(k) for each k >= 0 in ks, from one pass over the rows up to the largest."""
    ks = set(ks)
    return {k: _row_scalar(k, *row) for k, row in zip(range(max(ks, default=-1) + 1), _rows()) if k in ks}


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
    coeffs = [_row_scalar(k, nums, den * factorial(k)) for k, (nums, den) in zip(range(order + 1), _rows())]
    return TruncSeries(coeffs, order)

