"""The spherical (invariant) subalgebra and its induced star product.

Invariant polynomials in z, zb (every monomial of even total degree) form a
subalgebra once identified with the corner cut out by the idempotent
e = (1+g)/2: the polynomial f corresponds to f*e, and the product of the big
algebra transports to a star product on invariant polynomials.  Extraction
folds the reflection generator onto the identity (g*e = e) inside the product.

An independent closed-form Moyal product on the same polynomials serves as
the degeneration oracle at h2 = 0.
"""

from __future__ import annotations

from math import factorial, perm

from . import algebra
from .algebra import SrcElement
from .scalars import ExtractionError, ParityError, ScalarPoly, TermMap, gaussian

PairKey = tuple[int, int]


class InvariantPoly(TermMap):
    """Invariant polynomial: term map from (p, q), p + q even, to scalars."""

    __slots__ = ()
    _printer = "invariant_to_text"

    @staticmethod
    def _key(key: PairKey) -> PairKey:
        p, q = key
        if p < 0 or q < 0:
            raise ValueError(f"bad exponents {(p, q)}")
        if (p + q) % 2 != 0:
            raise ParityError(f"monomial z^{p} zb^{q} is not invariant")
        return key

    # -- constructors -------------------------------------------------

    @staticmethod
    def one() -> "InvariantPoly":
        return InvariantPoly({(0, 0): ScalarPoly.one()})

    @staticmethod
    def monomial(p: int, q: int, coeff: ScalarPoly | None = None) -> "InvariantPoly":
        return InvariantPoly({(p, q): coeff if coeff is not None else ScalarPoly.one()})

    @staticmethod
    def zzbar() -> "InvariantPoly":
        return InvariantPoly.monomial(1, 1)

    @staticmethod
    def from_element(e: SrcElement) -> "InvariantPoly":
        """Read an invariant polynomial off a reflection-free element."""
        if not e.gamma_free():
            raise ParityError("element carries the reflection generator")
        return e.rekey(lambda key: InvariantPoly._key(key[:2]), InvariantPoly)

    # -- queries -------------------------------------------------------

    def degree(self) -> int:
        return max((p + q for p, q in self.term_map()), default=0)

    def to_element(self) -> SrcElement:
        """The normal-form word with the same exponents (reflection-free)."""
        return self.rekey(lambda key: (*key, 0), SrcElement)

    def to_json(self) -> list:
        return [{"z": p, "zb": q, "coeff": c.to_json()} for (p, q), c in self.terms()]


def _corner_spread(k1: PairKey, k2: PairKey) -> list[tuple]:
    """The rows of _reorder(q1, p2) keyed by (p, q) alone: g*e = e, so the rows with g and without meet."""
    (p1, q1), (p2, q2) = k1, k2
    if (p1 + q1 + p2 + q2) % 2 != 0:
        raise ExtractionError(f"non-invariant residue z^{p1 + p2} zb^{q1 + q2}")
    # a g left by a Dunkl move crosses zb^q2 on its way to e
    return [((p1 + x, y + q2), -1 if eps == 1 and q2 % 2 == 1 else 1, k, k % 2, row)
            for x, y, eps, k, row in algebra._reorder(q1, p2)]


def star(f: InvariantPoly, g: InvariantPoly) -> InvariantPoly:
    """The induced star product: the unique h with h*e = (f*e)*(g*e), e = (1+g)/2.

    The product of the reflection-free words in the big algebra with the
    reflection generator folded onto 1 as it is made; on the invariant corner
    the fold is a homomorphism, so this agrees with corner multiplication.
    """
    return f.product(g, _corner_spread)


def star_commutator(f: InvariantPoly, g: InvariantPoly) -> InvariantPoly:
    return star(f, g) - star(g, f)


def euler_derivation(g: InvariantPoly) -> InvariantPoly:
    """i*h1*(z d/dz - zb d/dzb): diagonal with eigenvalue i*h1*(p - q).

    Contract: euler_derivation(g) == star(g, zzbar) - star(zzbar, g).  Note
    the orientation; with the commutation relation used here the weight of
    the star commutator taken the other way round is i*h1*(q - p).
    """
    return InvariantPoly(((p, q), ScalarPoly.monomial(gaussian(0, p - q, 1), 1, 0) * c)
                         for (p, q), c in g.term_map().items() if p != q)


def moyal_star(f: InvariantPoly, g: InvariantPoly) -> InvariantPoly:
    """Closed-form Weyl-algebra product with [z, zb] = i*h1 (no h2).

    This is the degeneration oracle: an independent bidifferential formula,
    sharing no code with the rewriting engine.  It differentiates the left
    factor in zb and the right factor in z:

        f * g = sum_k (-i*h1)^k / k! * (d^k f / d zb^k) (d^k g / d z^k),

    which matches the normal-ordered identification used by the star
    transport (z before zb), so the h2 -> 0 degeneration is exact.
    """
    def terms():
        for (p1, q1), c1 in f.term_map().items():
            for (p2, q2), c2 in g.term_map().items():
                base = c1 * c2
                for k in range(min(q1, p2) + 1):
                    n = perm(q1, k) * perm(p2, k)
                    re, im = ((n, 0), (0, -n), (-n, 0), (0, n))[k % 4]  # n * (-i)^k
                    weight = ScalarPoly.monomial(gaussian(re, im, factorial(k)), k, 0)
                    yield (p1 + p2 - k, q1 + q2 - k), weight * base
    return InvariantPoly(terms())


def invariant_monomials(max_degree: int) -> list[InvariantPoly]:
    """All invariant monomials of total degree <= max_degree, in degree order."""
    out = []
    for d in range(0, max_degree + 1, 2):
        for p in range(d, -1, -1):
            out.append(InvariantPoly.monomial(p, d - p))
    return out
