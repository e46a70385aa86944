from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from dunklweyl import algebra
from dunklweyl.algebra import SrcElement
from dunklweyl.scalars import GaussianRational, ScalarPoly
from dunklweyl.spherical import InvariantPoly, star

rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)


@st.composite
def gaussian_rationals(draw):
    return GaussianRational.of(draw(rationals), draw(rationals))


@st.composite
def scalar_polys(draw, min_h1=0, max_h1=2, max_h2=2, max_terms=3):
    n = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n):
        key = (draw(st.integers(min_h1, max_h1)), draw(st.integers(0, max_h2)))
        terms[key] = draw(gaussian_rationals())
    return ScalarPoly(terms)


def h1_range(sp: ScalarPoly) -> tuple[int, int]:
    """(min, max) h1 exponent of a scalar; (0, 0) for the zero polynomial."""
    exps = [a for a, _b in sp.term_map()]
    return (min(exps), max(exps)) if exps else (0, 0)


@pytest.fixture
def half() -> ScalarPoly:
    return ScalarPoly.from_rational(Fraction(1, 2))


# -- helpers that have no caller in the package ------------------------------


def idempotent() -> SrcElement:
    """The symmetrizing idempotent e = (1 + g)/2."""
    half = ScalarPoly.from_rational(Fraction(1, 2))
    return SrcElement({(0, 0, 0): half, (0, 0, 1): half})


def embed(f: InvariantPoly) -> SrcElement:
    """f as the corner element f*e."""
    return algebra.mul(f.to_element(), idempotent())


def star_power(f: InvariantPoly, k: int) -> InvariantPoly:
    """k-fold star product; the empty product is 1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = InvariantPoly.one()
    for _ in range(k):
        out = star(out, f)
    return out


def scalar_from_json(data) -> ScalarPoly:
    """The ScalarPoly of its canonical JSON form."""
    return ScalarPoly(
        {(a, b): GaussianRational.of(Fraction(rn, rd), Fraction(imn, imd)) for a, b, rn, rd, imn, imd in data}
    )
