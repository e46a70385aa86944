from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from dunklweyl.scalars import GaussianRational, ScalarPoly

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
