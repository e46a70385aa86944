"""The product against the Dunkl representation, with its own exact arithmetic.

The algebra acts on polynomials in one variable x over Q(i)[h1^+-1, h2]:

    z  -> multiplication by x,
    zb -> -i*h1*T, with the Dunkl operator T x^n = (n + 2*h2*[n odd]) x^(n-1),
    g  -> f(x) -> f(-x),

which satisfies z*zb - zb*z = i*h1*(1 + 2*h2*g), g*z = -z*g and g*zb = -zb*g.
So mul(a, b) must act on every power of x as a after b, and commutator(a, b)
as a after b minus b after a.  On the even powers, where e = (1+g)/2 acts as
the identity, star(f, g) must act as f after g.

A word z^p zb^q g^e sends x^n to a multiple of x^(n-q+p) that is a polynomial
of degree q in n on each parity of n, so two words of zb degree at most Q are
told apart by x^0 ... x^(2Q+1), and invariant words by x^0, x^2, ..., x^(2Q).
Nothing here imports dunklweyl.scalars: elements are written as text, read
back through their canonical JSON, as bench/oracles.py reads the CLI, and
acted on with Fraction pairs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from dunklweyl.algebra import commutator, mul
from dunklweyl.exprs import parse_element, parse_invariant
from dunklweyl.spherical import star

ZERO = Fraction(0)
MAX_DEGREE = 6  # of each factor in z and zb
Q = 2 * MAX_DEGREE  # the largest zb degree of a product

# A scalar is {(h1 exponent, h2 exponent): (re, im)} with no zero value; a
# vector is {power of x: nonzero scalar}.


def _add_into(out: dict, key, re: Fraction, im: Fraction) -> None:
    r0, i0 = out.get(key, (ZERO, ZERO))
    re, im = r0 + re, i0 + im
    if re or im:
        out[key] = (re, im)
    else:
        out.pop(key, None)


def times(x: dict, y: dict) -> dict:
    out: dict = {}
    for (a1, b1), (r1, i1) in x.items():
        for (a2, b2), (r2, i2) in y.items():
            _add_into(out, (a1 + a2, b1 + b2), r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)
    return out


def accumulate(out: dict, n: int, c: dict, sign: int = 1) -> None:
    """out[n] += sign * c, dropping what cancels."""
    cell = out.setdefault(n, {})
    for hk, (re, im) in c.items():
        _add_into(cell, hk, sign * re, sign * im)
    if not cell:
        del out[n]


def difference(x: dict, y: dict) -> dict:
    out = {n: dict(c) for n, c in x.items()}
    for n, c in y.items():
        accumulate(out, n, c, -1)
    return out


@cache
def word_on_power(q: int, e: int, n: int) -> dict:
    """The scalar with zb^q g^e x^n = scalar * x^(n-q), for q <= n."""
    c = {(0, 0): (Fraction((-1) ** (n * e)), ZERO)}
    for m in range(n, n - q, -1):  # zb x^m = -i*h1*(m + 2*h2*[m odd]) x^(m-1)
        factor = {(1, 0): (ZERO, Fraction(-m))}
        if m % 2:
            factor[(1, 1)] = (ZERO, Fraction(-2))
        c = times(c, factor)
    return c


def read(terms_json: list) -> list:
    """[((p, q, e), scalar)] from the canonical JSON of an element or invariant polynomial."""
    return [((t["z"], t["zb"], t.get("g", 0)),
             {(a, b): (Fraction(rn, rd), Fraction(sn, sd)) for a, b, rn, rd, sn, sd in t["coeff"]})
            for t in terms_json]


def act(terms: list, vector: dict) -> dict:
    """The operator sum c * z^p zb^q g^e applied to a vector."""
    out: dict = {}
    for n, v in vector.items():
        for (p, q, e), c in terms:
            if q <= n:
                accumulate(out, n - q + p, times(times(c, word_on_power(q, e, n)), v))
    return out


def power(n: int) -> dict:
    return {n: {(0, 0): (Fraction(1), ZERO)}}


fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def texts(draw, invariant: bool) -> str:
    """A multi-term element (or invariant polynomial) of degree <= MAX_DEGREE as text."""
    words = []
    for _ in range(draw(st.integers(1, 4))):
        p = draw(st.integers(0, MAX_DEGREE))
        q = draw(st.integers(0, MAX_DEGREE - p))
        if invariant:
            if (p + q) % 2:
                p, q = (p, q - 1) if q else (p - 1, q)
            word = f"z^{p}*zb^{q}"
        else:
            word = f"z^{p}*zb^{q}*g^{draw(st.integers(0, 1))}"
        for _ in range(draw(st.integers(1, 2))):
            re, im = draw(fractions), draw(fractions)
            h1, h2 = draw(st.integers(-1, 1)), draw(st.integers(0, 2))
            words.append(f"(({re.numerator}/{re.denominator})+({im.numerator}/{im.denominator})*i)"
                         f"*h1^{h1}*h2^{h2}*{word}")
    return " + ".join(words)


@settings(max_examples=25, deadline=None)
@given(texts(invariant=False), texts(invariant=False))
def test_mul_and_commutator_act_as_composition(a_text, b_text):
    a, b = parse_element(a_text), parse_element(b_text)
    ra, rb = read(a.to_json()), read(b.to_json())
    product, bracket = read(mul(a, b).to_json()), read(commutator(a, b).to_json())
    for n in range(2 * Q + 2):
        after_b, after_a = act(rb, power(n)), act(ra, power(n))
        ab, ba = act(ra, after_b), act(rb, after_a)
        assert act(product, power(n)) == ab, n
        assert act(bracket, power(n)) == difference(ab, ba), n


@settings(max_examples=40, deadline=None)
@given(texts(invariant=True), texts(invariant=True))
def test_star_acts_as_composition_on_even_powers(f_text, g_text):
    f, g = parse_invariant(f_text), parse_invariant(g_text)
    rf, rg, fg = read(f.to_json()), read(g.to_json()), read(star(f, g).to_json())
    for m in range(Q + 1):
        assert act(fg, power(2 * m)) == act(rf, act(rg, power(2 * m))), 2 * m


def test_the_representation_satisfies_the_relations():
    # z*zb - zb*z = i*h1*(1 + 2*h2*g), g*z = -z*g, g*zb = -zb*g and g*g = 1 on every power
    one = {(0, 0): (Fraction(1), ZERO)}
    z, zb, g = [((1, 0, 0), one)], [((0, 1, 0), one)], [((0, 0, 1), one)]
    right = [((0, 0, 0), {(1, 0): (ZERO, Fraction(1))}), ((0, 0, 1), {(1, 1): (ZERO, Fraction(2))})]
    for n in range(2 * Q + 2):
        x = power(n)
        assert difference(act(z, act(zb, x)), act(zb, act(z, x))) == act(right, x)
        assert act(g, act(z, x)) == difference({}, act(z, act(g, x)))
        assert act(g, act(zb, x)) == difference({}, act(zb, act(g, x)))
        assert act(g, act(g, x)) == x
