from __future__ import annotations

import functools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dunklweyl import algebra, exprs
from dunklweyl.algebra import SrcElement, commutator, mul
from dunklweyl.cli import main
from dunklweyl.exprs import (
    EvalError,
    ParseError,
    element_to_text,
    eval_element,
    eval_local,
    invariant_to_text,
    json_text,
    local_to_text,
    parse,
    parse_element,
    parse_invariant,
    parse_scalar,
    scalar_to_text,
)
from dunklweyl.index import local_trace_density
from dunklweyl.scalars import GaussianRational, ScalarPoly
from dunklweyl.spherical import InvariantPoly


def random_element(rng, max_degree=8):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        p = rng.randint(0, max_degree)
        q = rng.randint(0, max_degree - p)
        eps = rng.randint(0, 1)
        terms[(p, q, eps)] = ScalarPoly.monomial(
            GaussianRational.of(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            )
            if rng.random() < 0.8
            else GaussianRational.of(1),
            rng.randint(-1, 2),
            rng.randint(0, 2),
        )
    terms = {k: c for k, c in terms.items() if not c.is_zero()}
    if not terms:
        terms = {(1, 0, 0): ScalarPoly.one()}
    return SrcElement(terms)


# numerators and denominators: zero, small (often reducible) and 40 digits
numeral_ints = st.one_of(st.integers(0, 12), st.integers(10**39, 10**40 - 1))


class TestParse:
    def test_commutator_expression(self):
        e = parse_element("z*zb - zb*z")
        assert e == commutator(SrcElement.monomial(1, 0), SrcElement.monomial(0, 1))

    def test_negative_h1_power(self):
        e = parse_element("h1^-1 * (z^2*zb^2)")
        assert e == SrcElement.monomial(2, 2, 0, ScalarPoly.h1(-1))

    def test_negative_generator_power_rejected(self):
        with pytest.raises(ParseError):
            parse("z^-1")

    def test_negative_power_only_on_h1(self):
        for bad in ("h2^-1", "g^-2", "(z)^-1", "2^-1"):
            with pytest.raises(ParseError):
                parse(bad)

    def test_unknown_name(self):
        with pytest.raises(ParseError) as err:
            parse("z*w + 1")
        assert err.value.pos == 2

    def test_error_position_and_expectations(self):
        with pytest.raises(ParseError) as err:
            parse("z*")
        assert err.value.pos == 2
        with pytest.raises(ParseError) as err:
            parse("z @ zb")
        assert err.value.pos == 2

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(z + zb")

    def test_leading_minus_only_for_rationals(self):
        assert parse_element("-2*z") == SrcElement.monomial(1, 0, 0, ScalarPoly.from_rational(-2))
        with pytest.raises(ParseError):
            parse("-z")

    def test_exponent_overflow(self):
        with pytest.raises(ParseError) as err:
            parse("z^99999999")
        assert "overflow" in str(err.value)

    def test_nesting_limit(self):
        limit = exprs.NESTING_LIMIT
        # at the limit every layer parses and evaluates: sums, products, powers
        src = "z"
        for _ in range(limit):
            src = f"(2*{src} - zb)^1"
        z, zb = SrcElement.monomial(1, 0), SrcElement.monomial(0, 1)
        assert parse_element(src) == z.scale(ScalarPoly.from_rational(2**limit)) - zb.scale(
            ScalarPoly.from_rational(2**limit - 1)
        )
        for depth in (limit + 1, 250, 100_000):
            with pytest.raises(ParseError) as err:
                parse("(" * depth + "z" + ")" * depth)
            assert err.value.pos == limit
            assert str(err.value) == (
                f"syntax error at position {limit}: expected at most {limit} nested parentheses, got '('"
            )

    def test_mandatory_star(self):
        with pytest.raises(ParseError):
            parse("2 z")

    @pytest.mark.parametrize(
        "src, pos",
        [("z^\u00b2", 2), ("\u0663*z", 0), ("\uff12*z", 0), ("z\u0663", 1), ("z +\u00a0zb", 3), ("\u00e9", 0)],
        ids=["superscript-two", "arabic-indic-three", "fullwidth-two", "digit-in-name", "no-break-space", "letter"],
    )
    def test_non_ascii_is_a_positioned_error(self, capsys, src, pos):
        # DIGITS, names and whitespace of the grammar are ASCII only
        want = f"syntax error at position {pos}: expected an ASCII character, got {src[pos]!r}"
        with pytest.raises(ParseError) as err:
            parse(src)
        assert err.value.pos == pos and str(err.value) == want
        assert main(["nf", src]) == 2
        assert capsys.readouterr() == ("", f"error: {want}\n")

    def test_rationals(self):
        assert parse_scalar("3/2") == ScalarPoly.from_rational(Fraction(3, 2))
        assert parse_scalar("-3/2 + i") == ScalarPoly.from_rational(Fraction(-3, 2), 1)
        with pytest.raises(ParseError):
            parse("1/0")

    @given(st.booleans(), numeral_ints, st.none() | numeral_ints.filter(bool), st.integers(1, 6),
           st.integers(0, 2), st.integers(0, 2))
    @example(True, 0, 7, 3, 1, 0)
    def test_rationals_agree_with_fraction(self, negative, num, den, common, num_zeros, den_zeros):
        """The parser's integer numerals read as Fraction reads them."""
        text = "-" * negative + "0" * num_zeros + str(num * common)
        value = Fraction(num * common)
        if den is not None:
            text += "/" + "0" * den_zeros + str(den * common)
            value = Fraction(num * common, den * common)
        assert parse_scalar(text) == ScalarPoly.from_rational(-value if negative else value)


class TestEval:
    def test_xy_relation(self):
        got = parse_element("y*x - x*y")
        want = SrcElement.monomial(
            0, 0, 0, ScalarPoly.monomial(GaussianRational.of(Fraction(1, 2)), 1, 0)
        ) + SrcElement.monomial(0, 0, 1, ScalarPoly.monomial(GaussianRational.of(1), 1, 1))
        assert got == want

    def test_gamma_square(self):
        assert parse_element("g*g") == SrcElement.one()

    def test_base_vars_rejected_outside_local_model(self, capsys):
        with pytest.raises(EvalError):
            parse_element("p1*q1")
        # a zero coefficient before the base variable does not skip the refusal
        assert main(["nf", "0*p1"]) == 2
        assert capsys.readouterr().err == "error: generator 'p1' needs the local model (use localtrace)\n"

    def test_eval_local(self):
        le = eval_local(parse("p1*q1*z*zb"), 1)
        assert not le.is_zero()
        with pytest.raises(EvalError):
            eval_local(parse("p2*z"), 1)

    def test_parse_invariant_guards(self):
        assert parse_invariant("z^2*zb^2") == InvariantPoly.monomial(2, 2)
        with pytest.raises(Exception):
            parse_invariant("z")
        with pytest.raises(Exception):
            parse_invariant("g")


class TestPowerFastPath:
    """Powers of z, zb, g, i, h1 and h2, and products of them in normal order,
    fold into one term, not by repeated mul."""

    ATOMS = {
        "z": SrcElement.monomial(1, 0),
        "zb": SrcElement.monomial(0, 1),
        "h1": SrcElement.scalar(ScalarPoly.h1()),
        "h2": SrcElement.scalar(ScalarPoly.h2()),
    }

    @pytest.mark.parametrize("name", sorted(ATOMS))
    def test_power_equals_repeated_product(self, name):
        base = self.ATOMS[name]
        want = SrcElement.one()
        for n in range(13):
            assert parse_element(f"{name}^{n}") == want, (name, n)
            want = mul(want, base)

    @pytest.mark.parametrize(
        "src, text",
        [
            ("z^0", "1"),
            ("(z*zb)^2", "-1*i*h1*z*zb + z^2*zb^2 + 2*i*h1*h2*z*zb*g"),
            ("h1^-2", "h1^-2"),
            ("g^3", "g"),
            ("i^3", "-1*i"),
        ],
    )
    def test_other_powers_unchanged(self, src, text):
        assert element_to_text(parse_element(src)) == text

    def test_localtrace_unchanged(self, capsys):
        assert main(["localtrace", "--n", "2", "p1^2*q1*z^3"]) == 2
        assert "fiber part z^3 zb^0 is not invariant" in capsys.readouterr().err
        assert main(["localtrace", "--n", "2", "p1^2*q1*z^3*zb^3"]) == 0
        assert capsys.readouterr().out.strip() == (
            "-3/4*i*h1^4*p1 - 3/2*i*h1^4*h2*p1 + 1/3*i*h1^4*h2^2*p1"
            " + 2/3*i*h1^4*h2^3*p1 - 3/4*i*h1^3*p1^2*q1 - 3/2*i*h1^3*h2*p1^2*q1"
            " + 1/3*i*h1^3*h2^2*p1^2*q1 + 2/3*i*h1^3*h2^3*p1^2*q1"
        )

    def test_mul_only_for_factors_out_of_normal_order(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(algebra, "mul", counted)
        text = element_to_text(random_element(random.Random(16)))
        # a word in normal order, canonical text and powers of g and i fold into one term each
        # and a parenthesised constant's power is one Gaussian-integer power
        for src, want in [("z^8*zb^8", SrcElement.monomial(8, 8)), (text, parse_element(text)),
                          ("g^1000000", SrcElement.one()), ("i^999999", parse_element("-1*i")),
                          ("(1+i)^3000", parse_element(f"{2**1500}")),
                          ("(2*h1)^3000", parse_element(f"{2**3000}*h1^3000"))]:
            calls.clear()
            assert parse_element(src) == want
            assert calls == [], src
        # zb before z breaks normal order: one product of the two words
        assert parse_element("zb^8*z^8") == mul(SrcElement.monomial(0, 8), SrcElement.monomial(8, 0))
        assert len(calls) == 1


def folded(node) -> SrcElement:
    """The left fold of mul over _element_atom values: what the product and sum
    rules of eval_element must agree with."""
    if isinstance(node, exprs.Sum):
        out = SrcElement()
        for sign, part in node.parts:
            out = out + folded(part) if sign == 1 else out - folded(part)
        return out
    if isinstance(node, exprs.Prod):
        return functools.reduce(mul, map(folded, node.factors))
    if isinstance(node, exprs.Pow):
        if node.exp < 0:
            return exprs._element_atom("h1", node.exp)
        return functools.reduce(mul, [folded(node.base)] * node.exp, SrcElement.one())
    if isinstance(node, exprs.Num):
        return exprs._element_atom("__num__", node)
    return exprs._element_atom(node.name, 1)


def _powers(bases, top):
    return st.builds("{}^{}".format, st.sampled_from(bases), st.integers(0, top))


# Factors of every kind the product rule meets: numerals (zero included) and
# their powers, i^k, h1^-k, parenthesised constants, z, zb and g powers in any
# order, and compound factors, a rare one outside the fiber algebra.
PRODUCT_FACTORS = st.one_of(
    st.sampled_from(["0", "1", "-1", "3", "-3/2", "2/4", "i", "h1", "h2", "g", "z", "zb", "x", "y", "p1", "q2^0"]),
    _powers(["i", "g", "(2/3)", "-2", "(0)", "(1+i)", "(2/3-4/3*i)", "(-1/2*i*h2)", "(h1^-1)", "(3/2*i*h1)"], 6),
    st.builds("h1^-{}".format, st.integers(1, 3)),
    _powers(["z", "zb", "h2", "(z+zb)", "(z-g)", "(h1+h2)", "(z*zb)", "x"], 2),
)
PRODUCTS = st.lists(PRODUCT_FACTORS, min_size=1, max_size=6).map("*".join)
SUMS = st.builds(
    lambda first, rest: first + "".join(f" {sign} {part}" for sign, part in rest),
    PRODUCTS, st.lists(st.tuples(st.sampled_from("+-"), PRODUCTS), max_size=3),
)


def outcome(fn, src):
    try:
        return fn(src)
    except EvalError as exc:
        return f"EvalError: {exc}"


class TestProductRule:
    """eval_element folds products and merges sums; the value, and the error of a
    factor outside the fiber algebra, are those of the left fold of mul."""

    @settings(max_examples=300, deadline=None)
    @given(SUMS)
    @example("g*z")
    @example("zb*z")
    @example("z*g*zb")
    @example("zb*g*z - 2*g*zb*i^2")
    @example("0*p1 + q2^0")
    def test_agrees_with_the_left_fold_of_mul(self, src):
        assert outcome(parse_element, src) == outcome(lambda s: folded(parse(s)), src)


def local_density(src: str):
    """The localtrace value of src with one base pair."""
    return local_trace_density(eval_local(parse(src), 1))


# (printer, reader, input, the canonical text): the first term carries its own
# sign, as a numeral's '-' or as '-1*'; later terms are joined by ' + ' or ' - '
SIGN_RULES = [
    (element_to_text, parse_element, "-2*z", "-2*z"),
    (element_to_text, parse_element, "-1*i", "-1*i"),
    (scalar_to_text, parse_scalar, "-2*h1 + i*h2", "i*h2 - 2*h1"),
    (scalar_to_text, parse_scalar, "-1*i*h2^2 + (1-i)", "(1-i) - i*h2^2"),
    (scalar_to_text, parse_scalar, "0*h1", "0"),
    (invariant_to_text, parse_invariant, "-2*z*zb + z^2", "-2*z*zb + z^2"),
    (invariant_to_text, parse_invariant, "-1*i*z^2*zb^2 - h1", "-1*h1 - i*z^2*zb^2"),
    (local_to_text, local_density, "i*q1*z^2*zb^2 - p1",
     "-1*p1 - 1/2*i*h1^2*q1 - 2/3*i*h1^2*h2*q1 + 2/3*i*h1^2*h2^2*q1"),
]


class TestPrint:
    @pytest.mark.parametrize("printer, read, src, text", SIGN_RULES, ids=[row[2] for row in SIGN_RULES])
    def test_sign_rules(self, printer, read, src, text):
        value = read(src)
        assert printer(value) == text == value.to_text()

    @pytest.mark.parametrize("src, budget", [("zb^100*z^100", 3.5), ("(z+zb+g)^24", 8)])
    def test_printing_holds_about_one_copy_of_the_text(self, src, budget):
        # each printed term is one string as the walk reaches it, joined once
        e = parse_element(src)
        text = element_to_text(e)  # warm
        tracemalloc.start()
        try:
            element_to_text(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget * len(text), peak / len(text)

    def test_unit(self):
        assert element_to_text(SrcElement.one()) == "1"
        assert scalar_to_text(ScalarPoly.zero()) == "0"

    def test_canonical_order(self):
        e = SrcElement.monomial(
            0, 0, 0, ScalarPoly.monomial(GaussianRational.of(0, 1), 1, 0)
        ) + SrcElement.monomial(0, 0, 1, ScalarPoly.monomial(GaussianRational.of(0, 2), 1, 1))
        assert element_to_text(e) == "i*h1 + 2*i*h1*h2*g"

    def test_negative_leading_coefficients_stay_parseable(self):
        cases = [
            SrcElement.monomial(1, 0, 0, ScalarPoly.from_rational(-1)),
            SrcElement.monomial(1, 0, 0, ScalarPoly.from_rational(0, -1)),
            SrcElement.monomial(0, 0, 0, ScalarPoly.from_rational(Fraction(-3, 2), -1)),
            SrcElement.monomial(2, 0, 1, ScalarPoly.monomial(GaussianRational.of(-2, 3), -1, 2)),
        ]
        for e in cases:
            text = element_to_text(e)
            assert parse_element(text) == e, text

    def test_mixed_coefficient_parenthesized(self):
        e = SrcElement.monomial(1, 1, 0, ScalarPoly.from_rational(1, 1))
        assert element_to_text(e) == "(1+i)*z*zb"

    def test_invariant_printing(self):
        f = InvariantPoly.monomial(1, 1, ScalarPoly.h1())
        assert invariant_to_text(f) == "h1*z*zb"


# Strings that need escapes: quotes, backslashes, control, DEL and non-ASCII.
_json_strings = st.text(st.sampled_from('az 09"\\/\x00\n\x1f\x7f\xe9\u20ac\U0001f600'), max_size=6) | st.text(max_size=4)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40)
    | st.floats(allow_nan=False, allow_infinity=False) | _json_strings,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_json_strings, inner, max_size=4),
    max_leaves=20,
)


class TestJsonText:
    @settings(max_examples=200, deadline=None)
    @given(_json_values)
    def test_matches_json_dumps_with_indent(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2)


class TestRoundTrip:
    def test_many_random_elements(self):
        rng = random.Random(123)
        for _ in range(300):
            e = random_element(rng)
            text = element_to_text(e)
            assert parse_element(text) == e, text

    def test_engine_outputs(self):
        rng = random.Random(77)
        for _ in range(50):
            a, b = random_element(rng, 4), random_element(rng, 4)
            e = commutator(a, b)
            assert parse_element(element_to_text(e)) == e


# -- reference coefficient printer ---------------------------------------------
# The printer parts and JSON entries as the package wrote them from the Fraction
# properties re and im; both now read the integer triple through
# GaussianRational.parts().


def ref_rat_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def ref_coeff_parts(c: GaussianRational) -> tuple[bool, list[str]]:
    re, im = c.re, c.im
    if im == 0:
        neg = re < 0
        mag = abs(re)
        return neg, [] if mag == 1 else [ref_rat_str(mag)]
    if re == 0:
        neg = im < 0
        mag = abs(im)
        return neg, ["i"] if mag == 1 else [ref_rat_str(mag), "i"]
    if im > 0:
        im_part = "+i" if im == 1 else f"+{ref_rat_str(im)}*i"
    else:
        im_part = "-i" if im == -1 else f"-{ref_rat_str(abs(im))}*i"
    return False, [f"({ref_rat_str(re)}{im_part})"]


def ref_json_entry(c: GaussianRational) -> list[int]:
    re, im = c.re, c.im
    return [re.numerator, re.denominator, im.numerator, im.denominator]


# numerators and denominators up to 2^70: small, unit-sized and beyond 64 bits
NUMERATORS = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-12, 12), st.integers(-(2**70), 2**70))
DENOMINATORS = st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 2**70))
GAUSSIANS = st.builds(
    lambda a, b, c, d: GaussianRational.of(Fraction(a, b), Fraction(c, d)),
    NUMERATORS, DENOMINATORS, NUMERATORS, DENOMINATORS,
)


class TestCoefficientPrinter:
    @example(GaussianRational.of(0))
    @example(GaussianRational.of(1))
    @example(GaussianRational.of(-1))
    @example(GaussianRational.of(0, 1))
    @example(GaussianRational.of(0, -1))
    @example(GaussianRational.of(Fraction(-3, 2**65), Fraction(2**66 + 1, 6)))
    @settings(max_examples=300, deadline=None)
    @given(GAUSSIANS)
    def test_parts_agree_with_reference(self, c):
        assert exprs._coeff_parts(c) == ref_coeff_parts(c)
        assert ScalarPoly.monomial(c, -1, 2).to_json() == ([[-1, 2, *ref_json_entry(c)]] if not c.is_zero() else [])
        assert list(c.parts()) == ref_json_entry(c)
