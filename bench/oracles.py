"""Expected values that never call the dunklweyl product engine.

Outputs of the CLI are read back into plain dictionaries, here called term
maps: a key (h1, h2, z, zb, g) of exponents maps to a Gaussian rational
(re, im) of Fractions, one entry per printed term.  The readers handle the
canonical text form and the canonical JSON form; the closed forms below build
the same term maps from integer arithmetic alone.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial

Key = tuple[int, int, int, int, int]  # exponents of h1, h2, z, zb, g
Gauss = tuple[Fraction, Fraction]
TermMap = dict[Key, Gauss]

_NAMES = ("h1", "h2", "z", "zb", "g")
_RATIONAL = re.compile(r"\d+(?:/\d+)?")
_POWER = re.compile(r"(h1|h2|zb|z|g)(?:\^(-?\d+))?")
_MIXED = re.compile(r"\((-?\d+(?:/\d+)?)([+-])(?:(\d+(?:/\d+)?)\*)?i\)")


def _gmul(a: Gauss, b: Gauss) -> Gauss:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _add_into(out: TermMap, key: Key, value: Gauss) -> None:
    re_, im = out.get(key, (Fraction(0), Fraction(0)))
    s = (re_ + value[0], im + value[1])
    if s == (0, 0):
        out.pop(key, None)
    else:
        out[key] = s


# -- readers ---------------------------------------------------------------


def _read_term(body: str) -> tuple[Key, Gauss]:
    coeff: Gauss = (Fraction(1), Fraction(0))
    exps = dict.fromkeys(_NAMES, 0)
    mixed = _MIXED.match(body)
    if mixed:
        re_part, sign, im_mag = mixed.groups()
        im = Fraction(im_mag) if im_mag else Fraction(1)
        coeff = (Fraction(re_part), im if sign == "+" else -im)
        body = body[mixed.end():]
        if body.startswith("*"):
            body = body[1:]
        elif body:
            raise ValueError(f"unexpected text after coefficient: {body!r}")
    for part in body.split("*") if body else []:
        if _RATIONAL.fullmatch(part):
            coeff = _gmul(coeff, (Fraction(part), Fraction(0)))
        elif part == "i":
            coeff = _gmul(coeff, (Fraction(0), Fraction(1)))
        else:
            power = _POWER.fullmatch(part)
            if not power or exps[power.group(1)]:
                raise ValueError(f"unexpected factor {part!r}")
            exps[power.group(1)] = int(power.group(2) or 1)
    return tuple(exps[n] for n in _NAMES), coeff


def read_text(text: str) -> TermMap:
    """Term map of one canonical text form (scalar, element or invariant)."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    out: TermMap = {}
    for chunk in re.split(r" (?=[+-] )", text):
        if chunk.startswith("+ "):
            sign, chunk = 1, chunk[2:]
        elif chunk.startswith("- "):
            sign, chunk = -1, chunk[2:]
        key, (re_, im) = _read_term(chunk)
        if key in out:
            raise ValueError(f"term {key} printed twice")
        out[key] = (sign * re_, sign * im)
    return out


def _read_scalar_json(coeff: list, z: int, zb: int, g: int, out: TermMap) -> None:
    for a, b, rn, rd, imn, imd in coeff:
        key = (a, b, z, zb, g)
        if key in out:
            raise ValueError(f"term {key} listed twice")
        out[key] = (Fraction(rn, rd), Fraction(imn, imd))


def read_json(data) -> TermMap:
    """Term map of the canonical JSON form of a scalar, element or invariant."""
    out: TermMap = {}
    if data and isinstance(data[0], dict):
        for t in data:
            _read_scalar_json(t["coeff"], t["z"], t["zb"], t.get("g", 0), out)
    else:
        _read_scalar_json(data, 0, 0, 0, out)
    return out


def h2_free(terms: TermMap) -> TermMap:
    """The h2 = 0 projection of a term map."""
    return {k: v for k, v in terms.items() if k[1] == 0}


# -- closed forms ------------------------------------------------------------

_MINUS_I_POWERS = (
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(-1)),
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(1)),
)


def weyl_product(p1: int, q1: int, p2: int, q2: int, g: int = 0, sign: int = 1) -> TermMap:
    """(z^p1 zb^q1)(z^p2 zb^q2) g^g at h2 = 0, by the Weyl reordering

        zb^m z^n = sum_k k! C(m,k) C(n,k) (-i h1)^k z^(n-k) zb^(m-k).
    """
    out: TermMap = {}
    for k in range(min(q1, p2) + 1):
        count = sign * factorial(k) * comb(q1, k) * comb(p2, k)
        unit = _MINUS_I_POWERS[k % 4]
        value = (unit[0] * count, unit[1] * count)
        _add_into(out, (k, 0, p1 + p2 - k, q1 + q2 - k, g), value)
    return out


def weyl_commutator(p1: int, q1: int, p2: int, q2: int) -> TermMap:
    """[z^p1 zb^q1, z^p2 zb^q2] at h2 = 0."""
    out = weyl_product(p1, q1, p2, q2)
    for key, value in weyl_product(p2, q2, p1, q1).items():
        _add_into(out, key, (-value[0], -value[1]))
    return out


def trace_closed_form(k: int) -> TermMap:
    """phi(z^k zb^k) = prod_{l<=k} i*h1*(l/2 + (-1)^(l+1)*2*floor((l+1)/2)*h2/(l+1))."""
    poly: TermMap = {(0, 0, 0, 0, 0): (Fraction(1), Fraction(0))}
    for l in range(1, k + 1):
        h2_coeff = Fraction(2 * ((l + 1) // 2), l + 1) * (1 if l % 2 else -1)
        factor = {(1, 0): (Fraction(0), Fraction(l, 2)), (1, 1): (Fraction(0), h2_coeff)}
        nxt: TermMap = {}
        for (a1, b1, *_), c1 in poly.items():
            for (a2, b2), c2 in factor.items():
                _add_into(nxt, (a1 + a2, b1 + b2, 0, 0, 0), _gmul(c1, c2))
        poly = nxt
    return poly


def invariant_trace(p: int, q: int) -> TermMap:
    """phi(z^p zb^q): the closed form on the diagonal, zero off it."""
    return trace_closed_form(p) if p == q else {}


def scaled(terms: TermMap, factor: Fraction) -> TermMap:
    return {k: (re_ * factor, im * factor) for k, (re_, im) in terms.items()}
