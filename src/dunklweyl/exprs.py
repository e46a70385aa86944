"""Expression parser and canonical printers.

The input grammar (frozen; this docstring is the reference):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' exponent)?
    atom     := rational | 'i' | 'h1' | 'h2' | 'g' | 'z' | 'zb' | 'x' | 'y'
              | 'p' DIGIT | 'q' DIGIT | '(' expr ')'
    rational := '-'? DIGITS ('/' DIGITS)?
    exponent := '-'? DIGITS

Input is ASCII: any other character is a syntax error at its position.
'*' is mandatory between factors and whitespace is insignificant.  'zb' is
the ASCII spelling of the conjugate fiber generator (z-bar).  Negative
exponents are allowed only on h1; generator powers must be non-negative.
A leading '-' is only read as part of a rational literal, so canonical
output spells -z as -1*z.

Evaluation walks the tree once.  A sum merges its parts once; a product folds
its central factors into one GaussianRational coefficient (with `*`, and `**`
for a constant's power) and its z, zb and g powers into one normal-order
word z^p zb^q g^e, and multiplies in with algebra.mul only a factor that
breaks that order (z after zb) or is compound (x, y, a parenthesised
non-constant, or its power).  Numerals are at most NUMERAL_LIMIT digits long.

Canonical printing flattens an element into one printed term per scalar
monomial: coefficient, then h1/h2 powers, then generators, joined by '*',
terms in lexicographic key order.  print and parse are mutually inverse on
canonical forms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Union

from .algebra import SrcElement
from .scalars import GR_I, GR_ONE, GaussianRational, ScalarPoly, gaussian

if TYPE_CHECKING:  # imported where used, so a cold CLI call loads neither
    from .index import LocalElement
    from .spherical import InvariantPoly

EXP_LIMIT = 10**6
NESTING_LIMIT = 100  # deepest parentheses read: deeper is a ParseError, not a RecursionError
NUMERAL_LIMIT = 4300  # digits of a numerator or denominator, CPython's own limit on int(str)
_NUMERAL_BOUND = 10**NUMERAL_LIMIT  # the least integer past NUMERAL_LIMIT digits


class ParseError(ValueError):
    """Syntax error with a byte-accurate position and the expected tokens."""

    def __init__(self, pos: int, expected: tuple[str, ...], found: str):
        self.pos = pos
        self.expected = expected
        self.found = found
        want = " or ".join(expected)
        super().__init__(f"syntax error at position {pos}: expected {want}, got {found}")


class EvalError(ValueError):
    """Semantic error while evaluating a well-formed tree."""


# -- expression trees ----------------------------------------------------


class Num(NamedTuple):
    num: int  # the rational num/den, den > 0
    den: int = 1


class Atom(NamedTuple):
    name: str  # 'i', 'h1', 'h2', 'g', 'z', 'zb', 'x', 'y', or p/q with digit


class Pow(NamedTuple):
    base: "Node"
    exp: int


class Prod(NamedTuple):
    factors: tuple["Node", ...]


class Sum(NamedTuple):
    parts: tuple[tuple[int, "Node"], ...]  # (sign, term)


Node = Union[Num, Atom, Pow, Prod, Sum]

_ATOM_NAMES = {"i", "h1", "h2", "g", "z", "zb", "x", "y"}
_ATOM_NAMES |= {f"p{d}" for d in range(10)} | {f"q{d}" for d in range(10)}


# -- lexer ----------------------------------------------------------------

_PUNCT = set("+-*^()/")


class _Token(NamedTuple):
    kind: str  # 'num', 'name', punctuation, 'end'
    text: str
    pos: int


def _lex(src: str) -> list[_Token]:
    if not src.isascii():  # then the str tests below are the ASCII ones
        i = next(i for i, ch in enumerate(src) if not ch.isascii())
        raise ParseError(i, ("an ASCII character",), repr(src[i]))
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(_Token("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (src[j].isalnum()):
                j += 1
            name = src[i:j]
            if name not in _ATOM_NAMES:
                raise ParseError(i, ("a generator or scalar name",), repr(name))
            tokens.append(_Token("name", name, i))
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(i, ("a token",), repr(ch))
    tokens.append(_Token("end", "", n))
    return tokens


# -- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.tokens = _lex(src)
        self.idx = 0
        self.depth = 0  # parentheses open at the current token

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def take(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.pos, (what,), repr(tok.text) if tok.text else "end of input")
        return self.take()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(tok.pos, ("'+'", "'-'", "'*'", "end of input"), repr(tok.text))
        return node

    def expr(self) -> Node:
        parts = [(1, self.term())]
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.take().kind == "+" else -1
            parts.append((sign, self.term()))
        if len(parts) == 1:
            return parts[0][1]
        return Sum(tuple(parts))

    def term(self) -> Node:
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.take()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors))

    def factor(self) -> Node:
        base = self.atom()
        if self.peek().kind != "^":
            return base
        self.take()
        negative = False
        if self.peek().kind == "-":
            negative = True
            self.take()
        tok = self.expect("num", "an integer exponent")
        if len(tok.text) > 7:
            raise ParseError(tok.pos, ("an exponent within limits",), "exponent overflow")
        exp = int(tok.text)
        if exp > EXP_LIMIT:
            raise ParseError(tok.pos, ("an exponent within limits",), "exponent overflow")
        if negative:
            exp = -exp
            if not (isinstance(base, Atom) and base.name == "h1"):
                raise ParseError(
                    tok.pos, ("a non-negative exponent (negative only on h1)",), str(exp)
                )
        return Pow(base, exp)

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "-" or tok.kind == "num":
            return self.rational()
        if tok.kind == "name":
            self.take()
            return Atom(tok.text)
        if tok.kind == "(":
            if self.depth == NESTING_LIMIT:
                raise ParseError(tok.pos, (f"at most {NESTING_LIMIT} nested parentheses",), "'('")
            self.take()
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            self.expect(")", "')'")
            return node
        raise ParseError(
            tok.pos,
            ("a rational", "a generator", "'('"),
            repr(tok.text) if tok.text else "end of input",
        )

    def rational(self) -> Num:
        negative = False
        if self.peek().kind == "-":
            negative = True
            self.take()
        num = self.numeral(self.expect("num", "digits"))
        den = 1
        if self.peek().kind == "/":
            self.take()
            den_tok = self.expect("num", "digits")
            den = self.numeral(den_tok)
            if den == 0:
                raise ParseError(den_tok.pos, ("a nonzero denominator",), "0")
        return Num(-num if negative else num, den)

    def numeral(self, tok: _Token) -> int:
        if len(tok.text) > NUMERAL_LIMIT:
            raise ParseError(tok.pos, (f"a numeral of at most {NUMERAL_LIMIT} digits",), f"{len(tok.text)} digits")
        return int(tok.text)


def parse(src: str) -> Node:
    """Parse an expression into a tree; raises ParseError with a position."""
    return _Parser(src).parse()


# -- evaluation -----------------------------------------------------------


# Atoms whose powers the atom table builds as one monomial; atom_fn gets the
# exponent as its argument (negative only for h1, by the grammar).
_POWER_ATOMS = {"z", "zb", "h1", "h2"}
_PLAIN = (0, 0, 0, GR_ONE, 0, 0)  # (p, q, e, c, a, b) of _element's empty word, coefficient 1
_I = SrcElement.term((0, 0, 0), GR_I)  # the value of i


def _eval_generic(node: Node, atom_fn):
    if isinstance(node, Num):
        return atom_fn("__num__", node)
    if isinstance(node, Atom):
        return atom_fn(node.name, 1)
    if isinstance(node, Pow):
        if isinstance(node.base, Atom) and node.base.name in _POWER_ATOMS:
            return atom_fn(node.base.name, node.exp)
        base = _eval_generic(node.base, atom_fn)
        out = atom_fn("__num__", Num(1))
        for _ in range(node.exp):
            out = out * base
        return out
    if isinstance(node, Prod):
        out = _eval_generic(node.factors[0], atom_fn)
        for f in node.factors[1:]:
            out = out * _eval_generic(f, atom_fn)
        return out
    if isinstance(node, Sum):
        out = atom_fn("__num__", Num(0))
        for sign, part in node.parts:
            value = _eval_generic(part, atom_fn)
            out = out + (value if sign == 1 else -value)
        return out
    raise TypeError(f"unknown node {node!r}")


def _element_atom(name: str, arg) -> SrcElement:
    """The value of one atom, which eval_local lifts to the fiber; eval_element reads
    only x, y, p and q here.  arg is a number's Num or a generator's exponent."""
    if name == "__num__":
        return SrcElement.term((0, 0, 0), gaussian(arg.num, 0, arg.den))
    if name == "i":
        return _I
    if name == "h1":
        return SrcElement.term((0, 0, 0), GR_ONE, arg)
    if name == "h2":
        return SrcElement.term((0, 0, 0), GR_ONE, 0, arg)
    if name == "g":
        return SrcElement.term((0, 0, 1))
    if name == "z":
        return SrcElement.term((arg, 0, 0))
    if name == "zb":
        return SrcElement.term((0, arg, 0))
    if name == "x":
        return SrcElement.x()
    if name == "y":
        return SrcElement.y()
    raise EvalError(f"generator {name!r} needs the local model (use localtrace)")


def eval_element(node: Node) -> SrcElement:
    """Evaluate a tree to a normal-form algebra element, in one walk."""
    return _element(node)


def _element(node: Node) -> SrcElement:
    """eval_element by the module docstring's rules; the coefficient is c * h1^a * h2^b."""
    if isinstance(node, Sum):
        parts = [(sign, _element(part)) for sign, part in node.parts]
        return parts[0][1].plus(parts[1:])
    left = None  # the factors before the word, once one of them was not folded
    p, q, e, c, a, b = _PLAIN
    for factor in node.factors if isinstance(node, Prod) else (node,):
        base, k = (factor.base, factor.exp) if isinstance(factor, Pow) else (factor, 1)
        name = base.name if isinstance(base, Atom) else None
        if isinstance(base, Num):
            c = c * gaussian(base.num, 0, base.den) ** k
        elif name == "h1":
            a += k
        elif name == "h2":
            b += k
        elif name == "g":
            e ^= k % 2
        elif name == "zb" or (name == "z" and not (q and k)):
            if e and k % 2:  # g crosses z^k or zb^k
                c = -c
            p, q = (p + k, q) if name == "z" else (p, q + k)
        elif name == "z":  # z after zb starts the next word
            word = SrcElement.term((p, q, e), c, a, b)
            left = word if left is None else left * word
            p, q, e, c, a, b = k, 0, 0, GR_ONE, 0, 0
        else:  # i, x, y, p, q or parenthesised
            value = _element(base) if name is None else _element_atom(name, 1)
            if (const := value.constant()) is None:  # a repeated product, folded in if constant
                power = value if k else SrcElement.one()
                for _ in range(k - 1):
                    power = power * value
                const, k = power.constant(), 1
            if const is not None:  # times (const * h1^ca * h2^cb)^k
                ca, cb, const = const
                c, a, b = c * const**k, a + ca * k, b + cb * k
                continue
            if (p, q, e, c, a, b) != _PLAIN:
                word = SrcElement.term((p, q, e), c, a, b)
                left = word if left is None else left * word
                p, q, e, c, a, b = _PLAIN
            left = power if left is None else left * power
    if left is not None and (p, q, e, c, a, b) == _PLAIN:
        return left
    word = SrcElement.term((p, q, e), c, a, b)
    return word if left is None else left * word


def eval_local(node: Node, n_pairs: int) -> LocalElement:
    """Evaluate a tree in the local model with n_pairs base pairs."""
    from .index import LocalElement

    def atom_fn(name: str, arg) -> LocalElement:
        if name[0] not in "pq":
            return LocalElement.from_fiber(_element_atom(name, arg))
        kind, idx = name[0], int(name[1:])
        if idx < 1 or idx > n_pairs:
            raise EvalError(f"base pair index out of range: {name} (n gives {n_pairs} pairs)")
        return LocalElement.base_var(kind, idx)

    return _eval_generic(node, atom_fn)


def parse_element(src: str) -> SrcElement:
    return eval_element(parse(src))


def parse_invariant(src: str) -> InvariantPoly:
    from .spherical import InvariantPoly

    return InvariantPoly.from_element(parse_element(src))


def parse_scalar(src: str) -> ScalarPoly:
    e = parse_element(src)
    c = e.coefficient((0, 0, 0))
    if e != SrcElement.scalar(c):
        raise EvalError("expected a pure scalar expression")
    return c


def check_symbol(name: str) -> str:
    """name, if it spells a curvature symbol: an ASCII letter, then letters or digits, not a grammar atom."""
    if name.isascii() and name.isalnum() and name[0].isalpha() and name not in _ATOM_NAMES:
        return name
    raise EvalError(f"bad curvature symbol {name!r}: expected an ASCII letter, then letters or digits, "
                    "and not a generator or scalar name")


# -- canonical printing ---------------------------------------------------


def _numeral(n: int) -> str:
    """str(n), refused past NUMERAL_LIMIT digits whatever CPython's own limit on printing an int is."""
    if abs(n) < _NUMERAL_BOUND:
        return int.__repr__(n)
    raise ValueError(f"the result has a numeral longer than exprs.NUMERAL_LIMIT ({NUMERAL_LIMIT} digits)")


def _rat_str(n: int, d: int) -> str:
    return _numeral(n) if d == 1 else f"{_numeral(n)}/{_numeral(d)}"


def _coeff_parts(c: GaussianRational) -> tuple[bool, list[str]]:
    """(is_negative, factor strings) for a Gaussian rational coefficient."""
    rn, rd, sn, sd = c.parts()
    if not sn:
        return rn < 0, [] if abs(rn) == rd == 1 else [_rat_str(abs(rn), rd)]
    if not rn:
        return sn < 0, ["i"] if abs(sn) == sd == 1 else [_rat_str(abs(sn), sd), "i"]
    # mixed coefficients keep their signs inside the parentheses
    if abs(sn) == sd == 1:
        im_part = "+i" if sn > 0 else "-i"
    else:
        im_part = f"{'+' if sn > 0 else '-'}{_rat_str(abs(sn), sd)}*i"
    return False, [f"({_rat_str(rn, rd)}{im_part})"]


def _sum_text(words) -> str:
    """The canonical text of a sum of scalar * word, from (ScalarPoly, ((name, exponent), ...))
    pairs in canonical order: one string per printed term, written as the walk reaches it."""
    out = []
    for c, word in words:
        tail = [name if k == 1 else f"{name}^{k}" for name, k in word if k]
        for (a, b), coeff in c.terms():
            neg, parts = _coeff_parts(coeff)
            if a:
                parts.append("h1" if a == 1 else f"h1^{a}")
            if b:
                parts.append("h2" if b == 1 else f"h2^{b}")
            body = "*".join(parts + tail) or "1"
            if out:
                out.append(f" - {body}" if neg else f" + {body}")
            elif neg:  # a leading '-' must start a rational literal to stay inside the grammar
                out.append(f"-{body}" if body[0].isdigit() else f"-1*{body}")
            else:
                out.append(body)
    return "".join(out) or "0"


def scalar_to_text(sp: ScalarPoly) -> str:
    return _sum_text(((sp, ()),))


def element_to_text(e: SrcElement) -> str:
    return _sum_text((c, (("z", p), ("zb", q), ("g", eps))) for (p, q, eps), c in e.terms())


def invariant_to_text(f: InvariantPoly) -> str:
    return _sum_text((c, (("z", p), ("zb", q))) for (p, q), c in f.terms())


def local_to_text(le: LocalElement) -> str:
    from .index import base_var_name

    return _sum_text((c, (*((base_var_name(v), k) for v, k in base), ("z", p), ("zb", q), ("g", eps)))
                     for (base, p, q, eps), c in le.terms())


def form_to_text(fp) -> str:
    """Curvature forms print with a parenthesized scalar; output-only."""
    parts = []
    for key, c in fp.terms():
        syms = "*".join(name if e == 1 else f"{name}^{e}" for name, e in key)
        scal = scalar_to_text(c)
        if not syms:
            parts.append(scal)
        elif scal == "1":
            parts.append(syms)
        else:
            parts.append(f"({scal})*{syms}")
    return " + ".join(parts) if parts else "0"


# -- JSON -----------------------------------------------------------------


def json_text(obj) -> str:
    """json.dumps(obj, indent=2) for None, bools, ints, floats, strings, lists,
    tuples and dicts with string keys, without importing json for them.

    Only a string that needs an escape (anything but printable ASCII without
    '"' and '\\') and a float go through json.dumps; an int past NUMERAL_LIMIT digits is refused.
    """
    return _json(obj, "\n")


def _json(obj, newline: str) -> str:
    if isinstance(obj, str):
        return _json_string(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return _numeral(obj)
    # nested values go one level deeper; ints, the bulk of the canonical JSON,
    # go straight to _numeral rather than through _json
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_numeral(v) if type(v) is int else _json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_json_string(k) + ": " + (_numeral(v) if type(v) is int else _json(v, inner))
                 for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    import json

    return json.dumps(obj)


def _json_string(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    import json

    return json.dumps(s)
