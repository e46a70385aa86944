"""Constructive reduction of invariant monomials to scalars, with receipts.

Every invariant monomial m equals phi(m)*1 plus an explicit combination of
star commutators.  A Certificate records that combination; check_certificate
replays it through the star-product engine and accepts only exact equality.
Monomials z^p zb^q with p != q reduce in one step against z*zb (they have a
nonzero rotation weight); diagonal monomials z^k zb^k walk down one degree at
a time against z^2, dividing by 2*i*h1 once per step.

Certificates serialize to JSON using the canonical text forms, so a fresh
process can replay them with nothing but the parser and the star product.
"""

from __future__ import annotations

from typing import NamedTuple

from .exprs import NUMERAL_LIMIT, json_text, parse_invariant, parse_scalar
from .scalars import GaussianRational, ScalarPoly
from .spherical import InvariantPoly, ParityError, invariant_monomials, star_commutator
from .trace import _products, _row_scalar, phi

MAX_REPORT_DEGREE = 24


class Witness(NamedTuple):
    """One commutator summand: coeff * (left star right - right star left)."""

    coeff: ScalarPoly
    left: InvariantPoly
    right: InvariantPoly


def _json_field(obj, key: str, kind: type):
    """obj[key] of a certificate JSON object, checked to be of the given type."""
    if not isinstance(obj, dict):
        raise ValueError("certificate JSON: expected an object")
    value = obj.get(key)
    if not isinstance(value, kind):
        raise ValueError(f"certificate JSON: {key!r} must be a {kind.__name__}")
    return value


def _json_int(numeral: str) -> int:
    """An integer of certificate JSON, refused past NUMERAL_LIMIT digits
    whatever CPython's own limit on int(str) is."""
    if len(numeral.lstrip("-")) > NUMERAL_LIMIT:
        raise ValueError("a numeral past NUMERAL_LIMIT")
    return int(numeral)


class Certificate(NamedTuple):
    """Witness that target - scalar*1 lies in the span of star commutators."""

    target: InvariantPoly
    scalar: ScalarPoly
    witnesses: tuple[Witness, ...]

    def to_json_dict(self) -> dict:
        return {
            "target": self.target.to_text(),
            "scalar": self.scalar.to_text(),
            "witnesses": [
                {
                    "coeff": w.coeff.to_text(),
                    "left": w.left.to_text(),
                    "right": w.right.to_text(),
                }
                for w in self.witnesses
            ],
        }

    def to_json(self) -> str:
        return json_text(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "Certificate":
        """Parse untrusted certificate JSON; a wrong shape raises ValueError."""
        witnesses = _json_field(data, "witnesses", list)
        return Certificate(
            target=parse_invariant(_json_field(data, "target", str)),
            scalar=parse_scalar(_json_field(data, "scalar", str)),
            witnesses=tuple(
                Witness(
                    coeff=parse_scalar(_json_field(w, "coeff", str)),
                    left=parse_invariant(_json_field(w, "left", str)),
                    right=parse_invariant(_json_field(w, "right", str)),
                )
                for w in witnesses
            ),
        )

    @staticmethod
    def from_json(text: str) -> "Certificate":
        import json

        try:
            data = json.loads(text, parse_int=_json_int)
        except RecursionError:
            raise ValueError("certificate JSON: nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"certificate JSON: {exc}") from None
        except ValueError:  # _json_int's refusal
            raise ValueError(
                f"certificate JSON: a number longer than exprs.NUMERAL_LIMIT ({NUMERAL_LIMIT} digits)") from None
        return Certificate.from_json_dict(data)


def reduce_certificate(p: int, q: int) -> Certificate:
    """Certificate for the invariant monomial z^p zb^q."""
    if p < 0 or q < 0 or (p + q) % 2 != 0:
        raise ParityError(f"z^{p} zb^{q} is not an invariant monomial")
    target = InvariantPoly.monomial(p, q)
    if p != q:
        # z^p zb^q = [z^p zb^q, z zb] / (i h1 (p - q))
        coeff = ScalarPoly.monomial(GaussianRational.of(0, p - q), 1, 0).invert_monomial()
        witness = Witness(coeff=coeff, left=target, right=InvariantPoly.zzbar())
        return Certificate(target=target, scalar=ScalarPoly.zero(), witnesses=(witness,))
    # Diagonal: peel z^j zb^j down to z^(j-1) zb^(j-1) via
    #   z^j zb^j - c_j z^(j-1) zb^(j-1) = [z^2, z^(j-1) zb^(j+1)] / (2 i h1 (j+1))
    # with c_j = recursion_scalar(j).  Step j's coefficient is the product of c_l
    # for l > j, (i h1)^(p-j) times the stream's product before factor j, divided
    # by 2 i h1 (j+1); the product after the last factor makes the scalar phi(m).
    products = _products(range(p, 0, -1))
    witnesses = tuple(
        Witness(
            coeff=_row_scalar(p - j - 1, poly, num, 2 * (j + 1) * den),
            left=InvariantPoly.monomial(2, 0),
            right=InvariantPoly.monomial(j - 1, j + 1),
        )
        for j, (poly, num, den) in zip(range(p, 0, -1), products)  # stops before the last product
    )
    return Certificate(target=target, scalar=_row_scalar(p, *next(products)), witnesses=witnesses)


def check_certificate(cert: Certificate) -> bool:
    """Replay the witnesses through the star engine; exact equality only."""
    acc = InvariantPoly().plus((1, star_commutator(w.left, w.right).scale(w.coeff)) for w in cert.witnesses)
    lhs = cert.target - InvariantPoly.one().scale(cert.scalar)
    return lhs == acc


class Hh0Entry(NamedTuple):
    """One monomial's certificate scalar, replay verdict and trace, as text."""

    monomial: str
    scalar: str
    checked: bool
    phi: str

    @property
    def matches_phi(self) -> bool:
        return self.scalar == self.phi

    @property
    def ok(self) -> bool:
        return self.checked and self.matches_phi


def certify_monomial(m: InvariantPoly) -> Hh0Entry:
    """Certify one invariant monomial: one certificate, one replay, one phi."""
    ((p, q), _c), = m.terms()
    cert = reduce_certificate(p, q)
    return Hh0Entry(
        monomial=m.to_text(),
        scalar=cert.scalar.to_text(),
        checked=check_certificate(cert),
        phi=phi(m).to_text(),
    )


class Hh0Report(NamedTuple):
    max_degree: int
    entries: tuple[Hh0Entry, ...] = ()

    @property
    def all_ok(self) -> bool:
        return bool(self.entries) and all(e.ok for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "all_ok": self.all_ok,
            "entries": [
                {
                    "monomial": e.monomial,
                    "scalar": e.scalar,
                    "checked": e.checked,
                    "matches_phi": e.matches_phi,
                }
                for e in self.entries
            ],
        }


def check_report_degree(max_degree: int) -> None:
    """Refuse to certify every monomial up to a degree above MAX_REPORT_DEGREE."""
    if max_degree > MAX_REPORT_DEGREE:
        raise ValueError(f"max_degree capped at {MAX_REPORT_DEGREE}")


def hh0_report(max_degree: int) -> Hh0Report:
    """Certify every invariant monomial of degree <= max_degree against phi."""
    if max_degree % 2 != 0:
        raise ValueError("max_degree must be even")
    check_report_degree(max_degree)
    entries = tuple(certify_monomial(m) for m in invariant_monomials(max_degree))
    return Hh0Report(max_degree=max_degree, entries=entries)
