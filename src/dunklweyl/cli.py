"""Command-line front end.

Subcommands: nf, mul, comm, star, trace, certify, hh0, chphi, index,
localtrace, verify.  Expression arguments use the grammar documented in the
exprs module ('zb' spells the conjugate generator).  Exit status: 0 on
success, 1 when a verification suite fails, 2 on usage or parse errors.

A cold call imports only what its subcommand runs: exprs, algebra and scalars
here; every other engine module, and json, only where it is used.
"""

from __future__ import annotations

import argparse
import sys

from . import SUITE_NAMES, exprs
from .algebra import commutator, mul
from .scalars import ExtractionError


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "integer"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunkl",
        description="Exact computations in the rank-one symplectic reflection algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    def add_common(p: argparse.ArgumentParser) -> None:
        add_format(p)
        p.add_argument(
            "--h2-zero", action="store_true", help="substitute h2 = 0 in the output"
        )

    p = sub.add_parser("nf", help="normal form of an expression")
    p.add_argument("expr")
    add_common(p)

    for name, help_text in (
        ("mul", "product of two expressions"),
        ("comm", "commutator of two expressions"),
        ("star", "star product of two invariant polynomials"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("lhs")
        p.add_argument("rhs")
        add_common(p)

    p = sub.add_parser("trace", help="trace of an invariant polynomial")
    p.add_argument("expr")
    add_common(p)

    p = sub.add_parser("certify", help="commutator certificate for an invariant monomial")
    p.add_argument("expr", nargs="?", help="monomial, e.g. 'z^2*zb^2'")
    p.add_argument("--check", metavar="FILE", help="replay a certificate JSON file instead")
    add_format(p)

    p = sub.add_parser("hh0", help="certify all invariant monomials up to a degree")
    p.add_argument("--degree", type=_int_at_least(0), default=8)
    add_format(p)

    p = sub.add_parser("chphi", help="deformed character series coefficients")
    p.add_argument("--order", type=_int_at_least(0), default=6)
    add_common(p)

    p = sub.add_parser("index", help="degree-(n-1) index form in curvature symbols")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--rt", action="append", default=[], metavar="SYM",
                   help="tangent eigenvalue-pair symbol (repeat n-1 times; '0' for none)")
    p.add_argument("--theta", metavar="SYM", help="central curvature symbol ('0' for none)")
    p.add_argument("--rn", metavar="SYM", help="normal curvature symbol ('0' for none)")
    add_common(p)

    p = sub.add_parser("localtrace", help="fiberwise trace density in the local model")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("expr")
    add_common(p)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.add_argument("--degree", type=_int_at_least(0), default=8)
    p.add_argument("--order", type=_int_at_least(0), default=6)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    return parser


def _print_json(obj) -> None:
    import json

    print(json.dumps(obj, indent=2))


def _emit_value(args, value, to_json=None) -> None:
    """Print value in the requested format, building only that one: its
    canonical text, or to_json(value) (value.to_json() by default)."""
    if args.format == "json":
        _print_json(to_json(value) if to_json else value.to_json())
    else:
        print(value.to_text())


def _maybe_h2_zero(args, value):
    return value.subs_h2_zero() if args.h2_zero else value


def _run_command(args) -> int:
    if args.command == "nf":
        _emit_value(args, _maybe_h2_zero(args, exprs.parse_element(args.expr)))
        return 0
    if args.command in ("mul", "comm"):
        a = exprs.parse_element(args.lhs)
        b = exprs.parse_element(args.rhs)
        e = mul(a, b) if args.command == "mul" else commutator(a, b)
        _emit_value(args, _maybe_h2_zero(args, e))
        return 0
    if args.command == "star":
        from .spherical import star

        f = exprs.parse_invariant(args.lhs)
        g = exprs.parse_invariant(args.rhs)
        _emit_value(args, _maybe_h2_zero(args, star(f, g)))
        return 0
    if args.command == "trace":
        from .trace import phi

        f = exprs.parse_invariant(args.expr)
        _emit_value(args, _maybe_h2_zero(args, phi(f)))
        return 0
    if args.command == "certify":
        from .hochschild import Certificate, check_certificate, reduce_certificate

        if (args.expr is None) == (args.check is None):
            raise ValueError("certify takes an expression or --check FILE, not both or neither")
        if args.check:
            try:
                with open(args.check, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            except UnicodeDecodeError as exc:
                raise ValueError(f"certificate JSON: {exc}") from None
            ok = check_certificate(Certificate.from_json(text))
            if args.format == "json":
                _print_json({"ok": ok})
            else:
                print("ok" if ok else "FAIL")
            return 0 if ok else 1
        f = exprs.parse_invariant(args.expr)
        terms = list(f.terms())
        if len(terms) != 1 or not terms[0][1].is_one():
            raise exprs.EvalError("certify expects a single monomial like 'z^2*zb^2'")
        (p, q), _ = terms[0]
        cert = reduce_certificate(p, q)
        print(cert.to_json())
        return 0
    if args.command == "hh0":
        from .hochschild import hh0_report

        report = hh0_report(args.degree if args.degree % 2 == 0 else args.degree - 1)
        if args.format == "json":
            _print_json(report.to_json_dict())
        else:
            for e in report.entries:
                mark = "ok  " if e.ok else "FAIL"
                print(f"{mark} [{e.monomial}] = ({e.scalar}) * [1]")
            print(f"{'all certified' if report.all_ok else 'FAILURES present'}")
        return 0 if report.all_ok else 1
    if args.command == "chphi":
        from .trace import ch_phi

        series = ch_phi(args.order)
        coeffs = [c.subs_h2_zero() if args.h2_zero else c for c in series.coeffs]
        if args.format == "json":
            _print_json({str(k): c.to_json() for k, c in enumerate(coeffs)})
        else:
            for k, c in enumerate(coeffs):
                print(f"t^{k}: {exprs.scalar_to_text(c)}")
        return 0
    if args.command == "index":
        from .index import FormPoly, index_form

        deg = 2 * (args.n - 1)

        def symbol(name):  # absent or '0': no curvature
            return None if name in (None, "0") else FormPoly.symbol(exprs.check_symbol(name), deg)

        rt = [symbol(s) for s in args.rt] + [None] * (args.n - 1 - len(args.rt))  # index_form refuses extras
        _emit_value(args, _maybe_h2_zero(args, index_form(rt, symbol(args.theta), symbol(args.rn), args.n)))
        return 0
    if args.command == "localtrace":
        from .index import local_trace_density

        F = exprs.eval_local(exprs.parse(args.expr), args.n - 1)
        _emit_value(args, _maybe_h2_zero(args, local_trace_density(F)), _local_json)
        return 0
    if args.command == "verify":
        from .suites import RunConfig, run_suite

        cfg = RunConfig(fmt=args.format, degree=args.degree, order=args.order, seed=args.seed)
        report = run_suite(args.suite, cfg)
        print(report.to_json() if args.format == "json" else report.to_text())
        return 0 if report.ok else 1
    raise AssertionError(f"unhandled command {args.command}")


def _local_json(le) -> list:
    out = []
    for (base, p, q, eps), c in le.terms():
        out.append(
            {
                "base": {f"{'p' if v % 2 == 0 else 'q'}{v // 2 + 1}": e for v, e in base},
                "z": p,
                "zb": q,
                "g": eps,
                "coeff": c.to_json(),
            }
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return _run_command(args)
    except (ValueError, ExtractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
