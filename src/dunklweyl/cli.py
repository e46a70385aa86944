"""Command-line front end.

Subcommands: nf, mul, comm, star, trace, certify, hh0, chphi, index,
localtrace, verify.  Expression arguments use the grammar documented in the
exprs module ('zb' spells the conjugate generator).  Exit status: 0 on
success, 1 when a verification suite fails, 2 on usage or parse errors, 141
when standard output is closed before the output is written.

The command table _COMMANDS holds the grammar once: _read_argv reads a
well-formed argv from it, and argparse builds its parser from it only for
help and usage errors.  A cold call imports only what its subcommand runs:
exprs, algebra and scalars here; every other engine module, and json, only
where it is used.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import SUITE_NAMES, exprs
from .algebra import commutator, mul
from .scalars import ExtractionError

# An argument is (name, kind, arg, default, extra), in add_argument order.
# kind is "positional", or for an option "choice" (arg: the choices), "int"
# (arg: the minimum, or None for any integer), "str", "append" (default [])
# or "flag" (store_true, default False).  extra holds argparse keywords: help,
# metavar, required, and nargs="?" for a positional that may be left out.
_FORMAT = ("--format", "choice", ("text", "json"), "text", {})
_COMMON = (_FORMAT, ("--h2-zero", "flag", None, None, {"help": "substitute h2 = 0 in the output"}))
_EXPR = ("expr", "positional", None, None, {})
_PAIR = (("lhs", "positional", None, None, {}), ("rhs", "positional", None, None, {}))
_N = ("--n", "int", 1, None, {"required": True})

_COMMANDS = {
    "nf": ("normal form of an expression", (_EXPR, *_COMMON)),
    "mul": ("product of two expressions", (*_PAIR, *_COMMON)),
    "comm": ("commutator of two expressions", (*_PAIR, *_COMMON)),
    "star": ("star product of two invariant polynomials", (*_PAIR, *_COMMON)),
    "trace": ("trace of an invariant polynomial", (_EXPR, *_COMMON)),
    "certify": ("commutator certificate for an invariant monomial", (
        ("expr", "positional", None, None, {"nargs": "?", "help": "monomial, e.g. 'z^2*zb^2'"}),
        ("--check", "str", None, None, {"metavar": "FILE", "help": "replay a certificate JSON file instead"}),
        (*_FORMAT[:4], {"help": "format of the --check verdict; a certificate always prints as JSON"}),
    )),
    "hh0": ("certify all invariant monomials up to a degree", (("--degree", "int", 0, 8, {}), _FORMAT)),
    "chphi": ("deformed character series coefficients", (("--order", "int", 0, 6, {}), *_COMMON)),
    "index": ("degree-(n-1) index form in curvature symbols", (
        _N,
        ("--rt", "append", None, None,
         {"metavar": "SYM", "help": "tangent eigenvalue-pair symbol (repeat n-1 times; '0' for none)"}),
        ("--theta", "str", None, None, {"metavar": "SYM", "help": "central curvature symbol ('0' for none)"}),
        ("--rn", "str", None, None, {"metavar": "SYM", "help": "normal curvature symbol ('0' for none)"}),
        *_COMMON,
    )),
    "localtrace": ("fiberwise trace density in the local model", (_N, _EXPR, *_COMMON)),
    "verify": ("run a named verification suite", (
        ("--suite", "choice", SUITE_NAMES + ("all",), "all", {}),
        ("--degree", "int", 0, 8, {}),
        ("--order", "int", 0, 6, {}),
        ("--seed", "int", None, 0, {}),
        _FORMAT,
    )),
}


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low, else a usage error."""
    import argparse

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "integer"
    return parse


def _build_parser():
    """The argparse parser of _COMMANDS: the one source of help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="dunkl",
        description="Exact computations in the rank-one symplectic reflection algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, kind, arg, default, extra in arguments:
            if kind == "choice":
                p.add_argument(name, choices=arg, default=default, **extra)
            elif kind == "int":
                p.add_argument(name, type=int if arg is None else _int_at_least(arg), default=default, **extra)
            elif kind == "append":
                p.add_argument(name, action="append", default=[], **extra)
            elif kind == "flag":
                p.add_argument(name, action="store_true", **extra)
            else:  # a positional or a free string
                p.add_argument(name, **extra)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of _build_parser().parse_args(argv), read from _COMMANDS
    without argparse, or None where argparse has to decide.  Prints nothing.

    None covers: no words; an unknown command; help; every other word that
    starts with "-" and is not an option of the command spelled out in full
    (abbreviations, --opt=value, --, negative numbers); an option without a
    value, or with a value that starts with "-"; a value its choices, integer
    or minimum refuses; a missing required option; a wrong number of
    positionals.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    values = {"command": argv[0]}
    options, positionals, least = {}, [], 0
    for spec in _COMMANDS[argv[0]][1]:
        name, kind, _arg, default, extra = spec
        if kind == "positional":
            positionals.append(name)
            least += "nargs" not in extra
        else:
            options[name] = spec
        values[_dest(name)] = [] if kind == "append" else False if kind == "flag" else default
    words = []
    rest = iter(argv[1:])
    for word in rest:
        if not word.startswith("-"):
            words.append(word)
            continue
        if word not in options:
            return None
        name, kind, arg, _default, _extra = options[word]
        if kind == "flag":
            values[_dest(name)] = True
            continue
        value = next(rest, "-")  # a missing value is refused like one starting with "-"
        if value.startswith("-") or (kind == "choice" and value not in arg):
            return None
        if kind == "int":
            try:
                value = int(value)
            except ValueError:
                return None
            if arg is not None and value < arg:
                return None
        if kind == "append":
            values[_dest(name)].append(value)
        else:
            values[_dest(name)] = value
    if not least <= len(words) <= len(positionals):
        return None
    values.update(zip(positionals, words))
    if any(extra.get("required") and values[_dest(name)] is None for name, *_, extra in options.values()):
        return None
    return SimpleNamespace(**values)


def _print_json(obj) -> None:
    print(exprs.json_text(obj))


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
    from .index import base_var_name

    return [{"base": {base_var_name(v): e for v, e in base}, "z": p, "zb": q, "g": eps, "coeff": c.to_json()}
            for (base, p, q, eps), c in le.terms()]


def main(argv: list[str] | None = None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    try:
        if args is None:
            args = _build_parser().parse_args(argv)
        code = _run_command(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the exit flush
        return code
    except SystemExit as exc:  # argparse printed help or a usage error
        return int(exc.code) if exc.code is not None else 2
    except (ValueError, ExtractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout is gone: write the rest to devnull, exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
