"""Span tracer installed from outside the dunklweyl package.

`install()` replaces chosen public functions and methods of the package with
timing wrappers.  Modules bind names with `from .algebra import mul`, so a
wrapped function is rebound in every loaded dunklweyl module that holds it.

Each call to a wrapped layer function records a span
[name, start, end, parent index, op id, covered], where `covered` is the time
spent inside child wrappers, their bookkeeping included, so that a span's self
time (end - start - covered) leaves out the tracer's own cost.  Scalar
arithmetic runs millions of times per operation; its spans are folded into
per-name totals (calls, self time) instead of being stored one by one.  Spans
stay in memory and are written out once, by `Tracer.dump`.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

NAME, START, END, PARENT, OP, COVERED = range(6)


class Tracer:
    def __init__(self, op_id: int = 0) -> None:
        self.op_id = op_id
        self.root = ["root", 0.0, 0.0, -1, op_id, 0.0]
        self.spans: list[list] = []
        self.depth: dict[str, int] = {}  # open spans per name
        self.stack: list[list] = [self.root]
        self.folded: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self.unwrapped: list[str] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name: str, value: int) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        """Wrapper that stores one span per call.

        `on_result(result, args)` runs after the span closes, while the
        depth of still-open spans of the same name is up to date.
        """
        spans, stack, depth = self.spans, self.stack, self.depth
        depth.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1]
            rec = [name, 0.0, 0.0, parent, self.op_id, 0.0]
            spans.append(rec)
            stack.append(rec)
            depth[name] += 1
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                depth[name] -= 1
            if on_result is not None:
                on_result(result, args)
            parent[COVERED] += perf_counter() - entered
            return result

        return wrapper

    def folded_span(self, name: str, fn, on_result=None):
        """Wrapper that adds each call to per-name totals without storing it."""
        stack = self.stack
        totals = self.folded.setdefault(name, [0, 0.0])

        def wrapper(*args):
            entered = perf_counter()
            frame = [name, 0.0, 0.0, None, None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args)
            finally:
                end = perf_counter()
                stack.pop()
            totals[0] += 1
            totals[1] += end - start - frame[COVERED]
            if on_result is not None:
                on_result(result)
            stack[-1][COVERED] += perf_counter() - entered
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrapper that only counts calls."""
        cell = self.folded.setdefault(name, [0, 0.0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write spans, folded totals and counters as one JSON document."""
        position = {id(rec): i for i, rec in enumerate(self.spans)}
        spans = [
            [r[NAME], r[START], r[END], position.get(id(r[PARENT]), -1), r[OP], r[COVERED]]
            for r in self.spans
        ]
        doc = {
            "spans": spans,
            "folded": self.folded,
            "counts": self.counts,
            "unwrapped": self.unwrapped,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _coeff_bits(tracer: Tracer, to_json):
    def on_scalar(result) -> None:
        best = 0
        for _a, _b, rn, rd, imn, imd in to_json(result):
            best = max(best, abs(rn).bit_length(), rd.bit_length(),
                       abs(imn).bit_length(), imd.bit_length())
        tracer.maximum("scalars.max_coeff_bits", best)

    return on_scalar


def _terms_out(tracer: Tracer):
    def on_element(result, _args) -> None:
        terms = scalar_terms = 0
        for _key, coeff in result.terms():
            terms += 1
            scalar_terms += sum(1 for _ in coeff.terms())
        tracer.count("algebra.mul.terms_out", terms)
        tracer.count("algebra.mul.scalar_terms_out", scalar_terms)

    return on_element


def _witnesses(tracer: Tracer):
    def on_check(_result, args) -> None:
        tracer.count("hochschild.witnesses_replayed", len(args[0].witnesses))

    return on_check


def _suite_cases(tracer: Tracer):
    def on_report(report, _args) -> None:
        tracer.count("suites.cases", len(report.cases))
        tracer.count("suites.cases_failed", report.failed)

    return on_report


def _chars_out(tracer: Tracer):
    def on_print(result, _args) -> None:
        if tracer.depth["exprs.print"] == 0 and isinstance(result, str):
            tracer.count("exprs.chars_out", len(result))

    return on_print


MODULES = ("scalars", "algebra", "spherical", "trace", "hochschild", "index", "exprs", "suites", "cli")


def install(tracer: Tracer) -> None:
    """Wrap the traced entry points of every dunklweyl layer."""
    mods = {m: importlib.import_module(f"dunklweyl.{m}") for m in MODULES}
    scalar_json = mods["scalars"].ScalarPoly.to_json
    on_print = _chars_out(tracer)

    def printer(name, fn):
        return tracer.span(name, fn, on_print)

    # (module, attribute path, span name, wrapper factory)
    plan = [
        ("scalars", "ScalarPoly.__mul__", "scalars.ScalarPoly.mul",
         lambda n, f: tracer.folded_span(n, f, _coeff_bits(tracer, scalar_json))),
        ("scalars", "ScalarPoly.__add__", "scalars.ScalarPoly.add",
         lambda n, f: tracer.folded_span(n, f, _coeff_bits(tracer, scalar_json))),
        ("scalars", "GaussianRational.__mul__", "scalars.GaussianRational.mul", tracer.counted),
        ("algebra", "mul", "algebra.mul", lambda n, f: tracer.span(n, f, _terms_out(tracer))),
        ("spherical", "star", "spherical.star", tracer.span),
        ("spherical", "moyal_star", "spherical.moyal_star", tracer.span),
        ("trace", "phi", "trace.phi", tracer.span),
        ("trace", "ch_phi", "trace.ch_phi", tracer.span),
        ("hochschild", "reduce_certificate", "hochschild.reduce_certificate", tracer.span),
        ("hochschild", "check_certificate", "hochschild.check_certificate",
         lambda n, f: tracer.span(n, f, _witnesses(tracer))),
        ("index", "index_form", "index.index_form", tracer.span),
        ("index", "local_star", "index.local_star", tracer.span),
        ("index", "local_trace_density", "index.local_trace_density", tracer.span),
        ("exprs", "parse", "exprs.parse", tracer.span),
        ("exprs", "eval_element", "exprs.eval", tracer.span),
        ("exprs", "eval_local", "exprs.eval", tracer.span),
        ("suites", "run_suite", "suites.run_suite",
         lambda n, f: tracer.span(n, f, _suite_cases(tracer))),
        ("cli", "main", "cli.main", tracer.span),
    ]
    for fn_name in ("series_exp", "series_log", "series_sqrt", "series_inverse"):
        plan.append(("scalars", fn_name, "scalars.series", tracer.span))
    for fn_name in ("scalar_to_text", "element_to_text", "invariant_to_text",
                    "local_to_text", "form_to_text"):
        plan.append(("exprs", fn_name, "exprs.print", printer))
    for module, cls in (("scalars", "ScalarPoly"), ("algebra", "SrcElement"),
                        ("spherical", "InvariantPoly"), ("index", "FormPoly")):
        plan.append((module, f"{cls}.to_json", "exprs.print", printer))
    for fn_name in ("_emit_value", "_local_json"):
        plan.append(("cli", fn_name, "exprs.print", printer))

    for module, path, name, factory in plan:
        owner = mods[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr, None)
        if original is None:
            tracer.unwrapped.append(f"{module}.{path}")
            continue
        wrapped = factory(name, original)
        setattr(owner, attr, wrapped)
        if not outer:
            _rebind(original, wrapped)


def _rebind(original, wrapped) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "dunklweyl" or mod_name.startswith("dunklweyl.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def layer_totals(docs: list[dict]) -> dict[str, dict]:
    """Calls and self seconds per span name, summed over dumped tracers."""
    out: dict[str, dict] = {}

    def add(name: str, calls: int, self_s: float) -> None:
        cell = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        cell["calls"] += calls
        cell["self_s"] += self_s

    for doc in docs:
        spans = doc["spans"]
        for name, start, end, _parent, _op, covered in spans:
            add(name, 1, end - start - covered)
        for name, (calls, self_s) in doc["folded"].items():
            add(name, calls, self_s)
    return out
