from __future__ import annotations

import argparse
import ast
import contextlib
import gc
import io
import json
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklweyl import cli, exprs, hochschild, spherical, suites
from dunklweyl.algebra import SrcElement
from dunklweyl.cli import main
from dunklweyl.index import FormPoly
from dunklweyl.scalars import ExtractionError, NonInvertibleError, ParityError, ScalarPoly, SeriesDomainError
from dunklweyl.spherical import InvariantPoly
from dunklweyl.suites import RunConfig, run_suite

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_comm(self, capsys):
        code, out, _ = run_cli(capsys, "comm", "z^2", "zb")
        assert code == 0 and out.strip() == "2*i*h1*z"

    def test_nf(self, capsys):
        code, out, _ = run_cli(capsys, "nf", "y*x - x*y")
        assert code == 0 and out.strip() == "1/2*h1 + h1*h2*g"

    def test_trace(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "z*zb")
        assert code == 0 and out.strip() == "1/2*i*h1 + i*h1*h2"

    def test_star_h2_zero(self, capsys):
        code, out, _ = run_cli(capsys, "star", "z*zb", "z*zb", "--h2-zero")
        assert code == 0 and out.strip() == "-1*i*h1*z*zb + z^2*zb^2"

    def test_mul_json(self, capsys):
        code, out, _ = run_cli(capsys, "mul", "g", "z", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == [
            {"z": 1, "zb": 0, "g": 1, "coeff": [[0, 0, -1, 1, 0, 1]]}
        ]

    def test_chphi(self, capsys):
        code, out, _ = run_cli(capsys, "chphi", "--order", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t^0: 1"
        assert lines[1] == "t^1: 1/2*i*h1 + i*h1*h2"

    def test_index(self, capsys):
        code, out, _ = run_cli(capsys, "index", "--n", "2", "--rt", "0", "--theta", "T")
        assert code == 0 and out.strip() == "(-1)*T"

    def test_localtrace(self, capsys):
        # the expression multiplies in the local algebra, so p1*q1 carries
        # the symmetric-ordering correction p1 q1 + h1/2 before tracing
        code, out, _ = run_cli(capsys, "localtrace", "--n", "2", "p1*q1*z*zb")
        assert code == 0
        assert out.strip() == (
            "1/4*i*h1^2 + 1/2*i*h1^2*h2 + 1/2*i*h1*p1*q1 + i*h1*h2*p1*q1"
        )

    def test_localtrace_fiber_commutator_vanishes(self, capsys):
        code, out, _ = run_cli(
            capsys, "localtrace", "--n", "2", "z^2*zb^2 - zb^2*z^2"
        )
        assert code == 0 and out.strip() == "0"

    def test_hh0(self, capsys):
        code, out, _ = run_cli(capsys, "hh0", "--degree", "4")
        assert code == 0
        assert "all certified" in out
        assert len([l for l in out.splitlines() if l.startswith("ok")]) == 9


# One call per subcommand that prints a value through cli._emit_value.
EMITTING_ARGVS = [
    ["nf", "zb^2*g*z^3"],
    ["mul", "z^2", "zb"],
    ["comm", "z^2", "zb"],
    ["star", "z*zb", "z^2*zb^2"],
    ["trace", "z^2*zb^2"],
    ["index", "--n", "2", "--rt", "R", "--theta", "T", "--rn", "N"],
    ["localtrace", "--n", "2", "p1*q1*z*zb"],
]
TEXT_WRITERS = [(exprs, name) for name in
                ("element_to_text", "invariant_to_text", "scalar_to_text", "form_to_text", "local_to_text")]
JSON_WRITERS = [(cls, "to_json") for cls in (SrcElement, InvariantPoly, ScalarPoly, FormPoly)] + [(cli, "_local_json")]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", EMITTING_ARGVS, ids=[a[0] for a in EMITTING_ARGVS])
def test_only_the_requested_format_is_built(capsys, monkeypatch, argv, fmt):
    """Each value is written once, in the requested format: the writers of the
    other format are never called."""
    code, want, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0 and want

    def unused(*_args):
        raise AssertionError("the other format was built")

    for owner, name in JSON_WRITERS if fmt == "text" else TEXT_WRITERS:
        monkeypatch.setattr(owner, name, unused)
    assert run_cli(capsys, *argv, "--format", fmt) == (0, want, "")


class TestErrors:
    def test_parse_error_exit_2(self, capsys):
        code, _out, err = run_cli(capsys, "nf", "z^-1")
        assert code == 2 and "error" in err

    def test_non_invariant_star_exit_2(self, capsys):
        code, _out, err = run_cli(capsys, "star", "z", "zb")
        assert code == 2 and "error" in err

    def test_unknown_subcommand_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["nf", "z", "--bogus"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "trace", "--degree", "-1"],
            ["verify", "--suite", "euler", "--degree", "-3"],
            ["hh0", "--degree", "-2"],
            ["verify", "--jobs", "0"],
        ],
    )
    def test_run_that_checks_nothing_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "error:" in err

    @pytest.mark.parametrize("argv", [["hh0"], ["verify", "--suite", "hh0"]])
    def test_hh0_degree_cap_is_shared(self, capsys, argv):
        # both commands certify every monomial up to the degree, under one cap
        code, _out, _err = run_cli(capsys, *argv, "--degree", "24")
        assert code == 0
        code, out, err = run_cli(capsys, *argv, "--degree", "26")
        assert code == 2 and out == "" and "error:" in err

    def test_degree_cap_refuses_before_any_case_runs(self, capsys, monkeypatch):
        calls = []
        original = suites.trace_defect

        def counted(m1, m2):
            calls.append((m1, m2))
            return original(m1, m2)

        monkeypatch.setattr(suites, "trace_defect", counted)
        # the trace suite comes before hh0 in `all`; none of its cases may run
        code, out, err = run_cli(capsys, "verify", "--suite", "all", "--degree", "26")
        assert code == 2 and out == "" and "error:" in err
        assert calls == []

    def test_chphi_order_beyond_data_is_usage_error(self, capsys, monkeypatch):
        # data/suites/chphi.json holds k <= 8: order 8 is checked, order 9 refused
        code, out, _err = run_cli(capsys, "verify", "--suite", "chphi", "--order", "8")
        assert code == 0 and "18/18 passed" in out
        ran = []
        original = suites._run_case

        def counted(case_id, thunk):
            ran.append(case_id)
            return original(case_id, thunk)

        monkeypatch.setattr(suites, "_run_case", counted)
        for suite in ("chphi", "all"):
            code, out, err = run_cli(capsys, "verify", "--suite", suite, "--order", "9")
            assert code == 2 and out == "" and "error:" in err, suite
        assert ran == []

    def test_cases_are_built_as_they_run(self, monkeypatch):
        # a roundtrip case holds its random inputs in its thunk's defaults;
        # count the thunks alive when the first case runs (720 if all are built first)
        class FirstCaseRan(Exception):
            pass

        def first(case_id, thunk):
            gc.collect()
            raise FirstCaseRan(sum(
                isinstance(o, types.FunctionType) and o.__qualname__.startswith("suite_roundtrip.")
                for o in gc.get_objects()
            ))

        monkeypatch.setattr(suites, "_run_case", first)
        for name in ("roundtrip", "all"):
            with pytest.raises(FirstCaseRan) as ran:
                run_suite(name, RunConfig())
            assert ran.value.args[0] <= 1, name

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--jobs", "2"],
            ["verify", "--h2-zero"],
            ["verify", "--inject-failure"],
            ["hh0", "--h2-zero"],
            ["certify", "z*zb", "--h2-zero"],
        ],
        ids=["verify-jobs", "verify-h2-zero", "verify-inject-failure", "hh0-h2-zero", "certify-h2-zero"],
    )
    def test_removed_option_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "error:" in err

    def test_extraction_error_exit_2(self, capsys, monkeypatch):
        # an internal consistency failure of the star product is still exit 2
        def broken(f, g):
            raise spherical.ExtractionError("non-invariant residue z^1 zb^0")

        monkeypatch.setattr(spherical, "star", broken)
        code, out, err = run_cli(capsys, "star", "z*zb", "z^2")
        assert code == 2 and out == ""
        assert err == "error: non-invariant residue z^1 zb^0\n"

    @pytest.mark.parametrize(
        "exc",
        [exprs.ParseError(3, ("'('",), "'x'"), exprs.EvalError("bad"), ParityError("odd"),
         NonInvertibleError("h2"), SeriesDomainError("log"), ExtractionError("residue"), ValueError("value")],
        ids=lambda exc: type(exc).__name__,
    )
    def test_engine_errors_exit_2(self, capsys, monkeypatch, exc):
        # every error the engine raises on bad input is a ValueError, and the
        # internal ExtractionError is reported the same way
        def broken(_src):
            raise exc

        monkeypatch.setattr(exprs, "parse_element", broken)
        assert run_cli(capsys, "nf", "z") == (2, "", f"error: {exc}\n")

    @pytest.mark.parametrize("with_expr", [False, True], ids=["neither", "both"])
    def test_certify_needs_expression_or_check(self, capsys, tmp_path, with_expr):
        # exactly one of an expression and --check FILE; the file is a valid
        # certificate, so ignoring the expression would exit 0
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(run_cli(capsys, "certify", "z*zb")[1])
        argv = ["certify", "z^2*zb^2", "--check", str(cert_file)] if with_expr else ["certify"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")


DEEP = "(" * 250 + "z*zb" + ")" * 250
NESTING_ERROR = (
    f"error: syntax error at position {exprs.NESTING_LIMIT}: expected at most "
    f"{exprs.NESTING_LIMIT} nested parentheses, got '('\n"
)


class TestNesting:
    """Input nested deeper than the parser reads is a usage error, exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [["nf", DEEP], ["mul", "z", DEEP], ["star", DEEP, "z*zb"], ["trace", DEEP], ["certify", DEEP],
         ["localtrace", "--n", "2", DEEP]],
        ids=lambda argv: argv[0],
    )
    def test_deep_expression(self, capsys, argv):
        assert run_cli(capsys, *argv) == (2, "", NESTING_ERROR)

    def test_deep_expression_in_a_fresh_process(self):
        proc = subprocess.run([sys.executable, "-m", "dunklweyl.cli", "nf", DEEP], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", NESTING_ERROR)

    @pytest.mark.parametrize("field", ["target", "scalar", "left"])
    def test_deep_string_in_a_certificate(self, capsys, tmp_path, field):
        data = json.loads(run_cli(capsys, "certify", "z^2*zb^2")[1])
        if field == "left":
            data["witnesses"][0]["left"] = DEEP
        else:
            data[field] = DEEP
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(data))
        assert run_cli(capsys, "certify", "--check", str(cert_file)) == (2, "", NESTING_ERROR)

    def test_deep_certificate_json(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        cert_file.write_text("[" * 100_000)
        want = "error: certificate JSON: nested too deeply\n"
        assert run_cli(capsys, "certify", "--check", str(cert_file)) == (2, "", want)
        with pytest.raises(ValueError, match="^certificate JSON: nested too deeply$"):
            hochschild.Certificate.from_json("[" * 100_000 + "]" * 100_000)

    def test_recorded_requests_nest_far_below_the_limit(self):
        # the refusal changes no output the benchmark digests pin
        digests = json.loads((ROOT / "bench" / "digests.json").read_text())
        depths = set()
        for key in digests:
            for arg in shlex.split(key):
                depth = deepest = 0
                for ch in arg:
                    depth += (ch == "(") - (ch == ")")
                    deepest = max(deepest, depth)
                depths.add(deepest)
        assert max(depths) == 1 < exprs.NESTING_LIMIT


def test_non_ascii_string_in_a_certificate(capsys, tmp_path):
    data = json.loads(run_cli(capsys, "certify", "z^2*zb^2")[1])
    data["witnesses"][0]["left"] = "z^\u00b2"
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(data))
    want = "error: syntax error at position 2: expected an ASCII character, got '\u00b2'\n"
    assert run_cli(capsys, "certify", "--check", str(cert_file)) == (2, "", want)


LIMIT = exprs.NUMERAL_LIMIT


class TestNumeralLimit:
    """A numerator or denominator longer than exprs.NUMERAL_LIMIT digits is a
    parse error at the numeral that names the limit, exit 2."""

    AT, OVER = "9" * LIMIT, "9" * (LIMIT + 1)

    def refusal(self, pos: int) -> str:
        return f"error: syntax error at position {pos}: expected a numeral of at most {LIMIT} digits, got {LIMIT + 1} digits\n"

    def test_at_the_limit(self, capsys):
        assert run_cli(capsys, "nf", self.AT) == (0, self.AT + "\n", "")
        assert run_cli(capsys, "nf", f"1/{self.AT}*z") == (0, f"1/{self.AT}*z\n", "")

    @pytest.mark.parametrize("src, pos", [(OVER, 0), (f"1/{OVER}*z", 2), (f"z - 3/{OVER}*zb", 6)],
                             ids=["numerator", "denominator", "later-term"])
    def test_above_the_limit(self, capsys, src, pos):
        code, out, err = run_cli(capsys, "nf", src)
        assert (code, out, err) == (2, "", self.refusal(pos))
        assert "sys." not in err

    def test_in_a_certificate(self, capsys, tmp_path):
        data = json.loads(run_cli(capsys, "certify", "z^2*zb^2")[1])
        data["witnesses"][0]["coeff"] = self.OVER
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(data))
        assert run_cli(capsys, "certify", "--check", str(cert_file)) == (2, "", self.refusal(0))

    @pytest.mark.parametrize("digits", [LIMIT, LIMIT + 1])
    def test_in_a_field_the_reader_ignores(self, capsys, tmp_path, digits):
        # json reads the number before the reader sees the field
        data = json.loads(run_cli(capsys, "certify", "z^2*zb^2")[1])
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(data)[:-1] + f', "x": {"9" * digits}}}')
        want = (0, "ok\n", "") if digits == LIMIT else (
            2, "", f"error: certificate JSON: a number longer than exprs.NUMERAL_LIMIT ({LIMIT} digits)\n")
        assert run_cli(capsys, "certify", "--check", str(cert_file)) == want

    @pytest.mark.parametrize("digits", [LIMIT, LIMIT + 1])
    @pytest.mark.parametrize("int_max_str_digits", [None, "0"], ids=["default", "unlimited"])
    def test_in_a_field_the_reader_ignores_whatever_the_interpreter_allows(
            self, capsys, tmp_path, digits, int_max_str_digits):
        # the reader refuses past NUMERAL_LIMIT itself, so PYTHONINTMAXSTRDIGITS=0 lets nothing more through
        data = json.loads(run_cli(capsys, "certify", "z^2*zb^2")[1])
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(data)[:-1] + f', "x": {"9" * digits}}}')
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        if int_max_str_digits is not None:
            env["PYTHONINTMAXSTRDIGITS"] = int_max_str_digits
        proc = subprocess.run([sys.executable, "-m", "dunklweyl.cli", "certify", "--check", str(cert_file)],
                              capture_output=True, text=True, env=env, timeout=60)
        if digits == LIMIT:
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")
        else:
            assert (proc.returncode, proc.stdout) == (2, "") and proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_printed_result(self, capsys, fmt):
        # 10^(LIMIT - 1) has LIMIT digits, 10^LIMIT one more: computed, then refused at print
        code, out, err = run_cli(capsys, "nf", f"(10)^{LIMIT - 1}", "--format", fmt)
        assert code == 0 and ("1" + "0" * (LIMIT - 1)) in out and err == ""
        code, _out, err = run_cli(capsys, "nf", f"(10)^{LIMIT}", "--format", fmt)
        assert (code, err) == (2, f"error: the result has a numeral longer than exprs.NUMERAL_LIMIT ({LIMIT} digits)\n")
        assert "sys." not in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_printed_result_whatever_the_interpreter_allows(self, fmt):
        # PYTHONINTMAXSTRDIGITS=0 lifts CPython's own limit on printing an int;
        # the printers still refuse a numeral past NUMERAL_LIMIT, before any output
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS="0")

        def cold(src: str) -> tuple[int, str, str]:
            proc = subprocess.run([sys.executable, "-m", "dunklweyl.cli", "nf", src, "--format", fmt],
                                  capture_output=True, text=True, env=env, timeout=60)
            return proc.returncode, proc.stdout, proc.stderr

        code, out, err = cold(f"(10)^{LIMIT - 1}")
        assert code == 0 and ("1" + "0" * (LIMIT - 1)) in out and err == ""
        refusal = f"error: the result has a numeral longer than exprs.NUMERAL_LIMIT ({LIMIT} digits)\n"
        for src in (f"(10)^{LIMIT}", "(2)^15000"):
            assert cold(src) == (2, "", refusal), src


class TestCurvatureSymbols:
    """A curvature symbol of `index` is an ASCII letter followed by letters or
    digits and no atom of the grammar; '0' means none for every option."""

    @pytest.mark.parametrize("name", ["0", "h1", "A*B", "", "z", "zb", "p1", "i", "1T", "T_1", "T\u00df"])
    @pytest.mark.parametrize("option", ["--rt", "--theta", "--rn"])
    def test_names(self, capsys, option, name):
        code, out, err = run_cli(capsys, "index", "--n", "2", option, name)
        if name == "0":
            assert (code, out, err) == (0, "0\n", "")
        else:
            assert (code, out) == (2, "")
            assert err.startswith(f"error: bad curvature symbol {name!r}: ")

    def test_zero_beside_a_symbol(self, capsys):
        assert run_cli(capsys, "index", "--n", "2", "--rt", "0", "--theta", "T", "--rn", "0") == (0, "(-1)*T\n", "")

    def test_benchmark_names_stay_valid(self, capsys):
        code, out, err = run_cli(capsys, "index", "--n", "3", "--rt", "R1", "--rt", "R2", "--theta", "T", "--rn", "N")
        assert code == 0 and err == ""
        assert {"R1^2", "R2^2", "N*T", "T^2"} <= {term.rpartition(")*")[2] for term in out.strip().split(" + ")}


class TestVerify:
    def test_relations_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "relations")
        assert code == 0 and "28/28 passed" in out

    def test_injected_failure_exits_1(self, capsys, monkeypatch):
        # a case whose computation raises is a failed case, not an abort
        calls = []
        original = suites.trace_defect

        def flaky(m1, m2):
            calls.append((m1.to_text(), m2.to_text()))
            if calls[-1] == ("z*zb", "z^2"):
                raise ArithmeticError("injected")
            return original(m1, m2)

        monkeypatch.setattr(suites, "trace_defect", flaky)
        bad_id = "tracedefect[z*zb;z^2]"
        code, out, _ = run_cli(capsys, "verify", "--suite", "trace", "--degree", "4")
        assert code == 1
        assert [l for l in out.splitlines() if "FAIL" in l] == [
            f"  FAIL {bad_id}: expected (no error) ; got ArithmeticError: injected"
        ]
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "trace", "--degree", "4", "--format", "json"
        )
        assert code == 1
        cases = {c["id"]: c for c in json.loads(out)["cases"]}
        assert cases.pop(bad_id)["actual"] == "ArithmeticError: injected"
        assert len(calls) == 2 * (len(cases) + 1)
        assert cases and all(c["ok"] for c in cases.values())

    def test_hh0_command_and_suite_share_one_replay(self, capsys, monkeypatch):
        # a replay failure injected into hochschild reaches both front ends
        original = hochschild.check_certificate

        def failing(cert):
            return cert.target.to_text() != "z^2*zb^2" and original(cert)

        monkeypatch.setattr(hochschild, "check_certificate", failing)
        code, out, _ = run_cli(capsys, "hh0", "--degree", "4")
        assert code == 1
        fails = [l for l in out.splitlines() if l.startswith("FAIL ")]
        assert len(fails) == 1 and fails[0].startswith("FAIL [z^2*zb^2] = ")
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "hh0", "--degree", "4", "--format", "json"
        )
        assert code == 1
        cases = {c["id"]: c for c in json.loads(out)["cases"]}
        assert cases.pop("hh0[z^2*zb^2]")["actual"] == "replay failed"
        assert cases and all(c["ok"] for c in cases.values())

    def test_json_report_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "series", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "dunkl-report/1"
        assert report["failed"] == 0
        assert {"id", "ok", "expected", "actual"} <= set(report["cases"][0])

    def test_determinism_modulo_wall_time(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "verify", "--suite", "roundtrip", "--seed", "5", "--format", "json"
            )
            assert code == 0
            outs.append(re.sub(r'"wall_ms": [0-9.]+', '"wall_ms": 0', out))
        assert outs[0] == outs[1]

    def test_report_without_cases_is_not_ok(self):
        report = run_suite("trace", RunConfig(degree=-1))
        assert report.cases == [] and not report.ok


class TestCertifyReplay:
    def test_fresh_process_replay(self, tmp_path):
        emit = subprocess.run(
            [sys.executable, "-m", "dunklweyl.cli", "certify", "z^3*zb^3"],
            capture_output=True,
            text=True,
        )
        assert emit.returncode == 0
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(emit.stdout)
        check = subprocess.run(
            [sys.executable, "-m", "dunklweyl.cli", "certify", "--check", str(cert_file)],
            capture_output=True,
            text=True,
        )
        assert check.returncode == 0
        assert check.stdout.strip() == "ok"

    def test_tampered_certificate_fails(self, tmp_path):
        emit = subprocess.run(
            [sys.executable, "-m", "dunklweyl.cli", "certify", "z^2*zb^2"],
            capture_output=True,
            text=True,
        )
        data = json.loads(emit.stdout)
        data["scalar"] = data["scalar"] + " + h1"
        cert_file = tmp_path / "bad.json"
        cert_file.write_text(json.dumps(data))
        check = subprocess.run(
            [sys.executable, "-m", "dunklweyl.cli", "certify", "--check", str(cert_file)],
            capture_output=True,
            text=True,
        )
        assert check.returncode == 1
        assert check.stdout.strip() == "FAIL"


    @pytest.mark.parametrize(
        "content",
        [
            None,  # no such file
            "[]",
            '{"target": "z*zb", "witnesses": []}',
            '{"target": "z*zb", "scalar": "0", '
            '"witnesses": [{"coeff": "1", "left": 5, "right": "z*zb"}]}',
            '{"target": "z*zb", "scalar": "0", "witnesses": 3}',
            "not json",
            b'{"target": "\xff"}',
        ],
        ids=["missing-file", "top-level-list", "missing-scalar", "left-not-text", "witnesses-not-list",
             "not-json", "not-utf8"],
    )
    def test_malformed_certificate_is_usage_error(self, capsys, tmp_path, content):
        cert_file = tmp_path / "cert.json"
        if isinstance(content, bytes):
            cert_file.write_bytes(content)
        elif content is not None:
            cert_file.write_text(content)
        code, out, err = run_cli(capsys, "certify", "--check", str(cert_file))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        if content is not None:  # the missing file is an OS error; the rest name the certificate
            assert err.startswith("error: certificate JSON: ")
        # a well-formed certificate with a wrong scalar is a failed check
        good = json.loads(run_cli(capsys, "certify", "z^2*zb^2")[1])
        good["scalar"] += " + h1"
        cert_file.write_text(json.dumps(good))
        code, out, _ = run_cli(capsys, "certify", "--check", str(cert_file))
        assert code == 1 and out.strip() == "FAIL"


def test_benchmark_tracer_wraps_every_entry_point():
    """bench/tracer.py finds every function and method it times by name.

    The product of two scalars must count as scalar products, a parse that
    folds constants must reach the traced Gaussian rational product, which the
    benchmark's layer metrics count, and a CLI product must count scalar
    products, algebra products with their output terms, a parse and the CLI
    call itself.
    """
    script = (
        "import sys; sys.path[:0] = sys.argv[1:]; "
        "from tracer import Tracer, install; t = Tracer(); install(t); print(t.unwrapped); "
        "from dunklweyl.scalars import ScalarPoly; "
        "a = ScalarPoly.from_rational(2, 1) + ScalarPoly.h1(); "
        "b = ScalarPoly.from_rational(0, 3) + ScalarPoly.h2(); "
        "assert a * b == b * a; "
        "print(t.folded['scalars.ScalarPoly.mul'][0]); "
        "from dunklweyl.exprs import parse_element; parse_element('-1/2*i*h1^-1*z^2'); "
        "print(t.folded['scalars.GaussianRational.mul'][0]); "
        # a CLI product must reach the scalar layer and report its terms
        "import dunklweyl.cli; "
        "assert dunklweyl.cli.main(['nf', 'zb^3*g*z^3', '--format', 'json']) == 0; "
        "spans = [r[0] for r in t.spans]; "
        "print(t.folded['scalars.ScalarPoly.mul'][0], "
        "*(spans.count(n) for n in ('algebra.mul', 'exprs.parse', 'cli.main')), "
        "t.counts['algebra.mul.terms_out'], t.counts['algebra.mul.scalar_terms_out'])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    unwrapped, scalar_mul_calls, gr_mul_calls = lines[:3]
    assert unwrapped == "[]"
    assert int(scalar_mul_calls) == 2 and int(gr_mul_calls) > 0
    # the nf JSON sits between the counts of the scalar check and of the CLI run
    assert json.loads("\n".join(lines[3:-1]))
    counts = [int(n) for n in lines[-1].split()]
    assert len(counts) == 6 and all(n > 0 for n in counts), counts


def _must_call(workload: str) -> tuple[str, ...]:
    """The layers bench/run.py requires a workload to reach (its MUST_CALL)."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "MUST_CALL" for t in node.targets):
            return ast.literal_eval(node.value)[workload]
    raise AssertionError("bench/run.py declares no MUST_CALL")


def _traced_calls(statement: str) -> dict[str, int]:
    """Calls per span name when statement runs alone under a fresh bench tracer."""
    script = "\n".join([
        "import json, sys",
        "sys.path[:0] = sys.argv[1:]",
        "from tracer import Tracer, install, layer_totals",
        "tracer = Tracer()",
        "install(tracer)",
        statement,
        "totals = layer_totals([{'spans': tracer.spans, 'folded': tracer.folded}])",
        "print(json.dumps({name: cell['calls'] for name, cell in totals.items()}))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "workload, statement",
    [
        ("deep_nf", "import dunklweyl.cli; assert dunklweyl.cli.main(['nf', 'zb^20*g*z^18']) == 0"),
        ("verify_all", "import child; child.battery(1, True, tracer)"),
    ],
    ids=["deep_nf", "verify_all"],
)
def test_benchmark_self_check_layers_reached(workload, statement):
    """The traced benchmark's self-check passes on one request of the workload
    alone: every layer in its MUST_CALL shows calls, with no other work before
    it that could supply them."""
    names = _must_call(workload)
    assert names
    calls = _traced_calls(statement)
    assert {name: calls.get(name, 0) for name in names if not calls.get(name)} == {}


# One small call per subcommand, a usage error, help, and two argvs that only
# argparse reads: an abbreviated option and a negative-number positional.
COLD_ARGVS = [
    ["nf", "zb^2*g*z^3"],
    ["mul", "z^2", "zb", "--format", "json"],
    ["comm", "z^2", "zb"],
    ["star", "z*zb", "z^2*zb^2", "--h2-zero"],
    ["trace", "z^2*zb^2", "--format", "json"],
    ["certify", "z^2*zb^2"],
    ["hh0", "--degree", "4"],
    ["chphi", "--order", "3"],
    ["index", "--n", "2", "--rt", "0", "--theta", "T"],
    ["localtrace", "--n", "2", "p1*q1*z*zb"],
    ["verify", "--suite", "relations", "--format", "json"],
    ["verify", "--suite", "nope"],
    ["-h"],
    ["nf", "--form", "json", "z"],
    ["nf", "-1"],
]


def _without_wall(text: str) -> str:
    return re.sub(r'"wall_ms": [0-9.]+|wall [0-9.]+ ms', "wall", text)


@pytest.mark.parametrize("argv", COLD_ARGVS, ids=[" ".join(a[:3]) for a in COLD_ARGVS])
def test_cold_process_matches_in_process(capsys, monkeypatch, argv):
    """A fresh interpreter imports each engine module where its subcommand
    needs it; an import cycle or a missing branch import shows up here, not in
    the in-process tests, which import every module at collection."""
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at one width on both sides
    proc = subprocess.run(
        [sys.executable, "-m", "dunklweyl.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, out, err = run_cli(capsys, *argv)
    assert proc.returncode == code
    assert _without_wall(proc.stdout) == _without_wall(out)
    assert proc.stderr == err


def test_cold_imports_follow_the_subcommand():
    script = (
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'dunklweyl')\n"
        "import dunklweyl\n"
        "seen = [loaded()]\n"
        "from dunklweyl import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['nf', 'zb^3*g*z^3', '--format', 'json']) == 0\n"
        "    seen.append(loaded())\n"
        "    assert cli.main(['verify', '--suite', 'relations']) == 0\n"
        "    seen.append(loaded())\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    package, nf, verify = json.loads(proc.stdout)
    assert package == ["dunklweyl"]
    front = {"dunklweyl", "dunklweyl.cli", "dunklweyl.exprs", "dunklweyl.algebra", "dunklweyl.scalars"}
    assert set(nf) == front
    assert "dunklweyl.suites" in verify and front < set(verify)


def test_cold_calls_load_no_unused_stdlib_modules(tmp_path):
    """A fresh interpreter running well-formed calls of every subcommand, one
    after another, loads json only once JSON is read, and never argparse (with
    its gettext and locale), nor the rational, dataclass or introspection
    modules: the engine is integers from parse to print."""
    script = (
        "import contextlib, io, sys\n"
        "from dunklweyl import cli\n"
        "def run(*argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.main(list(argv)) == 0, argv\n"
        "    return out.getvalue()\n"
        "for fmt in ('text', 'json'):\n"
        "    run('nf', 'zb^3*g*z^3', '--format', fmt, '--h2-zero')\n"
        "    run('mul', 'z^2', 'zb', '--format', fmt)\n"
        "    run('comm', 'z^2', 'zb', '--format', fmt)\n"
        "    run('star', 'z^2', 'zb^2', '--format', fmt)\n"
        "    run('trace', 'z*zb', '--format', fmt)\n"
        "    run('hh0', '--degree', '2', '--format', fmt)\n"
        "    run('chphi', '--format', fmt)\n"
        "    run('index', '--n', '2', '--rt', 'R', '--theta', 'T', '--format', fmt)\n"
        "    run('localtrace', '--n', '1', 'z*zb', '--format', fmt)\n"
        "with open(sys.argv[1], 'w') as fh:\n"
        "    fh.write(run('certify', 'z^2*zb^2'))\n"
        "assert 'json' not in sys.modules, 'json loaded before any JSON was read'\n"
        "run('certify', '--check', sys.argv[1], '--format', 'json')\n"
        "run('verify', '--suite', 'relations', '--format', 'json')\n"
        "unused = ('argparse', 'gettext', 'locale', 'fractions', 'decimal', 'dataclasses', 'inspect')\n"
        "print(' '.join(m for m in unused if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "cert.json")], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_closed_stdout_exits_141_without_a_traceback():
    """A reader that stops early (`dunkl ... | head -1`) gets SIGPIPE's exit
    status and no traceback; exit 1 stays reserved for a failed check.  The
    output is far larger than a pipe buffer, so the write meets the closed end."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "dunklweyl.cli", "nf", "zb^60*z^60", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(1) == b"["
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_cli_is_imported_once():
    """Under `python -m dunklweyl.cli` the CLI runs as __main__; the suites
    read SUITE_NAMES from the package, so dunklweyl.cli is never imported
    a second time."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "dunklweyl.cli", "verify", "--suite", "relations"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {"dunklweyl", "dunklweyl.suites"} <= imported
    assert "dunklweyl.cli" not in imported


def test_suite_choices_follow_the_runner_table():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (suite,) = [a for a in commands.choices["verify"]._actions if a.dest == "suite"]
    assert tuple(suite.choices) == (*suites._SUITES, "all")


# -- the argv reader against argparse ----------------------------------------

_PARSER = cli._build_parser()


def _argparse_vars(argv: list[str]) -> dict | None:
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_PARSER.parse_args(argv))
        except SystemExit:
            return None


def _read_quietly(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = cli._read_argv(argv)
    assert out.getvalue() == err.getvalue() == ""
    return got


# Every argv shape the benchmark's deep_nf and cli_mix requests use (copied,
# not imported from bench/): all of them are read without argparse.
BENCHMARK_ARGVS = [
    ["nf", "zb^36*g*z^16", "--format", "json"],
    ["nf", "zb^3*z^5", "--format", "text"],
    ["nf", "zb^3*g*z^5", "--format", "json", "--h2-zero"],
    ["nf", "(x*y)^2 - g*1/2", "--format", "text"],
    ["mul", "z^2*zb", "zb^4", "--format", "json", "--h2-zero"],
    ["comm", "1", "z^3", "--format", "text"],
    ["star", "z^2*zb^2", "zb^2", "--format", "json"],
    ["trace", "z^4*zb^4", "--format", "text"],
    ["certify", "z^3*zb"],
    ["certify", "--check", "/tmp/work/cert-0.json", "--format", "json"],
    ["hh0", "--degree", "4", "--format", "text"],
    ["chphi", "--order", "5", "--format", "json"],
    ["index", "--n", "1", "--format", "text"],
    ["index", "--n", "3", "--rt", "R1", "--rt", "0", "--theta", "T", "--rn", "N", "--format", "json"],
    ["localtrace", "--n", "2", "p1^2*q1^0*z^1*zb^3", "--format", "text"],
    ["localtrace", "--n", "1", "z^0*zb^2", "--format", "json"],
    ["verify", "--suite", "degeneration", "--degree", "4", "--order", "3", "--format", "json"],
    ["nf", "z*"],
    ["mul", "z", "zb^"],
    ["certify", "z*zb + z^2"],
    ["localtrace", "--n", "1", "p2*z"],
]


@pytest.mark.parametrize("argv", BENCHMARK_ARGVS, ids=[" ".join(a[:3]) for a in BENCHMARK_ARGVS])
def test_benchmark_argvs_skip_argparse(argv):
    got = _read_quietly(argv)
    assert got is not None
    assert vars(got) == _argparse_vars(argv)


# What the reader leaves to argparse, though argparse accepts some of it.
FALLBACK_ARGVS = [
    [],
    ["frobnicate"],
    ["-h"],
    ["nf", "z", "--help"],
    ["nf", "--form", "json", "z"],
    ["verify", "--s", "trace"],
    ["nf", "--format=json", "z"],
    ["nf", "--", "z"],
    ["nf", "-1"],
    ["nf", "z", "--format"],
    ["verify", "--seed", "-3"],
    ["nf", "z", "--format", "xml"],
    ["hh0", "--degree", "two"],
    ["hh0", "--degree", "-2"],
    ["index", "--n", "0"],
    ["index", "--rt", "R"],
    ["localtrace", "z"],
    ["mul", "z"],
    ["nf", "z", "zb"],
]


@pytest.mark.parametrize("argv", FALLBACK_ARGVS, ids=[" ".join(a) or "empty" for a in FALLBACK_ARGVS])
def test_reader_leaves_the_rest_to_argparse(argv):
    assert _read_quietly(argv) is None


_VALUES = ["text", "json", "xml", "all", "relations", "nope", "0", "1", "2", "9", "-1", "-3", "+2", " 4",
           "1_0", "", "z", "zb^2*z", "z - zb", "-z + zb", "R1", "T", "cert.json"]
_NOISE = ["--form", "--h", "--s", "--d", "--format=json", "--n=2", "-h", "--help", "--", "-", "-n", "--bogus"]


def _good_value(kind: str, arg):
    if kind == "choice":
        return st.sampled_from(arg)
    if kind == "int":
        return st.integers(arg or 0, 30).map(str)
    return st.sampled_from(["z", "zb^2*z", "z - zb", "R1", "T", "0", "cert.json", ""])


@st.composite
def _argvs(draw) -> list[str]:
    """A well-formed call, its options in any order, then up to three edits:
    a word inserted from the noise or the values, a word dropped or replaced."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    groups = []
    for name, kind, arg, _default, extra in cli._COMMANDS[command][1]:
        if kind == "positional":
            if "nargs" not in extra or draw(st.booleans()):
                groups.append([draw(_good_value("str", None))])
        elif extra.get("required") or draw(st.booleans()):
            repeats = draw(st.integers(1, 2)) if kind == "append" else 1
            for _ in range(repeats):
                groups.append([name] if kind == "flag" else [name, draw(_good_value(kind, arg))])
    groups = draw(st.permutations(groups))
    argv = [command, *(w for group in groups for w in group)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "drop", "replace"]))
        word = draw(st.sampled_from(_NOISE + _VALUES + ["--rt", "--seed", "--h2-zero", "--check", "bogus"]))
        if edit == "insert":
            argv.insert(at, word)
        elif at < len(argv):
            argv[at:at + 1] = [] if edit == "drop" else [word]
    return argv


@settings(max_examples=1000, deadline=None)
@given(_argvs())
def test_reader_agrees_with_argparse(argv):
    """The reader returns argparse's namespace or None, and None wherever
    argparse exits; it never prints."""
    want = _argparse_vars(argv)
    got = _read_quietly(argv)
    if want is None:
        assert got is None
    elif got is not None:
        assert vars(got) == want
