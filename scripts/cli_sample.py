#!/usr/bin/env python3
"""Print a fingerprint of the `dunkl` CLI: one line per call, to diff two checkouts.

    python scripts/cli_sample.py [SRC]          # SRC: the package's source dir (default: ./src)
    diff <(python scripts/cli_sample.py) <(python scripts/cli_sample.py ../other/src)

Each call runs in a fresh interpreter with SRC first on PYTHONPATH.  A line is
the argv, the exit code and the sha256 of stdout and of stderr, with the
numbers of verify's `wall` fields masked, so equal lines mean equal bytes.
The sample covers every subcommand in text and JSON, usage errors, the
numeral limits, and good, tampered and malformed certificates, which it
writes into a temporary directory (file names only appear in the argv).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
WALL = re.compile(rb'("wall_ms": |\n  wall )[0-9.e+-]+')
BIG = "9" * 4301  # one digit past exprs.NUMERAL_LIMIT

CALLS = [
    ["nf", "z*zb"], ["nf", "y*x - x*y"], ["nf", "(z+zb+g)^3"], ["nf", "zb^5*g*z^4", "--h2-zero"],
    ["nf", "(1+i)^40*(2/3*h1)^5 - i^7*h2^2"], ["nf", "(10)^4299"], ["nf", "(10)^4300"], ["nf", "(2)^15000"],
    ["nf", "zb^41*z^39*g"], ["nf", "h1^-3*h2 - h1^-3*h2"], ["nf", "(1/2+1/3*i)*h1^-2 - 1/6*i"],
    ["mul", "g", "z"], ["mul", "zb^3", "z^3*g"], ["mul", "zb^7*g + z^2", "z^9*g*zb"],
    ["mul", "h1^-1*(1+i)", "h1*(1-i)"],
    ["comm", "z^2", "zb"], ["comm", "x", "y", "--h2-zero"], ["comm", "h1", "z"],
    ["star", "z*zb", "z*zb"], ["star", "z^2", "zb^2", "--h2-zero"], ["star", "z^3*zb + h2*z*zb", "z*zb^3 + z^2"],
    ["trace", "z*zb"], ["trace", "z^3*zb^3 + 2*h2*z*zb - 1"], ["trace", "z^40*zb^40", "--h2-zero"],
    ["trace", "h1^-2*z*zb", "--h2-zero"],
    ["trace", " + ".join(f"z^{k}*zb^{k}" for k in range(31))],
    ["certify", "z^2*zb^2"], ["certify", "z^5*zb^3"], ["certify", "z^6*zb^6"],
    ["hh0", "--degree", "6"], ["hh0", "--degree", "12"],
    ["chphi"], ["chphi", "--order", "40"], ["chphi", "--order", "12", "--h2-zero"],
    ["index", "--n", "1"], ["index", "--n", "2", "--rt", "0", "--theta", "T"],
    ["index", "--n", "3", "--rt", "A", "--rt", "B", "--theta", "T", "--rn", "N"],
    ["index", "--n", "4", "--rt", "A", "--rn", "N", "--h2-zero"],
    ["localtrace", "--n", "2", "p1*q1*z*zb"], ["localtrace", "--n", "2", "p1^2*q1*z^3*zb^3 + g*z^2"],
    ["localtrace", "--n", "3", "p1*q2*z^4*zb^4", "--h2-zero"],
    ["localtrace", "--n", "3", "(p1+q1+z*zb+p2*q2)^4"], ["localtrace", "--n", "2", "(p1*z+q1*zb)^2*(q1+g*z*zb)"],
    *(["verify", "--suite", suite] for suite in
      ("relations", "trace", "hh0", "degeneration", "euler", "chphi", "series", "roundtrip", "all")),
    ["verify", "--suite", "trace", "--degree", "10", "--seed", "3"],
]
FORMATS = [[], ["--format", "json"]]

ERRORS = [
    [], ["--help"], ["nf", "--help"], ["frob"], ["nf"], ["nf", "z", "--bogus"], ["nf", "z*"], ["nf", "w*z"],
    ["nf", "z^-2"], ["nf", "z**zb"], ["nf", "(" * 101 + "z" + ")" * 101], ["nf", BIG], ["nf", "z²"],
    ["mul", "z", "zb^"], ["star", "z", "zb"], ["trace", "z + zb"], ["trace", "(z*zb"],
    ["certify"], ["certify", "z*zb + z^2"], ["certify", "z*zb", "--check", "good.json"],
    ["hh0", "--degree", "26"], ["hh0", "--degree", "-1"], ["chphi", "--order", "-1"],
    ["index", "--n", "0"], ["index", "--n", "2", "--rt", "h1"], ["index", "--n", "2", "--rt", "A", "--rt", "B"],
    ["localtrace", "--n", "1", "p2*z"], ["localtrace", "--n", "2", "p1*z^3"],
    ["verify", "--suite", "nope"], ["verify", "--suite", "hh0", "--degree", "26"],
    ["verify", "--suite", "chphi", "--order", "9"], ["verify", "--jobs", "2"],
]


def certificates(work: Path, run) -> list[str]:
    """Write good, tampered and malformed certificates into work; their file names."""
    good = json.loads(run(["certify", "z^3*zb^3"])[1])
    tampered = dict(good, scalar=good["scalar"] + " + h1")
    files = {
        "good.json": json.dumps(good),
        "tampered.json": json.dumps(tampered),
        "not-json.json": "not json",
        "list.json": "[]",
        "no-scalar.json": json.dumps({"target": "z*zb", "witnesses": []}),
        "left-not-text.json": json.dumps(dict(good, witnesses=[{"coeff": "1", "left": 5, "right": "z*zb"}])),
        "deep.json": "[" * 100000 + "]" * 100000,
        "big-field.json": json.dumps(good)[:-1] + f', "x": {BIG}}}',
        "big-coeff.json": json.dumps(dict(good, scalar=BIG)),
    }
    for name, text in files.items():
        (work / name).write_text(text)
    (work / "not-utf8.json").write_bytes(b'{"target": "\xff"}')
    return [*files, "not-utf8.json", "missing.json"]


def fingerprints(work: Path, run) -> Iterator[str]:
    """The sample's lines, each call made by run(args) -> (exit code, stdout, stderr) in work."""
    checks = [["certify", "--check", name, *fmt] for name in certificates(work, run) for fmt in FORMATS]
    for args in [call + fmt for call in CALLS for fmt in FORMATS] + ERRORS + checks:
        code, out, err = run(args)
        digests = (hashlib.sha256(WALL.sub(rb"\1*", data)).hexdigest() for data in (out, err))
        text = shlex.join(args)
        yield " ".join((text if len(text) <= 100 else f"{text[:60]}... ({len(text)} chars)", str(code), *digests))


def main(argv: list[str]) -> int:
    src = Path(argv[0]).resolve() if argv else ROOT / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def run(args: list[str]) -> tuple[int, bytes, bytes]:
            done = subprocess.run([sys.executable, "-m", "dunklweyl.cli", *args], cwd=work, env=env,
                                  capture_output=True)
            return done.returncode, done.stdout, done.stderr

        for line in fingerprints(work, run):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
