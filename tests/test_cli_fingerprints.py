"""The CLI's bytes against fingerprints recorded once, in tier-1.

scripts/cli_sample.py prints one line per call of its sample (every
subcommand in text and JSON, usage errors, the numeral limits, good, tampered
and malformed certificates): the argv, the exit code and the sha256 of stdout
and of stderr.  This test runs the script's own sample in process through
cli.main, so the argv list is not copied, and compares each line with
tests/data/cli_fingerprints.txt, recorded from the same sample.  A change to
any printed byte of the sample fails here; an intended one re-records the file
with the script (`python scripts/cli_sample.py > tests/data/cli_fingerprints.txt`).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from dunklweyl.cli import main

ROOT = Path(__file__).resolve().parents[1]
RECORDED = ROOT / "tests" / "data" / "cli_fingerprints.txt"


def _load_sample():
    """Import scripts/cli_sample.py under a private module name."""
    spec = importlib.util.spec_from_file_location("_cli_sample", ROOT / "scripts" / "cli_sample.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_bytes_match_recorded_fingerprints(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # certificate files are named relative to the working directory
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the width of a terminal, 80 without one

    def run(args: list[str]) -> tuple[int, bytes, bytes]:
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out.encode(), captured.err.encode()

    got = list(_load_sample().fingerprints(tmp_path, run))
    assert got == RECORDED.read_text().splitlines()
