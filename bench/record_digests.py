#!/usr/bin/env python3
"""Merge the output digests of benchmark results files into bench/digests.json.

    python3 bench/record_digests.py bench/results/*.json

Run it only on results of the commit whose outputs are the reference.  Runs
that were not correct, or used reduced inputs, are skipped.  A request that
is already recorded with a different digest is an error, and then nothing is
written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def main(paths: list[str]) -> int:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    conflicts = []
    for path in paths:
        result = json.loads(Path(path).read_text())
        if not result["correct"] or result["reduced"]:
            print(f"skipped {path}", file=sys.stderr)
            continue
        for key, digest in result["digests"].items():
            if table.setdefault(key, digest) != digest:
                conflicts.append(f"{key}: recorded {table[key]}, {path} has {digest}")
    if conflicts:
        print("\n".join(conflicts), file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"{len(table)} digests in {DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
