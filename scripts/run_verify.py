#!/usr/bin/env python3
"""Run the full verification battery at acceptance-grade parameters.

This is the heavyweight counterpart of `dunkl verify --suite all`: each suite
runs at its parameters in `suites.ACCEPTANCE` (the trace and certificate suites
at degree 12, the rotation-weight suite at degree 10, the degeneration suite at
degree 8), printing one summary line per suite.  Exit status 0 only if
everything passes.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dunklweyl.suites import ACCEPTANCE, run_suite


def main() -> int:
    failures = 0
    for name, cfg in ACCEPTANCE.items():
        report = run_suite(name, cfg)
        status = "PASS" if report.ok else "FAIL"
        print(
            f"{status} {name:12s} {report.passed}/{len(report.cases)} cases "
            f"({report.wall_ms:.0f} ms)"
        )
        if not report.ok:
            failures += 1
            for case in report.cases:
                if not case.ok:
                    print(f"     {case.id}: expected {case.expected} ; got {case.actual}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
