"""One benchmark operation in a fresh process.

    child.py battery --seed S [--reduced] [--spans FILE]
        Run the eight verification suites through the public run_suite and
        print one JSON summary per suite: case counts and a digest of the
        report with its timing field removed.
    child.py cli --spans FILE --op N -- ARGV...
        Call dunklweyl.cli.main(ARGV) with the tracer installed, as the
        `dunkl` console script would without it.

With --spans the tracer is installed and its spans are written to FILE when
the process ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

# The acceptance parameters of the battery, as in scripts/run_verify.py.
ACCEPTANCE = {
    "relations": {"degree": 8},
    "trace": {"degree": 12},
    "hh0": {"degree": 12},
    "degeneration": {"degree": 8},
    "euler": {"degree": 10},
    "chphi": {"order": 6},
    "series": {"order": 8},
    "roundtrip": {"degree": 8},
}
# Small parameters for the self-test.  The size of `series` and `roundtrip`
# does not depend on them; the first stays, the second (most of the battery's
# time) is left out.
REDUCED = {
    "relations": {"degree": 4},
    "trace": {"degree": 4},
    "hh0": {"degree": 4},
    "degeneration": {"degree": 4},
    "euler": {"degree": 4},
    "chphi": {"order": 3},
    "series": {"order": 8},
}


def report_digest(report_dict: dict) -> str:
    """Digest of a report's deterministic fields (everything but wall_ms)."""
    body = {k: v for k, v in report_dict.items() if k != "wall_ms"}
    text = json.dumps(body, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def battery(seed: int, reduced: bool, tracer) -> dict:
    from dunklweyl.suites import RunConfig, run_suite

    summary = {}
    for op_id, (name, params) in enumerate((REDUCED if reduced else ACCEPTANCE).items()):
        if tracer is not None:
            tracer.op_id = op_id
        report = run_suite(name, RunConfig(seed=seed, **params))
        summary[name] = {
            "cases": len(report.cases),
            "failed": report.failed,
            "ok": report.ok,
            "digest": report_digest(report.to_json_dict()),
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("battery", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reduced", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--op", type=int, default=0)
    own, cli_argv = sys.argv[1:], []
    if "--" in own:
        cut = own.index("--")
        own, cli_argv = own[:cut], own[cut + 1:]
    args = parser.parse_args(own)

    tracer = None
    if args.spans:
        from tracer import Tracer, install

        tracer = Tracer(op_id=args.op)
        install(tracer)
    try:
        if args.mode == "battery":
            print(json.dumps(battery(args.seed, args.reduced, tracer), sort_keys=True))
            return 0
        import dunklweyl.cli

        return dunklweyl.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
