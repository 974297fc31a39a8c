#!/usr/bin/env python3
"""xlint: run the repro static-analysis suite over a source tree.

Usage:
    PYTHONPATH=src python tools/xlint.py src/repro
    PYTHONPATH=src python tools/xlint.py src/repro --format=json -o out.json
    PYTHONPATH=src python tools/xlint.py src/repro --checkers boundary,locks
    PYTHONPATH=src python tools/xlint.py src/repro --write-baseline

Exit status is 0 when the tree is clean (modulo the baseline) and 1 when
any new finding exists, so CI can gate on it directly.  The JSON format
is the stable machine contract (schema pinned in tests/public_surface.json).
"""

import argparse
import sys
import time

from repro.analysis import (
    all_checkers,
    load_baseline,
    run_checks,
    save_baseline,
)

DEFAULT_BASELINE = "tools/xlint_baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "target", nargs="?", default="src/repro",
        help="package directory to scan (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="write the report to a file instead of stdout",
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE,
        help=f"baseline file of grandfathered findings "
             f"(default: {DEFAULT_BASELINE}; missing file = empty)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline and report every finding",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline to grandfather the current findings",
    )
    parser.add_argument(
        "--checkers", default=None,
        help="comma-separated checker ids to run (default: all)",
    )
    parser.add_argument(
        "--list-checkers", action="store_true",
        help="list registered checkers and their rules, then exit",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=None,
        help="fail (exit 2) if the analysis wall-clock exceeds this "
             "budget (CI asserts the whole-tree dataflow pass stays "
             "fast enough to gate every push)",
    )
    return parser


def list_checkers() -> str:
    lines = []
    for checker in all_checkers():
        lines.append(f"{checker.id}: {checker.description}")
        for code, summary in sorted(checker.rules.items()):
            lines.append(f"  {code}  {summary}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_checkers:
        sys.stdout.write(list_checkers())
        return 0

    checkers = None
    if args.checkers:
        checkers = [c.strip() for c in args.checkers.split(",") if c.strip()]

    baseline = None
    if not args.no_baseline and not args.write_baseline:
        baseline = load_baseline(args.baseline)

    started = time.monotonic()
    result = run_checks(args.target, checkers=checkers, baseline=baseline)
    elapsed = time.monotonic() - started

    if args.write_baseline:
        save_baseline(args.baseline, result.findings)
        sys.stdout.write(
            f"xlint: baselined {len(result.findings)} finding(s) "
            f"into {args.baseline}\n"
        )
        return 0

    report = result.to_json() if args.format == "json" else result.to_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    else:
        sys.stdout.write(report)
    if args.max_seconds is not None and elapsed > args.max_seconds:
        sys.stderr.write(
            f"xlint: analysis took {elapsed:.1f}s, over the "
            f"--max-seconds budget of {args.max_seconds:.1f}s\n"
        )
        return 2
    return result.exit_code()


if __name__ == "__main__":
    sys.exit(main())
