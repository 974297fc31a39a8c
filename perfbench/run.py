"""X-Search repository benchmark: one workload, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-page20 --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer ledger in a separate traced phase.
Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.  See README.md
for the metrics, workloads and how they relate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: String hashing seed the benchmark always runs under.  BM25 sums term
#: contributions in set order, so result order (and the output check's
#: digest) depends on it; pinning it, as pyperf does, also keeps
#: hash-order effects out of the timings.
HASH_SEED = "0"


def pin_hash_seed() -> None:
    """Re-execute this script under ``PYTHONHASHSEED=HASH_SEED`` unless
    it already runs under it (the process is replaced, not forked)."""
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED:
        return
    environment = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    script = str(Path(sys.argv[0]).resolve())
    os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]],
              environment)


def add_source_path() -> None:
    """Make ``repro`` importable from the checkout's ``src/``."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"perfbench: no repro package under {source}; "
                         f"run from a full checkout of the repository")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of the run, split across phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=3,
                        help="timed set-ups per run (setup_s is the median)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_hash_seed()
    add_source_path()
    # The benchmark must build everything through the current API: any
    # deprecated spelling is an error, not a warning.
    warnings.simplefilter("error", DeprecationWarning)

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r} "
                         f"(choose from {', '.join(sorted(WORKLOADS))})")
    if args.setups < 1:
        raise SystemExit("perfbench: --setups must be at least 1")
    workload = WORKLOADS[args.workload]
    run = harness.run_traced if args.trace else harness.run_untraced
    result = run(workload, args.seed, args.seconds, args.setups)

    print(f"workload {workload.name} seed {args.seed} "
          f"trace {args.trace}: {workload.why}")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:14.4f} {metric['unit']}")
    for name, value in result["diagnostics"].items():
        print(f"  ({name:26s} {value:14.4f})")
    print(f"  attempted {result['attempted']} failed {result['failed']}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
