#!/usr/bin/env python3
"""simexplore: sweep the deterministic-simulation seed space.

Usage:
    PYTHONPATH=src python tools/simexplore.py --profile pr
    PYTHONPATH=src python tools/simexplore.py --seeds 200 --interleavings 2
    PYTHONPATH=src python tools/simexplore.py --mutate history-unlocked
    PYTHONPATH=src python tools/simexplore.py --profile nightly \
        --artifact sim-failures.json

Each (seed, interleaving) pair runs a whole deployment — replica
cluster, chaos schedule, client traffic — through a fresh randomized
interleaving and checks every invariant oracle.  Failures are shrunk
to a minimal reproducing world and written to the artifact file; the
printed spec + schedule replays the identical run (see
docs/TESTING.md).  Exit status 1 on any failure, so CI gates on it.

``--mutate`` flips the run into the sanity gate: the named planted bug
MUST be caught (exit 1 if every run stays green), proving the oracles
are actually looking.

A world that runs past ``WORLD_TIME_LIMIT`` seconds (shrink candidates
included) is a failure too: its spec and every thread's stack are
printed and the process exits 1 at once, so a deadlocked world cannot
stall a sweep silently.  Output is line-buffered even when redirected.
"""

from __future__ import annotations

import argparse
import dataclasses
import faulthandler
import json
import os
import sys
import threading

#: Seed budgets: `pr` keeps the smoke under a minute; `nightly` digs.
PROFILES = {
    "pr": {"seeds": 120, "interleavings": 2},
    "nightly": {"seeds": 1200, "interleavings": 4},
}

#: Seconds one world may run before the sweep reports it hung; a healthy
#: world finishes in seconds at most.
WORLD_TIME_LIMIT = 120.0


def _report_hung(spec) -> None:
    print(f"FAIL seed={spec.seed} interleaving={spec.interleaving} "
          f"chaos={list(spec.chaos)} hung: still running after "
          f"{WORLD_TIME_LIMIT:g} s")
    sys.stdout.flush()
    faulthandler.dump_traceback(file=sys.stdout, all_threads=True)
    sys.stdout.flush()
    os._exit(1)


def watched(run_sim):
    """``run_sim`` under a per-world watchdog (see the module doc)."""
    def run(spec):
        timer = threading.Timer(WORLD_TIME_LIMIT, _report_hung, (spec,))
        timer.daemon = True
        timer.start()
        try:
            return run_sim(spec)
        finally:
            timer.cancel()
    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simexplore", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default=None,
        help="named (seeds, interleavings) budget; explicit --seeds/"
             "--interleavings override its fields",
    )
    parser.add_argument(
        "--seeds", type=int, default=None,
        help="number of seeds to sweep (default 40, or the profile's)",
    )
    parser.add_argument(
        "--first-seed", type=int, default=0,
        help="first seed of the sweep (default 0)",
    )
    parser.add_argument(
        "--interleavings", type=int, default=None,
        help="interleavings per seed (default 1, or the profile's)",
    )
    parser.add_argument(
        "--replicas", type=int, default=2,
        help="replicas per world (default 2)",
    )
    parser.add_argument(
        "--clients", type=int, default=2,
        help="client tasks per world (default 2)",
    )
    parser.add_argument(
        "--ops", type=int, default=3,
        help="operations per client (default 3)",
    )
    parser.add_argument(
        "--mutate", default=None, metavar="NAME",
        help="plant a known bug (see repro.sim.MUTATIONS) and require "
             "the sweep to catch it — the sanity gate",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debugging failures down to minimal worlds",
    )
    parser.add_argument(
        "--stop-after", type=int, default=None,
        help="stop the sweep after this many failures (default: all)",
    )
    parser.add_argument(
        "--artifact", default=None, metavar="FILE",
        help="write failing specs/schedules as JSON (the CI artifact)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    seeds = args.seeds
    interleavings = args.interleavings
    if args.profile is not None:
        profile = PROFILES[args.profile]
        seeds = seeds if seeds is not None else profile["seeds"]
        interleavings = (interleavings if interleavings is not None
                         else profile["interleavings"])
    seeds = 40 if seeds is None else seeds
    interleavings = 1 if interleavings is None else interleavings

    sys.stdout.reconfigure(line_buffering=True)

    from repro.sim import MUTATIONS, WorldSpec
    import repro.sim.explore as explore_module
    from repro.sim.explore import explore

    # Every world the sweep and the shrinker run goes through this name.
    explore_module.run_sim = watched(explore_module.run_sim)

    if args.mutate is not None and args.mutate not in MUTATIONS:
        print(f"unknown mutation {args.mutate!r}; "
              f"known: {sorted(MUTATIONS)}", file=sys.stderr)
        return 2

    base = WorldSpec(
        seed=args.first_seed,
        replicas=args.replicas,
        clients=args.clients,
        ops_per_client=args.ops,
        mutation=args.mutate,
    )

    progress = {"runs": 0, "failures": 0}

    def on_run(report):
        progress["runs"] += 1
        if not report.ok:
            progress["failures"] += 1
            spec = report.spec
            print(f"FAIL seed={spec.seed} interleaving="
                  f"{spec.interleaving} chaos={list(spec.chaos)} "
                  f"digest={report.digest[:16]}")
            for violation in report.violations:
                print(f"  - {violation}")

    result = explore(
        base,
        seeds=range(args.first_seed, args.first_seed + seeds),
        interleavings=interleavings,
        shrink_failures=not args.no_shrink,
        stop_after=args.stop_after,
        on_run=on_run,
    )

    for failure in result.failures:
        if failure.shrunk is not None:
            spec = failure.shrunk
            print(f"  shrunk to: seed={spec.seed} clients="
                  f"{spec.clients} ops={spec.ops_per_client} "
                  f"chaos={list(spec.chaos)} replicas={spec.replicas}")

    if args.artifact is not None:
        artifact = result.to_artifact()
        artifact["base_spec"] = dataclasses.asdict(base)
        with open(args.artifact, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
        print(f"artifact: {args.artifact}")

    print(f"simexplore: {result.runs} runs, "
          f"{len(result.failures)} failing")

    if args.mutate is not None:
        # Sanity-gate mode: the planted bug must be CAUGHT.
        if result.failures:
            print(f"mutation gate OK: {args.mutate!r} caught")
            return 0
        print(f"mutation gate FAILED: {args.mutate!r} survived "
              f"{result.runs} runs — the oracles are not looking",
              file=sys.stderr)
        return 1

    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
