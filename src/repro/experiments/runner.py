"""Command-line runner regenerating every figure of the paper.

Usage::

    xsearch-experiments all          # every figure, paper-scale
    xsearch-experiments fig3 --fast  # one figure, CI-scale
    xsearch-experiments bench        # the Figure 5 load sweeps + gates

Every run is profiled through :class:`repro.obs.ProfileSession`: the
session installs a trace recorder and metrics registry as the process
defaults (picked up by every ``XSearchDeployment.create`` inside the
experiment), and on completion its digest — span/event frequency
tables, request outcomes, the :class:`~repro.obs.checker.TraceChecker`
verdict and the metrics plane — is attached to the figure's
``BENCH_<name>.json`` artefact when one exists (``--profile-json`` to
force a path).  ``--no-profile`` disables the instrumentation entirely.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments import (
    fig1_fake_queries,
    fig3_reidentification,
    fig4_accuracy,
    fig5_availability,
    fig5_throughput_latency,
    fig6_memory,
    fig7_round_trip,
)
from repro.net.clock import SystemClock

EXPERIMENTS = {
    "fig1": fig1_fake_queries,
    "fig3": fig3_reidentification,
    "fig4": fig4_accuracy,
    "fig5": fig5_throughput_latency,
    "fig5a": fig5_availability,
    "fig6": fig6_memory,
    "fig7": fig7_round_trip,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the figures of the X-Search paper "
                    "(Middleware 2017)."
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "report", "bench"],
        help="which figure to regenerate ('report' renders all of them "
             "into one markdown document; 'bench' runs the measured "
             "Figure 5 sweeps, writes BENCH_fig5*.json and fails on "
             "any gate)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="reduced scale (smaller dataset / fewer samples)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="for 'report': write the markdown to this file",
    )
    parser.add_argument(
        "--no-profile",
        action="store_true",
        help="run without the observability plane (no traces, no digest)",
    )
    parser.add_argument(
        "--profile-json",
        default=None,
        help="attach the observability digest to this JSON report "
             "(default: BENCH_<experiment>.json when it exists)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "report":
        from repro.experiments import report

        report.main(fast=args.fast, output=args.output)
        return 0
    if args.experiment == "bench":
        from repro.experiments import load

        failed = load.bench()
        if failed:
            print(f"bench: failed gates: {', '.join(failed)}",
                  file=sys.stderr)
        return 1 if failed else 0

    clock = SystemClock()
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        module = EXPERIMENTS[name]
        start = clock.time()
        if args.no_profile:
            module.main(fast=args.fast)
        else:
            _run_profiled(name, module, fast=args.fast,
                          profile_json=args.profile_json)
        print(f"[{name} completed in {clock.time() - start:.1f}s]\n")
    return 0


def _run_profiled(name: str, module, *, fast: bool,
                  profile_json: str = None) -> None:
    """Run one experiment under a profiling session and export its digest.

    The digest lands next to (inside) the figure's ``BENCH_<name>.json``
    pytest-benchmark artefact so every committed benchmark report carries
    the trace/metric evidence — and the checker verdict — of the run
    that produced it.  With no artefact present and no explicit path the
    digest is only summarised to stdout.
    """
    from repro.obs import ProfileSession

    with ProfileSession(name) as session:
        module.main(fast=fast)
    target = profile_json
    if target is None:
        candidate = f"BENCH_{name}.json"
        if os.path.exists(candidate):
            target = candidate
    digest = session.digest
    traces = digest.get("traces", {})
    print(f"[{name}: {traces.get('trace_count', 0)} traces recorded, "
          f"invariants_ok={traces.get('invariants_ok', True)}]")
    if target is not None:
        session.attach(target)
        print(f"[{name}: observability digest attached to {target}]")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
