#!/usr/bin/env bash
# Benchmark smoke run: crypto and proxy micro-benchmarks, boundary-crossing
# accounting, the Figure 5 throughput/latency sweep and the
# availability-under-faults sweep.
#
# Writes the Figure 5 pytest-benchmark report to BENCH_fig5.json and the
# availability digest to BENCH_fig5_availability.json at the repository
# root (committed, so perf/availability regressions show up in review).
#
# Usage: tools/bench_smoke.sh [extra pytest args...]

set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== xlint preflight (boundary/determinism/taxonomy/locks/dataflow) =="
python tools/xlint.py src/repro

echo
echo "== crypto and proxy micro-benchmarks =="
python -m pytest benchmarks/test_micro_crypto.py benchmarks/test_micro_proxy.py \
    benchmarks/test_micro_boundary.py -q "$@"

echo
echo "== figure 5: throughput vs latency =="
python -m pytest benchmarks/test_fig5_throughput_latency.py -q -s \
    --benchmark-json=BENCH_fig5.json "$@"

echo
echo "== figure 5 measured: scheduler saturation at 1 and 4 workers =="
python - <<'PY'
from repro.experiments import fig5_measured
from repro.obs import attach_digest

# Open-loop wall-clock sweep against the REAL deployment (paced
# engines, multi-worker scheduler).  One curve per worker count; the
# knee ratio and saturated ecalls-per-request are the acceptance
# numbers for the concurrent scheduler.
one = fig5_measured.run_wallclock(max_workers=1)
four = fig5_measured.run_wallclock(max_workers=4)
print(fig5_measured.format_table(one))
print()
print(fig5_measured.format_table(four))

knee_ratio = (four.saturation_rps / one.saturation_rps
              if one.saturation_rps else float("inf"))
saturated = four.saturated_points() or four.points[-1:]
epr = (sum(p.ecalls_per_request for p in saturated) / len(saturated))
digest = {
    "workers_1": one.summary(),
    "workers_4": four.summary(),
    "knee_ratio": round(knee_ratio, 3),
    "ecalls_per_request_saturated": round(epr, 4),
}
attach_digest("BENCH_fig5.json", digest, key="scheduler")
print(f"\nscheduler: knee 1w={one.saturation_rps} rps, "
      f"4w={four.saturation_rps} rps (ratio {knee_ratio:.2f}), "
      f"saturated ecalls/request {epr:.3f}")
if knee_ratio < 2.0:
    raise SystemExit("scheduler scaling regressed: knee ratio < 2.0")
if epr >= 1.0:
    raise SystemExit(
        "coalescing regressed: saturated ecalls/request >= 1.0")
PY

echo
echo "== figure 5 cluster: replica scale-out and kill-one availability =="
python - <<'PY'
from repro.experiments import fig5_cluster
from repro.obs import attach_digest

# Replica scale-out: the wall-clock sweep repeated at 1/2/4 enclave
# replicas behind the consistent-hash session router, plus the
# deterministic kill-one availability run.  The acceptance numbers for
# the cluster are the 4-replica steady-state throughput against the
# 1-replica knee and the availability through the kill.
scaling = fig5_cluster.run_scaling()
availability = fig5_cluster.run_availability()
print(fig5_cluster.format_table(scaling))
print(fig5_cluster.format_availability(availability))

digest = {
    "scaling": scaling.summary(),
    "availability": availability.summary(),
}
attach_digest("BENCH_fig5.json", digest, key="cluster")
if not scaling.meets_target(3.0):
    raise SystemExit(
        f"cluster scaling regressed: 4-replica steady-state is only "
        f"{scaling.scaling_ratio():.2f}x the 1-replica knee (< 3.0x)")
if not availability.meets_target(0.9):
    raise SystemExit(
        f"cluster availability regressed: "
        f"{availability.availability:.1%} < 90% through a replica kill")
PY

echo
echo "== figure 5 server: loopback TCP sweep at 4 workers =="
python - <<'PY'
import json

from repro.experiments import fig5_server
from repro.obs import attach_digest

# The same open-loop sweep as fig5_measured, but every lane is a
# RemoteClient on its own TCP connection through XSearchServer: wire
# framing, AEAD records and per-connection reader threads all sit in
# the request path.  The acceptance number is the loopback knee
# against the in-process 4-worker knee recorded by the scheduler
# section above — the serving layer may cost at most 30%.
wall = fig5_server.run_wallclock(max_workers=4)
print(fig5_server.format_table(wall))

# The deterministic companion: the virtual-clock DES digest is the
# regression fingerprint (byte-identical across same-seed runs).
virtual = fig5_server.run_virtual(max_workers=4, rates=(50, 200),
                                  duration_seconds=0.25)

with open("BENCH_fig5.json") as handle:
    in_process_knee = (json.load(handle)["scheduler"]
                      ["workers_4"]["saturation_rps"])
knee_ratio = (wall.saturation_rps / in_process_knee
              if in_process_knee else float("inf"))
digest = {
    "wallclock": wall.summary(),
    "in_process_knee_rps": in_process_knee,
    "knee_ratio": round(knee_ratio, 3),
    "virtual_digest": virtual.digest(),
    "virtual_invariants_ok": virtual.trace_digest["invariants_ok"],
}
attach_digest("BENCH_fig5.json", digest, key="server")
print(f"\nserver: loopback knee {wall.saturation_rps} rps vs "
      f"in-process {in_process_knee} rps (ratio {knee_ratio:.2f}); "
      f"virtual digest {virtual.digest()[:16]}")
if knee_ratio < 0.7:
    raise SystemExit(
        f"serving layer overhead regressed: loopback knee is only "
        f"{knee_ratio:.2f}x the in-process knee (< 0.7x)")
if not virtual.trace_digest["invariants_ok"]:
    raise SystemExit(
        "TraceChecker violations in the virtual server sweep")
PY

echo
echo "== figure 5 companion: availability under injected faults =="
python -m pytest benchmarks/test_fig5_availability.py -q "$@"
python - <<'PY'
import json

from repro.experiments import fig5_availability
from repro.obs import ProfileSession

# Profile the run: the ProfileSession installs a TraceRecorder +
# MetricsRegistry as the process defaults, so the deployment built
# inside fig5_availability.run() is traced end to end.  The digest
# (span/outcome counts, TraceChecker verdict, metrics summary) is
# folded into both BENCH reports.
with ProfileSession("fig5_availability") as session:
    result = fig5_availability.run(
        seed=0, total_requests=60, crash_at=18,
        outages=((26, 34), (44, 50)), checkpoint_interval=6,
    )
with open("BENCH_fig5_availability.json", "w") as handle:
    json.dump(result.summary(), handle, indent=2, sort_keys=True)
    handle.write("\n")
session.attach("BENCH_fig5_availability.json")
session.attach("BENCH_fig5.json")
traces = session.digest["traces"]
if not traces.get("invariants_ok", False):
    raise SystemExit(
        "TraceChecker violations in the profiled availability run:\n"
        + "\n".join(traces.get("violations", ()))
    )
print(fig5_availability.format_table(result))
print(f"observability: {traces['trace_count']} traces, "
      f"invariants_ok={traces['invariants_ok']}")
PY

echo
echo "wrote BENCH_fig5.json, BENCH_fig5_availability.json"
