#!/usr/bin/env bash
# Benchmark smoke run: the perfbench self-test (a sub-second run of each
# declared workload, so a src/ change that drops a counter or
# perf_stats key perfbench reads fails here), crypto, proxy and search
# micro-benchmarks, boundary-crossing accounting, the Figure 5
# throughput/latency sweep,
# and `xsearch-experiments bench`: the measured Figure 5 load sweeps
# (in-process, cluster, loopback server), the availability runs and
# their acceptance gates, declared in repro.experiments.load.
#
# Writes the Figure 5 pytest-benchmark report plus the bench sections to
# BENCH_fig5.json and the availability digest to
# BENCH_fig5_availability.json at the repository root (committed, so
# perf/availability regressions show up in review).  Exits non-zero
# naming every failed gate.
#
# Usage: tools/bench_smoke.sh [extra pytest args...]

set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== xlint preflight (boundary/determinism/taxonomy/locks/dataflow) =="
python tools/xlint.py src/repro

echo
echo "== perfbench self-test (every declared metric still computes) =="
python3 perfbench/selftest.py

echo
echo "== crypto, proxy and search micro-benchmarks =="
python -m pytest benchmarks/test_micro_crypto.py benchmarks/test_micro_proxy.py \
    benchmarks/test_micro_boundary.py benchmarks/test_micro_search.py -q "$@"

echo
echo "== figure 5: throughput vs latency =="
python -m pytest benchmarks/test_fig5_throughput_latency.py -q -s \
    --benchmark-json=BENCH_fig5.json "$@"

echo
echo "== figure 5 companion: availability under injected faults =="
python -m pytest benchmarks/test_fig5_availability.py -q "$@"

echo
echo "== figure 5 measured: load sweeps, availability runs and their gates =="
python -m repro.experiments.runner bench

echo
echo "wrote BENCH_fig5.json, BENCH_fig5_availability.json"
