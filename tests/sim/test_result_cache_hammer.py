"""Concurrency hammer for the in-enclave result cache.

The cache's ``put`` deliberately carries a cooperative step point
*inside* its critical section, so the sim can park a task mid-insert
and run every other task against the held lock.  Two layers:

* a unit hammer driving :class:`ResultCache` directly through many
  seeded interleavings — the byte budget must never be exceeded, reads
  must never be torn (a key only ever maps to a value written under
  that key), and the accounting must audit clean;
* whole-deployment sweeps whose chaos schedule fires EPC-pressure
  spikes (the ``pressure`` action triggers the fault plan's
  ``enclave.epc`` site) while clients keep the cache hot — every
  invariant oracle, including the in-enclave accounting audit, must
  stay green.
"""

from __future__ import annotations

import pytest

from repro.core.result_cache import ResultCache
from repro.sim import SimScheduler, WorldSpec, hooks, run_sim
from repro.sim.explore import explore

CAPACITY = 2_000
N_TASKS = 4
OPS_PER_TASK = 12


def _hammer_once(seed):
    cache = ResultCache(max_bytes=CAPACITY)
    sim = SimScheduler(seed)
    torn = []

    def worker(task_index):
        def fn():
            for op in range(OPS_PER_TASK):
                key = f"query-{(task_index + op) % 5}"
                value = (key, f"payload-{task_index}-{op}" * 8)
                cache.put(key, value, nbytes=300 + 40 * task_index)
                # The budget holds at every observable instant, not
                # just at the end of the run.
                if cache.byte_size > CAPACITY:
                    torn.append(f"budget exceeded: {cache.byte_size}")
                hooks.step("hammer.read", task=task_index, op=op)
                got = cache.get(key)
                # A read is either a miss (evicted underneath us) or a
                # value some task wrote under this exact key — never a
                # splice of two entries.
                if got is not None and got[0] != key:
                    torn.append(f"torn read: {key} -> {got[0]}")
        return fn

    for task_index in range(N_TASKS):
        sim.spawn(f"hammer-{task_index}", worker(task_index))
    hooks.install(sim)
    try:
        sim.run()
    finally:
        hooks.uninstall(sim)
    return cache, torn, sim


@pytest.mark.parametrize("seed", range(10))
def test_unit_hammer_interleavings(seed):
    cache, torn, sim = _hammer_once(seed)
    assert torn == []
    report = cache.integrity_report()
    assert report["consistent"], report
    assert report["bytes"] <= CAPACITY
    assert cache.stats.insertions == N_TASKS * OPS_PER_TASK
    # The interleaving genuinely entered the critical section.
    assert any(site == "cache.put" for _, site, _ in sim.events)


def test_unit_hammer_is_deterministic():
    first_cache, _, first_sim = _hammer_once(seed=0)
    second_cache, _, second_sim = _hammer_once(seed=0)
    assert first_sim.events == second_sim.events
    assert (first_cache.integrity_report()
            == second_cache.integrity_report())


def test_deployment_sweep_under_epc_pressure():
    # Pressure-heavy chaos: every run fires EPC spikes while search
    # traffic populates the degraded cache; the post-run accounting
    # audit (the history-integrity oracle covers that cache too) and every
    # other oracle must hold.
    base = WorldSpec(seed=0, replicas=1, clients=3, ops_per_client=3,
                     chaos=("pressure", "pressure", "advance",
                            "pressure", "checkpoint"))
    result = explore(base, seeds=range(8), shrink_failures=False)
    assert result.ok, [f.violations for f in result.failures]


def test_eviction_storm_stays_within_budget():
    # Entries sized so each insert evicts: the eviction loop runs
    # while other tasks are parked at the in-lock step point.
    report = run_sim(WorldSpec(seed=5, replicas=1, clients=2,
                               ops_per_client=4, history_capacity=8,
                               chaos=("pressure", "advance")))
    assert report.ok, report.violations
