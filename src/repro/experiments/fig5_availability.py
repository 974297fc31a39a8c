"""Figure 5 companion — availability of the proxy under injected faults.

The paper measures the proxy's *throughput* ceiling (§6.3); this
experiment measures what fraction of client searches still succeed when
the deployment misbehaves the way real cloud deployments do:

* the enclave is killed once mid-run (host crash / EPC eviction of the
  whole enclave) — the host must respawn it with the *same measurement*,
  restore the sealed history checkpoint and let clients re-attest;
* the path to the search engine goes down twice (connection drops for a
  window of requests) — retries burn through, then degraded mode serves
  the last filtered results for known queries.

The run is driven by a seeded :class:`~repro.faults.FaultPlan`, so the
whole scenario — crash point, outage windows, every injected fault — is
deterministic and replayable from ``seed``.

Success criterion (mirrored by ``benchmarks/test_fig5_availability.py``):
availability ≥ 90 % with one enclave kill and two engine outages, the
respawned enclave re-attests under the original measurement, and the
restored history is exactly the checkpointed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.errors import ReproError
from repro.faults import ENGINE_SITES, KIND_CRASH, KIND_REFUSE, SITE_ECALL, FaultPlan
from repro.sgx.sealing import SealingPlatform

# A small rotation of realistic queries: repeats are what give degraded
# mode something to serve during an outage.
QUERY_POOL = (
    "cheap hotel rome",
    "best pizza paris",
    "flu symptoms treatment",
    "nfl playoff schedule",
    "python dataclass tutorial",
    "weather forecast berlin",
    "used car prices",
    "chocolate cake recipe",
    "flight delay compensation",
    "laptop battery replacement",
    "museum opening hours",
    "marathon training plan",
)

DEFAULT_TOTAL_REQUESTS = 120
DEFAULT_CRASH_AT = 30
DEFAULT_OUTAGES = ((40, 52), (80, 92))
DEFAULT_CHECKPOINT_INTERVAL = 8


@dataclass
class AvailabilityResult:
    """Outcome counts plus the recovery evidence the criterion needs."""

    total: int
    ok: int
    degraded: int
    failed: int
    respawns: int
    reconnects: int
    checkpoints: int
    measurement_stable: bool
    restore_matches_checkpoint: bool
    failure_kinds: dict = field(default_factory=dict)
    timeline: list = field(default_factory=list)  # per-request outcome tags

    @property
    def served(self) -> int:
        return self.ok + self.degraded

    @property
    def availability(self) -> float:
        return self.served / self.total if self.total else 0.0

    def meets_target(self) -> bool:
        return (
            self.availability >= 0.90
            and self.respawns >= 1
            and self.measurement_stable
            and self.restore_matches_checkpoint
        )

    def summary(self) -> dict:
        """JSON-friendly digest (consumed by ``tools/bench_smoke.sh``)."""
        return {
            "total": self.total,
            "served": self.served,
            "ok": self.ok,
            "degraded": self.degraded,
            "failed": self.failed,
            "availability": round(self.availability, 4),
            "respawns": self.respawns,
            "reconnects": self.reconnects,
            "checkpoints": self.checkpoints,
            "measurement_stable": self.measurement_stable,
            "restore_matches_checkpoint": self.restore_matches_checkpoint,
            "meets_target": self.meets_target(),
        }


def run(*, seed: int = 0,
        total_requests: int = DEFAULT_TOTAL_REQUESTS,
        crash_at: int = DEFAULT_CRASH_AT,
        outages=DEFAULT_OUTAGES,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        limit: int = 10) -> AvailabilityResult:
    """Serve ``total_requests`` searches through a faulty deployment.

    ``crash_at`` kills the enclave just before that request index;
    each ``(start, stop)`` pair in ``outages`` refuses every engine
    connection for requests in ``[start, stop)``.
    """
    plan = FaultPlan(seed=seed)
    deployment = XSearchDeployment.create(config=DeploymentConfig(
        seed=seed,
        proxy_options={
            "fault_plan": plan,
            "sealing_platform": SealingPlatform(),
            "checkpoint_interval": checkpoint_interval,
        },
    ))
    proxy = deployment.proxy
    original_measurement = proxy.measurement

    outages = tuple(tuple(window) for window in outages)
    ok = degraded = failed = 0
    failure_kinds = {}
    timeline = []
    measurement_stable = True
    restore_matches = True
    outage_handles = {}

    with deployment:
        for index in range(total_requests):
            if index == crash_at:
                plan.trigger(SITE_ECALL, KIND_CRASH)
            for window in outages:
                if index == window[0]:
                    outage_handles[window] = [
                        plan.block(site, KIND_REFUSE)
                        for site in ENGINE_SITES
                    ]
                if index == window[1]:
                    for handle in outage_handles.pop(window):
                        plan.unblock(handle)

            respawns_before = proxy.respawn_count
            query = QUERY_POOL[index % len(QUERY_POOL)]
            try:
                deployment.client.search(query, limit=limit)
            except ReproError as exc:
                failed += 1
                kind = type(exc).__name__
                failure_kinds[kind] = failure_kinds.get(kind, 0) + 1
                timeline.append("fail")
            else:
                if deployment.client.last_degraded:
                    degraded += 1
                    timeline.append("degraded")
                else:
                    ok += 1
                    timeline.append("ok")

            if proxy.respawn_count > respawns_before:
                # The supervisor replaced the enclave during this request:
                # verify recovery actually recovered.
                if proxy.measurement != original_measurement:
                    measurement_stable = False
                if proxy.last_restore_count != proxy.last_restore_expected:
                    restore_matches = False

    return AvailabilityResult(
        total=total_requests,
        ok=ok,
        degraded=degraded,
        failed=failed,
        respawns=proxy.respawn_count,
        reconnects=deployment.broker.reconnects,
        checkpoints=proxy.checkpoint_count,
        measurement_stable=measurement_stable,
        restore_matches_checkpoint=restore_matches,
        failure_kinds=failure_kinds,
        timeline=timeline,
    )


def format_table(result: AvailabilityResult) -> str:
    lines = [
        f"requests served      {result.served}/{result.total} "
        f"({result.availability:.1%} availability)",
        f"  full service       {result.ok}",
        f"  degraded (cache)   {result.degraded}",
        f"  failed             {result.failed}  {result.failure_kinds}",
        f"enclave respawns     {result.respawns} "
        f"(measurement stable: {result.measurement_stable})",
        f"broker reconnects    {result.reconnects}",
        f"history checkpoints  {result.checkpoints} "
        f"(restore == checkpoint: {result.restore_matches_checkpoint})",
        f"meets ≥90% target    {result.meets_target()}",
    ]
    return "\n".join(lines)


def main(fast: bool = False) -> AvailabilityResult:
    if fast:
        result = run(total_requests=60, crash_at=18,
                     outages=((26, 34), (44, 50)),
                     checkpoint_interval=6)
    else:
        result = run()
    print("Figure 5 companion — availability under injected faults")
    print(format_table(result))
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
