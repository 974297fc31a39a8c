"""Figure 5, measured — open-loop load against the *real* deployment.

The original :mod:`~repro.experiments.fig5_throughput_latency` sweep
drives analytic service models (:mod:`repro.net.queueing`): useful for
the cross-system comparison, but it asserts nothing about our actual
pipeline.  This harness replaces the simulated X-Search station with
the real thing — client → broker → scheduler → enclave → engine — and
measures the saturation curve the paper shows in Figure 5: offered
rate vs p50/p99 latency, plus the two quantities that prove the
scheduler's coalescing is doing its job, the batch-size histogram and
mean *ecalls per request* (< 1 once batching amortises transitions).

Two modes share one code path for the pipeline itself:

* **virtual mode** (:func:`run_virtual`) — a single-threaded
  discrete-event simulation of the scheduler's policy (N workers,
  adaptive coalescing up to ``max_batch``, engine fan-out ``fanout``)
  in which every simulated batch *executes the real pipeline* — real
  crypto, real enclave, real engine — and its simulated service time
  is derived from the measured boundary-cycle delta of that execution.
  No threads, no wall clock: byte-identical results and trace digests
  for equal seeds, which is what the tier-1 tests pin.
* **wall-clock mode** (:func:`run_wallclock`) — real scheduler worker
  threads, real lanes of attested client sessions submitting on a
  wrk2-style open-loop schedule, latencies measured from *intended*
  send times with a :class:`~repro.net.clock.SystemClock`.  The engine
  is paced (``engine_latency`` of simulated network service per
  exchange, slept while the GIL is released) so concurrency shows up
  as real overlap.  ``tools/bench_smoke.sh`` records this mode at 1
  and 4 workers into ``BENCH_fig5.json``.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import threading
from dataclasses import dataclass

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.core.scheduler import (
    DEFAULT_COALESCE_WINDOW,
    DEFAULT_MAX_BATCH,
)
from repro.net.clock import SystemClock
from repro.net.loadgen import OpenLoopLoadGenerator, saturation_rate
from repro.obs import TraceRecorder, trace_digest
from repro.search.engine import SearchEngine
from repro.sgx.runtime import DEFAULT_CLOCK_HZ

#: Simulated engine service time per exchange, seconds.  Large enough
#: to dominate Python-level jitter, small enough for a smoke run.
DEFAULT_ENGINE_LATENCY = 0.004
#: Modelled in-enclave compute per record (virtual mode), seconds.
DEFAULT_COMPUTE_PER_RECORD = 0.0002
DEFAULT_LIMIT = 5
_QUERY_TERMS = (
    "hotel", "rome", "weather", "nba", "election", "recipe", "flight",
    "paris", "battery", "train", "cinema", "stocks", "museum", "pizza",
)


def _query_pool(count: int, seed: int) -> list:
    rng = random.Random(seed)
    return [
        f"{rng.choice(_QUERY_TERMS)} {rng.choice(_QUERY_TERMS)} {i}"
        for i in range(count)
    ]


class PacedEngine:
    """Wraps a :class:`SearchEngine`, charging a fixed service time per
    exchange.  ``clock.sleep`` releases the GIL, so in wall-clock mode
    concurrent fan-out/worker threads genuinely overlap their engine
    waits — the overlap Figure 5's scaling claim is about."""

    def __init__(self, engine: SearchEngine, *, latency: float,
                 clock=None):
        self._engine = engine
        self._latency = latency
        self._clock = clock if clock is not None else SystemClock()

    def search(self, query, limit):
        self._clock.sleep(self._latency)
        return self._engine.search(query, limit)

    def search_or(self, subqueries, limit):
        self._clock.sleep(self._latency)
        return self._engine.search_or(subqueries, limit)

    def __getattr__(self, name):
        return getattr(self._engine, name)


@dataclass(frozen=True)
class MeasuredPoint:
    """One measured point of the saturation curve."""

    offered_rps: float
    achieved_rps: float
    mean_latency: float
    p50_latency: float
    p99_latency: float
    requests: int
    ecalls: int
    ecalls_per_request: float
    mean_batch_size: float
    batch_histogram: dict  # batch size -> count

    def as_dict(self) -> dict:
        return {
            "offered_rps": self.offered_rps,
            "achieved_rps": round(self.achieved_rps, 3),
            "mean_latency": round(self.mean_latency, 6),
            "p50_latency": round(self.p50_latency, 6),
            "p99_latency": round(self.p99_latency, 6),
            "requests": self.requests,
            "ecalls": self.ecalls,
            "ecalls_per_request": round(self.ecalls_per_request, 4),
            "mean_batch_size": round(self.mean_batch_size, 3),
            "batch_histogram": {
                str(size): count
                for size, count in sorted(self.batch_histogram.items())
            },
        }


@dataclass
class MeasuredFig5Result:
    mode: str  # "virtual" or "wall"
    max_workers: int
    points: list
    saturation_rps: float
    trace_digest: dict = None

    def saturated_points(self) -> list:
        """Points past the knee (offered above the saturation rate)."""
        return [p for p in self.points
                if p.offered_rps > self.saturation_rps]

    def summary(self) -> dict:
        summary = {
            "mode": self.mode,
            "max_workers": self.max_workers,
            "saturation_rps": self.saturation_rps,
            "points": [point.as_dict() for point in self.points],
        }
        saturated = self.saturated_points() or self.points[-1:]
        summary["ecalls_per_request_saturated"] = round(
            sum(p.ecalls_per_request for p in saturated) / len(saturated),
            4,
        )
        if self.trace_digest is not None:
            summary["traces"] = {
                "trace_count": self.trace_digest.get("trace_count"),
                "invariants_ok": self.trace_digest.get("invariants_ok"),
            }
        return summary

    def digest(self) -> str:
        """Canonical hash of the whole result (the determinism pin)."""
        payload = {"summary": self.summary(),
                   "traces": self.trace_digest}
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _percentile(sorted_values: list, p: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, int(round(p / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[index]


def _achieved_rps(completions: list) -> float:
    """Steady-state completion rate: completions per second between the
    first and last finish.  An open-loop smoke run drains its whole
    backlog, so dividing by the makespan (arrival window + drain tail)
    would understate short runs; the inter-completion rate is the
    honest capacity estimate at every load level."""
    if len(completions) < 2:
        return float(len(completions))
    span = max(completions) - min(completions)
    if span <= 0:
        return float(len(completions))
    return (len(completions) - 1) / span


def _point(offered: float, latencies: list, completions: list,
           ecalls: int, batch_sizes: list) -> MeasuredPoint:
    ordered = sorted(latencies)
    histogram = {}
    for size in batch_sizes:
        histogram[size] = histogram.get(size, 0) + 1
    count = len(latencies)
    return MeasuredPoint(
        offered_rps=offered,
        achieved_rps=_achieved_rps(completions),
        mean_latency=sum(ordered) / count if count else 0.0,
        p50_latency=_percentile(ordered, 50.0),
        p99_latency=_percentile(ordered, 99.0),
        requests=count,
        ecalls=ecalls,
        ecalls_per_request=ecalls / count if count else 0.0,
        mean_batch_size=(sum(batch_sizes) / len(batch_sizes)
                         if batch_sizes else 0.0),
        batch_histogram=histogram,
    )


# ----------------------------------------------------------------------
# Virtual mode: deterministic discrete-event sweep over the real pipeline
# ----------------------------------------------------------------------
def run_virtual(*, max_workers: int = 4, rates=(50, 100, 200, 400, 800),
                duration_seconds: float = 1.0, seed: int = 0,
                k: int = 3, limit: int = DEFAULT_LIMIT,
                max_batch: int = DEFAULT_MAX_BATCH,
                fanout: int = None,
                engine_latency: float = DEFAULT_ENGINE_LATENCY,
                compute_per_record: float = DEFAULT_COMPUTE_PER_RECORD,
                clock_hz: float = DEFAULT_CLOCK_HZ) -> MeasuredFig5Result:
    """Deterministic saturation sweep: DES of the scheduler's policy,
    service times measured from real pipeline executions.

    Each simulated batch is really executed (``broker.search_batch``
    through the enclave), and its simulated service time is

    ``boundary_cycles / clock_hz  +  compute_per_record × B
    + engine_latency × ceil(B / fanout)``

    — the measured transition cost of that very batch, the modelled
    enclave compute, and the batch's engine exchanges divided across
    ``fanout`` parallel connections.  Workers, arrivals and coalescing
    follow :class:`~repro.core.scheduler.RequestScheduler` semantics:
    a freed worker takes the whole backlog up to ``max_batch``, so one
    ecall covers B requests exactly when load is highest.
    """
    if fanout is None:
        fanout = 2 * max_workers   # the deployment's concurrent default
    recorder = TraceRecorder()
    points = []
    with XSearchDeployment.create(config=DeploymentConfig(seed=seed, k=k),
                                  recorder=recorder) as deployment:
        enclave = deployment.proxy.enclave
        for rate in rates:
            arrivals = OpenLoopLoadGenerator(
                rate_rps=rate, duration_seconds=duration_seconds,
                seed=seed,
            ).arrival_times()
            queries = _query_pool(len(arrivals), seed)
            workers = [0.0] * max_workers
            heapq.heapify(workers)
            latencies = []
            completions = []
            batch_sizes = []
            ecalls_before = enclave.boundary_snapshot().ecalls
            index = 0
            while index < len(arrivals):
                free_at = heapq.heappop(workers)
                start = max(free_at, arrivals[index])
                batch = [index]
                index += 1
                while (index < len(arrivals)
                       and len(batch) < max_batch
                       and arrivals[index] <= start):
                    batch.append(index)
                    index += 1
                size = len(batch)
                before = enclave.boundary_snapshot().cycles
                deployment.broker.search_batch(
                    [queries[j] for j in batch], limit=limit,
                )
                cycles = enclave.boundary_snapshot().cycles - before
                sends = -(-size // fanout)  # ceil
                service = (cycles / clock_hz
                           + compute_per_record * size
                           + engine_latency * sends)
                done = start + service
                for j in batch:
                    latencies.append(done - arrivals[j])
                    completions.append(done)
                batch_sizes.append(size)
                heapq.heappush(workers, done)
            ecalls = enclave.boundary_snapshot().ecalls - ecalls_before
            points.append(_point(rate, latencies, completions,
                                 ecalls, batch_sizes))
    digest = trace_digest(recorder)
    return MeasuredFig5Result(
        mode="virtual",
        max_workers=max_workers,
        points=points,
        saturation_rps=saturation_rate(points),
        trace_digest=digest,
    )


# ----------------------------------------------------------------------
# Wall-clock mode: the real scheduler under real open-loop load
# ----------------------------------------------------------------------
class _Lane:
    """One submitter lane: its own attested client session, serving its
    round-robin share of the arrival schedule in order (a wrk2
    connection).  Latency is measured from the *intended* send time."""

    def __init__(self, client, arrivals, queries, limit, clock, epoch):
        self._client = client
        self._arrivals = arrivals
        self._queries = queries
        self._limit = limit
        self._clock = clock
        self._epoch = epoch
        self.latencies = []
        self.completions = []
        self.errors = 0

    def run(self) -> None:
        for intended, query in zip(self._arrivals, self._queries):
            now = self._clock.time() - self._epoch
            if now < intended:
                self._clock.sleep(intended - now)
            try:
                self._client.search(query, limit=self._limit)
            except Exception:
                self.errors += 1
                continue
            done = self._clock.time() - self._epoch
            self.latencies.append(done - intended)
            self.completions.append(done)


def run_wallclock(*, max_workers: int = 4,
                  rates=(15, 30, 60, 120, 240, 420),
                  duration_seconds: float = 0.4, seed: int = 0,
                  k: int = 2, limit: int = 1,
                  max_batch: int = DEFAULT_MAX_BATCH,
                  coalesce_window: float = DEFAULT_COALESCE_WINDOW,
                  lanes: int = 16,
                  engine_latency: float = 0.04,
                  ) -> MeasuredFig5Result:
    """Measured saturation sweep against the live concurrent pipeline.

    Builds a real ``max_workers`` deployment over a paced engine and
    drives it with ``lanes`` concurrent client sessions on an open-loop
    schedule.  Wall-clock numbers — not deterministic; the committed
    artefact records them alongside the virtual mode's pinned curve.
    """
    from repro.obs import MetricsRegistry, NullRecorder

    clock = SystemClock()
    engine = PacedEngine(
        SearchEngine.with_synthetic_corpus(seed=seed),
        latency=engine_latency, clock=clock,
    )
    points = []
    registry = MetricsRegistry()
    config = DeploymentConfig(
        seed=seed, k=k,
        max_workers=max_workers,
        coalesce_window=coalesce_window,
        max_batch=max_batch,
    )
    with XSearchDeployment.create(
        config=config, engine=engine,
        recorder=NullRecorder(), registry=registry,
    ) as deployment:
        enclave = deployment.proxy.enclave
        clients = [deployment.client(user_id=f"lane-{i}")
                   for i in range(lanes)]
        for rate in rates:
            arrivals = OpenLoopLoadGenerator(
                rate_rps=rate, duration_seconds=duration_seconds,
                seed=seed,
            ).arrival_times()
            queries = _query_pool(len(arrivals), seed)
            shares = [([], []) for _ in range(lanes)]
            for i, (arrival, query) in enumerate(zip(arrivals, queries)):
                shares[i % lanes][0].append(arrival)
                shares[i % lanes][1].append(query)
            before = enclave.boundary_snapshot()
            epoch = clock.time()
            lane_objs = [
                _Lane(client, share_arrivals, share_queries, limit,
                      clock, epoch)
                for client, (share_arrivals, share_queries)
                in zip(clients, shares)
                if share_arrivals
            ]
            threads = [
                threading.Thread(target=lane.run,
                                 name=f"fig5-lane-{i}", daemon=True)
                for i, lane in enumerate(lane_objs)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            delta = enclave.boundary_snapshot() - before
            request_ecalls = sum(
                count for name, count in delta.ecall_counts.items()
                if name in ("request", "request_batch", "request_many")
            )
            batch_sizes = _drain_batches(deployment)
            latencies = []
            completions = []
            for lane in lane_objs:
                latencies.extend(lane.latencies)
                completions.extend(lane.completions)
            points.append(_point(rate, latencies, completions,
                                 request_ecalls, batch_sizes))
    # Wall-clock runs jitter; a slightly looser keep-up bound than the
    # simulated sweeps keeps the knee estimate stable across machines.
    return MeasuredFig5Result(
        mode="wall",
        max_workers=max_workers,
        points=points,
        saturation_rps=saturation_rate(points, keep_up_fraction=0.9),
    )


_BATCH_LOG = {}
_BATCH_LOG_LOCK = threading.Lock()


def _drain_batches(deployment) -> list:
    """Per-rate batch sizes, reconstructed from the scheduler's batch
    counter deltas (the registry histogram only keeps aggregates)."""
    registry = deployment.registry
    if registry is None or deployment.scheduler is None:
        return []
    batches = registry.get("scheduler.batches")
    records = registry.get("scheduler.submitted")
    if batches is None or records is None:
        return []
    with _BATCH_LOG_LOCK:
        key = id(deployment)
        prev_batches, prev_records = _BATCH_LOG.get(key, (0, 0))
        delta_batches = batches.value - prev_batches
        delta_records = records.value - prev_records
        _BATCH_LOG[key] = (batches.value, records.value)
    if delta_batches <= 0:
        return []
    # Aggregate reconstruction: report the mean batch size that many
    # times (exact per-batch sizes live in the scheduler.batch_size
    # histogram's summary, which bench_smoke.sh attaches separately).
    mean = max(1, round(delta_records / delta_batches))
    return [mean] * delta_batches


def format_table(result: MeasuredFig5Result) -> str:
    lines = [
        f"measured Figure 5 — {result.mode} mode, "
        f"{result.max_workers} worker(s), knee at "
        f"{result.saturation_rps:,.0f} req/s",
        "  offered req/s   achieved req/s   p50 (ms)   p99 (ms)"
        "   ecalls/req   mean batch",
    ]
    for point in result.points:
        lines.append(
            f"  {point.offered_rps:>13,.0f}   {point.achieved_rps:>14,.1f}"
            f"   {point.p50_latency * 1e3:>8.2f}"
            f"   {point.p99_latency * 1e3:>8.2f}"
            f"   {point.ecalls_per_request:>10.3f}"
            f"   {point.mean_batch_size:>10.2f}"
        )
    return "\n".join(lines)


def main() -> MeasuredFig5Result:  # pragma: no cover - CLI entry
    result = run_virtual()
    print(format_table(result))
    return result


if __name__ == "__main__":  # pragma: no cover
    main()
