"""Figure 5, measured — offered load against latency on the real deployment.

Where :mod:`~repro.experiments.fig5_throughput_latency` drives service
models, this harness drives the real pipeline — client → broker →
scheduler → enclave → engine — and measures offered rate against
p50/p99 latency up to the knee, plus mean *ecalls per request* (< 1
once the scheduler's coalescing amortises transitions) and mean batch
size.  What stands in front of the load is a *topology*:

* :class:`InProcess` — one enclave, ``workers`` scheduler threads,
  every lane an in-process client session;
* :class:`Cluster` — ``replicas`` enclave replicas behind the
  consistent-hash session router, lanes spread evenly over the ring;
* :class:`Server` — :class:`InProcess` behind the TCP serving layer,
  every lane a :class:`~repro.netserve.client.RemoteClient` on its own
  loopback connection.

:func:`run_virtual` (InProcess and Server) is a single-threaded
discrete-event simulation of the scheduler's policy in which every
simulated batch executes the real pipeline: byte-identical digests for
equal seeds.  :func:`run_wall` (all three) runs real scheduler threads
under wrk2-style open-loop lanes against a paced engine, latency
measured from *intended* send times.

:data:`BENCH` and :data:`GATES` are the benchmark smoke run as data;
:func:`bench` (``xsearch-experiments bench``) runs them.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import operator
import random
import threading
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Callable, ClassVar

from repro.core.cluster import HashRing
from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.core.scheduler import DEFAULT_MAX_BATCH
from repro.experiments import fig5_availability
from repro.net.clock import SystemClock, VirtualClock
from repro.net.loadgen import OpenLoopLoadGenerator, saturation_rate
from repro.netserve.client import RemoteClient
from repro.netserve.server import XSearchServer
from repro.obs import (
    MetricsRegistry,
    NullRecorder,
    ProfileSession,
    TraceRecorder,
    attach_digest,
    trace_digest,
)
from repro.search.engine import SearchEngine
from repro.sgx.runtime import DEFAULT_CLOCK_HZ

#: The one ecall that carries client requests; the wall sweep counts it.
REQUEST_ECALL = "request_many"

#: Virtual mode: simulated engine service time per exchange (large
#: enough to dominate Python-level jitter, small enough for a smoke
#: run) and modelled in-enclave compute per record, seconds.
VIRTUAL_ENGINE_LATENCY = 0.004
COMPUTE_PER_RECORD = 0.0002
#: Wall mode: the paced engine's default service time, and the seed,
#: obfuscation k and result limit of every wall sweep.
WALL_ENGINE_LATENCY = 0.04
WALL_SEED = 0
WALL_K = 2
WALL_LIMIT = 1
#: Scheduler workers *per replica* in a cluster — small on purpose, so
#: the knee is set by replica count, not by one deep pool.
WORKERS_PER_REPLICA = 2

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


def _arrivals(rate: float, duration_seconds: float, seed: int) -> list:
    return OpenLoopLoadGenerator(
        rate_rps=rate, duration_seconds=duration_seconds, seed=seed,
    ).arrival_times()


class PacedEngine:
    """Wraps a :class:`SearchEngine`, charging a fixed service time per
    exchange.  ``clock.sleep`` releases the GIL, so in wall-clock mode
    concurrent worker threads genuinely overlap their engine waits — the
    overlap Figure 5's scaling claim is about."""

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


# ----------------------------------------------------------------------
# Points and results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LoadPoint:
    """One offered rate of a sweep.  ``requests`` counts completed
    searches, ``errors`` the ones that raised, and ``sheds`` the
    requests and connections the TCP server refused (0 in-process, and
    in virtual mode, whose one serial client is never refused)."""

    offered_rps: float
    achieved_rps: float
    mean_latency: float
    p50_latency: float
    p99_latency: float
    requests: int
    errors: int
    sheds: int
    ecalls: int
    mean_batch_size: float
    batch_histogram: dict  # batch size -> count (virtual mode only)

    @property
    def ecalls_per_request(self) -> float:
        return self.ecalls / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {
            **asdict(self),
            "achieved_rps": round(self.achieved_rps, 3),
            "mean_latency": round(self.mean_latency, 6),
            "p50_latency": round(self.p50_latency, 6),
            "p99_latency": round(self.p99_latency, 6),
            "ecalls_per_request": round(self.ecalls_per_request, 4),
            "mean_batch_size": round(self.mean_batch_size, 3),
            "batch_histogram": {
                str(size): count
                for size, count in sorted(self.batch_histogram.items())
            },
        }


@dataclass
class LoadResult:
    """One sweep.  ``shape`` is the topology as it ran: the worker
    count, or the replicas and the lanes pinned to each."""

    mode: str
    shape: dict
    points: list
    saturation_rps: float
    trace_digest: dict = None
    #: SHA-256 over every result page the sweep received (virtual mode).
    output_digest: str = None

    @property
    def peak_rps(self) -> float:
        """Steady-state capacity: the best achieved completion rate."""
        return max((p.achieved_rps for p in self.points), default=0.0)

    def saturated_points(self) -> list:
        """Points past the knee (offered above the saturation rate)."""
        return [p for p in self.points
                if p.offered_rps > self.saturation_rps]

    def ecalls_per_request_saturated(self) -> float:
        saturated = self.saturated_points() or self.points[-1:]
        return round(
            sum(p.ecalls_per_request for p in saturated) / len(saturated),
            4,
        )

    def summary(self) -> dict:
        summary = {
            "mode": self.mode,
            **self.shape,
            "saturation_rps": self.saturation_rps,
            "points": [point.as_dict() for point in self.points],
            "ecalls_per_request_saturated":
                self.ecalls_per_request_saturated(),
        }
        if self.trace_digest is not None:
            summary["traces"] = {
                "trace_count": self.trace_digest.get("trace_count"),
                "invariants_ok": self.trace_digest.get("invariants_ok"),
            }
        return summary

    def digest(self) -> str:
        """Canonical hash of the whole result (the determinism pin)."""
        payload = {"summary": self.summary(),
                   "traces": self.trace_digest,
                   "outputs": self.output_digest}
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
    span = max(completions) - min(completions) if completions else 0.0
    if span <= 0:
        return float(len(completions))
    return (len(completions) - 1) / span


def _point(offered: float, latencies: list, completions: list,
           **measured) -> LoadPoint:
    ordered = sorted(latencies)
    count = len(ordered)
    return LoadPoint(
        offered_rps=offered,
        achieved_rps=_achieved_rps(completions),
        mean_latency=sum(ordered) / count if count else 0.0,
        p50_latency=_percentile(ordered, 50.0),
        p99_latency=_percentile(ordered, 99.0),
        requests=count,
        **measured,
    )


# ----------------------------------------------------------------------
# Topologies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InProcess:
    """One enclave behind a ``workers``-thread scheduler; lanes are
    in-process client sessions."""

    workers: int
    mode_prefix: ClassVar[str] = ""

    def config(self) -> DeploymentConfig:
        return DeploymentConfig(seed=WALL_SEED, k=WALL_K,
                                max_workers=self.workers)

    def lanes(self, deployment, count: int):
        return nullcontext([deployment.client(user_id=f"lane-{i}")
                            for i in range(count)])

    def driver(self, deployment):
        """The one client a virtual sweep submits its batches through."""
        return nullcontext([deployment.client])

    def shape(self, deployment, lanes: int) -> dict:
        return {"max_workers": self.workers}


@dataclass(frozen=True)
class Server(InProcess):
    """:class:`InProcess` behind :class:`XSearchServer`: the wire
    framing, AEAD records and per-connection reader threads sit in the
    request path."""

    mode_prefix: ClassVar[str] = "server-"

    def lanes(self, deployment, count: int):
        return _remote_clients(deployment,
                               [f"lane-{i}" for i in range(count)])

    def driver(self, deployment):
        # A virtual clock for every protocol wait keeps the run serial.
        return _remote_clients(deployment, ["fig5-virtual"],
                               clock=VirtualClock())


@contextmanager
def _remote_clients(deployment, user_ids, clock=None):
    recorder, registry = deployment.recorder, deployment.registry
    with XSearchServer(deployment, max_connections=len(user_ids) + 4,
                       idle_timeout=None, recorder=recorder,
                       registry=registry) as server:
        clients = [
            RemoteClient(
                server.address,
                service_public_key=deployment.attestation_service.public_key,
                expected_measurement=deployment.proxy.measurement,
                user_id=user_id, clock=clock,
                recorder=recorder, registry=registry,
            )
            for user_id in user_ids
        ]
        try:
            yield clients
        finally:
            for client in clients:
                client.close()


@dataclass(frozen=True)
class Cluster:
    """``replicas`` enclave replicas, each with its own scheduler and
    sealed history, behind the consistent-hash session router."""

    replicas: int
    mode_prefix: ClassVar[str] = ""

    def config(self) -> DeploymentConfig:
        return DeploymentConfig(seed=WALL_SEED, k=WALL_K,
                                replicas=self.replicas,
                                max_workers=WORKERS_PER_REPLICA)

    def lanes(self, deployment, count: int):
        return nullcontext([
            deployment.client(user_id=f"lane-{i}", session_id=session_id)
            for i, session_id in enumerate(self._balanced_session_ids(count))
        ])

    def shape(self, deployment, lanes: int) -> dict:
        # ring_map is a pure preview of the routing, so it also covers
        # replicas=1 (where brokers bypass the router).
        pins = Counter(deployment.cluster.router.ring_map(
            self._balanced_session_ids(lanes)).values())
        return {
            "replicas": self.replicas,
            "workers_per_replica": WORKERS_PER_REPLICA,
            "sessions_per_replica": {
                handle.replica_id: pins[handle.replica_id]
                for handle in deployment.cluster.replicas
            },
        }

    def _balanced_session_ids(self, lanes: int) -> list:
        """Deterministic lane session ids that spread round-robin over
        the ring.

        Consistent hashing balances in expectation, not for 16 keys; a
        lane landing hot would measure hash variance instead of
        capacity.  The ring is a pure function of the member set, so
        each lane's id is dialled (bounded salt search) until it pins to
        lane-number mod replica-count — the even assignment a
        session-aware load balancer would hand out.
        """
        ring = HashRing([f"replica-{index}"
                         for index in range(self.replicas)])
        session_ids = []
        for lane in range(lanes):
            want = f"replica-{lane % self.replicas}"
            for salt in range(512):
                candidate = f"lane-{lane:04d}-{salt:03d}"
                if ring.route(candidate) == want:
                    session_ids.append(candidate)
                    break
            else:  # pragma: no cover - 512 draws never all miss
                session_ids.append(f"lane-{lane:04d}-000")
        return session_ids


# ----------------------------------------------------------------------
# Virtual mode: deterministic discrete-event sweep over the real pipeline
# ----------------------------------------------------------------------
def run_virtual(topology: InProcess, *, rates, duration_seconds: float,
                seed: int = 0, k: int = 3, limit: int = 5) -> LoadResult:
    """Deterministic saturation sweep: DES of the scheduler's policy,
    service times measured from real pipeline executions.

    Each simulated batch of B requests really executes
    (``search_batch``) and is charged ``boundary_cycles / clock_hz +
    compute_per_record × B + engine_latency × B``: the measured
    transition cost of that very batch, the modelled enclave compute,
    and its engine exchanges, which run one after another on the thread
    that made the ecall.  As in
    :class:`~repro.core.scheduler.RequestScheduler`, a freed worker
    takes the whole backlog up to ``max_batch``.
    """
    recorder = TraceRecorder()
    outputs = hashlib.sha256()
    points = []
    config = DeploymentConfig(seed=seed, k=k)
    with XSearchDeployment.create(config=config,
                                  recorder=recorder) as deployment, \
            topology.driver(deployment) as (client,):
        enclave = deployment.proxy.enclave
        for rate in rates:
            arrivals = _arrivals(rate, duration_seconds, seed)
            queries = _query_pool(len(arrivals), seed)
            workers = [0.0] * topology.workers
            latencies, completions, batch_sizes = [], [], []
            ecalls_before = enclave.boundary_snapshot().ecalls
            index = 0
            while index < len(arrivals):
                start = max(heapq.heappop(workers), arrivals[index])
                batch = [index]
                index += 1
                while (index < len(arrivals)
                       and len(batch) < DEFAULT_MAX_BATCH
                       and arrivals[index] <= start):
                    batch.append(index)
                    index += 1
                size = len(batch)
                before = enclave.boundary_snapshot().cycles
                pages = client.search_batch([queries[j] for j in batch],
                                            limit=limit)
                outputs.update(repr(pages).encode("utf-8"))
                cycles = enclave.boundary_snapshot().cycles - before
                done = start + (cycles / DEFAULT_CLOCK_HZ
                                + COMPUTE_PER_RECORD * size
                                + VIRTUAL_ENGINE_LATENCY * size)
                for j in batch:
                    latencies.append(done - arrivals[j])
                    completions.append(done)
                batch_sizes.append(size)
                heapq.heappush(workers, done)
            points.append(_point(
                rate, latencies, completions, errors=0, sheds=0,
                ecalls=enclave.boundary_snapshot().ecalls - ecalls_before,
                mean_batch_size=(sum(batch_sizes) / len(batch_sizes)
                                 if batch_sizes else 0.0),
                batch_histogram=dict(Counter(batch_sizes)),
            ))
        shape = topology.shape(deployment, 1)
    return LoadResult(
        mode=topology.mode_prefix + "virtual",
        shape=shape,
        points=points,
        saturation_rps=saturation_rate(points),
        trace_digest=trace_digest(recorder),
        output_digest=outputs.hexdigest(),
    )


# ----------------------------------------------------------------------
# Wall-clock mode: the real scheduler under real open-loop load
# ----------------------------------------------------------------------
class _Lane(threading.Thread):
    """One submitter lane: its own client session, serving its
    round-robin share of the arrival schedule in order (a wrk2
    connection).  Latency is measured from the *intended* send time."""

    def __init__(self, client, arrivals, queries, clock, epoch):
        super().__init__(name="load-lane", daemon=True)
        self._client = client
        self._arrivals = arrivals
        self._queries = queries
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
                self._client.search(query, limit=WALL_LIMIT)
            except Exception:
                # A lane must keep its schedule; the point counts it.
                self.errors += 1
                continue
            done = self._clock.time() - self._epoch
            self.latencies.append(done - intended)
            self.completions.append(done)


def _counters(deployment) -> tuple:
    """(request ecalls, scheduler batches, scheduled records, server
    sheds) so far.

    Replicas share the deployment's registry, and the cycle counter
    stores its counts there, so one replica's boundary snapshot already
    covers the whole deployment: read it once.
    """
    counts = deployment.proxy.enclave.boundary_snapshot().ecall_counts
    registry = deployment.registry
    return (counts.get(REQUEST_ECALL, 0),
            registry.counter("scheduler.batches").value,
            registry.counter("scheduler.submitted").value,
            registry.counter("server.sheds").value)


def run_wall(topology, *, rates, duration_seconds: float,
             lanes: int = 16,
             engine_latency: float = WALL_ENGINE_LATENCY) -> LoadResult:
    """Measured saturation sweep against the live concurrent pipeline:
    ``topology``'s deployment over a paced engine, driven by ``lanes``
    concurrent client sessions on an open-loop schedule.  Wall-clock
    numbers: recorded, not pinned."""
    clock = SystemClock()
    engine = PacedEngine(
        SearchEngine.with_synthetic_corpus(seed=WALL_SEED),
        latency=engine_latency, clock=clock,
    )
    points = []
    with XSearchDeployment.create(
        config=topology.config(), engine=engine,
        recorder=NullRecorder(), registry=MetricsRegistry(),
    ) as deployment, topology.lanes(deployment, lanes) as clients:
        shape = topology.shape(deployment, lanes)
        for rate in rates:
            arrivals = _arrivals(rate, duration_seconds, WALL_SEED)
            queries = _query_pool(len(arrivals), WALL_SEED)
            before = _counters(deployment)
            epoch = clock.time()
            lane_objs = [
                _Lane(client, arrivals[i::lanes], queries[i::lanes],
                      clock, epoch)
                for i, client in enumerate(clients)
                if i < len(arrivals)
            ]
            for lane in lane_objs:
                lane.start()
            for lane in lane_objs:
                lane.join()
            ecalls, batches, records, sheds = (
                now - then for now, then in zip(_counters(deployment), before))
            points.append(_point(
                rate,
                [t for lane in lane_objs for t in lane.latencies],
                [t for lane in lane_objs for t in lane.completions],
                errors=sum(lane.errors for lane in lane_objs),
                sheds=sheds,
                ecalls=ecalls,
                mean_batch_size=records / batches if batches else 0.0,
                batch_histogram={},
            ))
    # Wall-clock runs jitter; a slightly looser keep-up bound than the
    # simulated sweeps keeps the knee estimate stable across machines.
    return LoadResult(
        mode=topology.mode_prefix + "wall",
        shape=shape,
        points=points,
        saturation_rps=saturation_rate(points, keep_up_fraction=0.9),
    )


def format_table(result: LoadResult) -> str:
    shape = ", ".join(f"{key} {value}"
                      for key, value in result.shape.items())
    lines = [
        f"measured Figure 5 — {result.mode} mode, {shape}; knee at "
        f"{result.saturation_rps:,.0f} req/s, peak "
        f"{result.peak_rps:,.1f} req/s",
        "  offered req/s   achieved req/s   p50 (ms)   p99 (ms)"
        "   ecalls/req   mean batch   errors   sheds",
    ]
    for point in result.points:
        lines.append(
            f"  {point.offered_rps:>13,.0f}   {point.achieved_rps:>14,.1f}"
            f"   {point.p50_latency * 1e3:>8.2f}"
            f"   {point.p99_latency * 1e3:>8.2f}"
            f"   {point.ecalls_per_request:>10.3f}"
            f"   {point.mean_batch_size:>10.2f}"
            f"   {point.errors:>6}"
            f"   {point.sheds:>5}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The benchmark smoke run, as data
# ----------------------------------------------------------------------
FIG5_PATH = "BENCH_fig5.json"
AVAILABILITY_PATH = "BENCH_fig5_availability.json"

WALL_RATES = (15, 30, 60, 120, 240, 420)
#: The cluster grid jumps 60 → 240: a crossing runs its engine legs one
#: after another, so one replica's engine pacing bounds it at
#: ``workers / engine_latency = 50`` req/s and its knee lands below 60
#: on any machine, while four replicas' 200 req/s pacing bound sets
#: their peak — the scale-out capacity the scaling gate compares.
CLUSTER_RATES = (15, 30, 60, 240, 420)


@dataclass(frozen=True)
class Sweep:
    """A bench row: one load sweep."""

    name: str
    topology: object
    mode: str = "wall"
    rates: tuple = WALL_RATES
    duration_seconds: float = 0.4
    report = staticmethod(format_table)

    def run(self) -> LoadResult:
        sweep = run_virtual if self.mode == "virtual" else run_wall
        return sweep(self.topology, rates=self.rates,
                     duration_seconds=self.duration_seconds)


@dataclass(frozen=True)
class Run:
    """A bench row around one of the availability runs."""

    name: str
    run: Callable
    report: Callable


def _profiled_faults():
    """The fault-availability run, traced end to end."""
    with ProfileSession("fig5_availability") as session:
        result = fig5_availability.run(**fig5_availability.FAST)
    result.observability = session.digest
    return result


@dataclass(frozen=True)
class Gate:
    """A bench acceptance check: ``measure(results) op threshold``."""

    name: str
    measure: Callable
    op: str
    threshold: object


_OPS = {">=": operator.ge, "<": operator.lt, "==": operator.eq}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else float("inf")


#: Every row ``bench`` runs.  A row named ``section.key`` lands in
#: ``BENCH_fig5.json[section][key]``; the ``availability`` row is the
#: whole of ``BENCH_fig5_availability.json``.
BENCH = (
    Sweep("scheduler.workers_1", InProcess(1)),
    Sweep("scheduler.workers_4", InProcess(4)),
    Sweep("cluster.replicas_1", Cluster(1), rates=CLUSTER_RATES),
    Sweep("cluster.replicas_2", Cluster(2), rates=CLUSTER_RATES),
    Sweep("cluster.replicas_4", Cluster(4), rates=CLUSTER_RATES),
    Run("cluster.availability", fig5_availability.run_kill_one,
        fig5_availability.format_kill_one),
    Sweep("server.wallclock", Server(4)),
    Sweep("server.virtual", Server(4), mode="virtual", rates=(50, 200),
          duration_seconds=0.25),
    Run("availability", _profiled_faults, fig5_availability.format_table),
)

#: The acceptance gates over the rows' results, recorded under the
#: ``gates`` of their section.
GATES = (
    Gate("scheduler.knee_ratio",
         lambda r: _ratio(r["scheduler.workers_4"].saturation_rps,
                          r["scheduler.workers_1"].saturation_rps),
         ">=", 2.0),
    Gate("scheduler.ecalls_per_request_saturated",
         lambda r: r["scheduler.workers_4"].ecalls_per_request_saturated(),
         "<", 1.0),
    # 4 replicas' steady-state throughput against the 1-replica knee.
    Gate("cluster.scaling_ratio",
         lambda r: _ratio(r["cluster.replicas_4"].peak_rps,
                          r["cluster.replicas_1"].saturation_rps),
         ">=", 3.0),
    Gate("cluster.availability",
         lambda r: r["cluster.availability"].availability, ">=", 0.9),
    # The serving layer may cost at most 30% of the in-process knee.
    Gate("server.knee_ratio",
         lambda r: _ratio(r["server.wallclock"].saturation_rps,
                          r["scheduler.workers_4"].saturation_rps),
         ">=", 0.7),
    Gate("server.virtual_invariants_ok",
         lambda r: r["server.virtual"].trace_digest["invariants_ok"],
         "==", True),
    Gate("availability.invariants_ok",
         lambda r: r["availability"].observability["traces"]
         ["invariants_ok"],
         "==", True),
)


def bench() -> list:
    """Run :data:`BENCH`, check :data:`GATES`, write the BENCH files
    into the current directory and return the failed gates' names."""
    results = {}
    sections = {}
    for row in BENCH:
        results[row.name] = result = row.run()
        print(row.report(result), end="\n\n")
        entry = result.summary()
        if isinstance(result, LoadResult) and result.trace_digest:
            entry["digest"] = result.digest()
        section, _, key = row.name.partition(".")
        if key:
            sections.setdefault(section, {})[key] = entry
        else:
            sections[section] = entry
    failed = []
    for gate in GATES:
        value = gate.measure(results)
        ok = _OPS[gate.op](value, gate.threshold)
        section, _, key = gate.name.partition(".")
        sections[section].setdefault("gates", {})[key] = {
            "value": value, "threshold": f"{gate.op} {gate.threshold}",
            "ok": ok,
        }
        print(f"gate {gate.name}: {value} {gate.op} {gate.threshold}"
              f" {'ok' if ok else 'FAILED'}")
        if not ok:
            failed.append(gate.name)
    for section, document in sections.items():
        if section == "availability":
            with open(AVAILABILITY_PATH, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
            attach_digest(FIG5_PATH, document["observability"])
        else:
            attach_digest(FIG5_PATH, document, key=section)
    return failed
