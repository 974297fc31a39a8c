"""Stand a deployment up, drive it, and measure it.

One run: generate the inputs from the seed, set the system up several
times (timing each stage; the last set-up is the one measured), drive
the phases, tear everything down, then run the output check on a fresh
fixed-seed deployment.

Phases (all clients are closed- or open-loop threads of this process):

* untraced (``--trace 0``): rounds of a closed loop for ``tput_rps``,
  an open loop at the workload's fixed Poisson rate for ``p50_ms`` (and
  the ``p95_ms`` diagnostic), and a closed ingest loop for ``ingest_qps``;
* traced (``--trace 1``): rounds of an untraced closed loop followed by
  the same closed loop with the :class:`ledger.Ledger` armed — the
  per-layer ledger, and ``trace.overhead`` from the two throughputs.
"""

from __future__ import annotations

import random
import resource
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter, process_time, sleep

from repro.core.broker import Broker
from repro.core.client import XSearchClient
from repro.core.deployment import (
    DEFAULT_ATTESTATION_KEY_BITS,
    DeploymentConfig,
    XSearchDeployment,
)
from repro.errors import ReproError
from repro.netserve.client import RemoteClient
from repro.netserve.server import XSearchServer
from repro.obs.metrics import MetricsRegistry
from repro.search.engine import SearchEngine
from repro.sgx.attestation import AttestationService, QuotingEnclave

import check
import ledger as L
import metrics
from workloads import CLIENTS, INGEST, MAX_WORKERS, SEARCH, make_inputs

#: The synthetic web the engine indexes is part of the system under
#: test, not of the workload: one fixed corpus for every seed.
CORPUS_SEED = 0

#: Shares of ``--seconds`` given to the closed-loop and ingest phases;
#: the open loop gets the rest.
CLOSED_SHARE = 0.16
INGEST_SHARE = 0.08
#: Rounds of (closed, open, ingest) phases in an untraced run.
ROUNDS = 4
#: Untraced/traced segment pairs of a traced run.
TRACE_ROUNDS = 3
#: Thread join timeout once a phase's deadline has passed.
JOIN_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class BenchClient:
    """One attested client session (``XSearchClient`` or
    ``RemoteClient``), its broker and, over TCP, its transport."""

    client: object
    broker: Broker
    transport: object = None


@dataclass
class Stack:
    """A stood-up deployment, its optional server and its clients."""

    deployment: XSearchDeployment
    registry: MetricsRegistry
    server: XSearchServer = None
    clients: list = field(default_factory=list)

    def close(self) -> None:
        for client in self.clients:
            if client.transport is not None:
                client.client.close()
        if self.server is not None:
            self.server.close()
        self.deployment.close()


def attestation_pair(seed: int) -> tuple:
    """Attestation service + quoting enclave with keys seeded by ``seed``
    (unseeded RSA keygen time varies several-fold between builds)."""
    rng = random.Random(seed)
    service = AttestationService(DEFAULT_ATTESTATION_KEY_BITS, rng=rng)
    quoting = QuotingEnclave(DEFAULT_ATTESTATION_KEY_BITS, rng=rng)
    service.provision_platform(quoting)
    return service, quoting


def deploy(workload, seed: int, *, engine, attestation) -> Stack:
    registry = MetricsRegistry()
    config = DeploymentConfig(
        k=workload.k,
        history_capacity=workload.history_capacity,
        seed=seed,
        max_workers=MAX_WORKERS,
    )
    deployment = XSearchDeployment.create(
        config=config, engine=engine, attestation=attestation,
        registry=registry,
    )
    return Stack(deployment=deployment, registry=registry)


def connect_clients(stack: Stack, workload, count: int) -> None:
    """Start the server (remote workloads) and attest ``count`` clients."""
    deployment = stack.deployment
    trust = dict(
        service_public_key=deployment.attestation_service.public_key,
        expected_measurement=deployment.proxy.measurement,
    )
    if workload.remote:
        stack.server = XSearchServer(deployment).start()
    for index in range(count):
        user = f"bench-{index}"
        if workload.remote:
            remote = RemoteClient(stack.server.address, user_id=user,
                                  registry=stack.registry, **trust)
            stack.clients.append(BenchClient(
                client=remote, broker=remote.broker,
                transport=remote.transport))
        else:
            broker = Broker(deployment.frontend, registry=stack.registry,
                            **trust)
            broker.connect()
            stack.clients.append(BenchClient(
                client=XSearchClient(broker, user_id=user), broker=broker))


def stand_up(workload, seed: int, inputs) -> tuple:
    """One timed set-up, up to the first timed request.

    Returns ``(stack, stage_seconds)``.
    """
    stages = {}
    start = perf_counter()
    engine = SearchEngine.with_synthetic_corpus(seed=CORPUS_SEED)
    stages["engine_s"] = perf_counter() - start
    mark = perf_counter()
    attestation = attestation_pair(seed)
    stages["attest_s"] = perf_counter() - mark
    mark = perf_counter()
    stack = deploy(workload, seed, engine=engine, attestation=attestation)
    stages["deploy_s"] = perf_counter() - mark
    mark = perf_counter()
    connect_clients(stack, workload, CLIENTS)
    stages["sessions_s"] = perf_counter() - mark
    mark = perf_counter()
    acked = stack.deployment.warm_history(inputs.warm)
    stages["warm_s"] = perf_counter() - mark
    stages["total_s"] = perf_counter() - start
    if acked != len(inputs.warm):
        stack.close()
        raise check.OutputMismatch(
            f"warm-up ingest acknowledged {acked} of {len(inputs.warm)}")
    return stack, stages


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
class Tally:
    """Thread-safe outcome counts of one run."""

    def __init__(self):
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.invalid = []

    def record(self, *, failed: bool = False, problem: str = None) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += failed
            if problem is not None and len(self.invalid) < 10:
                self.invalid.append(problem)


class Feed:
    """A shared, lock-protected iterator over one input stream."""

    def __init__(self, iterator):
        self._iterator = iterator
        self._lock = threading.Lock()

    def next(self):
        with self._lock:
            return next(self._iterator)


def search_op(client: BenchClient, queries: Feed, limit: int,
              tally: Tally) -> int:
    """One search with its reply validated; returns 1 when it succeeded."""
    query = queries.next()
    try:
        results = client.client.search(query, limit=limit)
    except ReproError:
        tally.record(failed=True)
        return 0
    problem = None
    if len(results) > limit:
        problem = f"{len(results)} results for limit {limit}"
    elif client.client.last_degraded:
        problem = "degraded reply"
    tally.record(problem=problem)
    return 1


def ingest_op(client: BenchClient, batches: Feed, tally: Tally) -> int:
    """One ingest batch; returns the number of queries acknowledged."""
    batch = batches.next()
    try:
        acked = client.broker.ingest(batch)
    except ReproError:
        tally.record(failed=True)
        return 0
    problem = None
    if acked != len(batch):
        problem = f"ingest of {len(batch)} acknowledged as {acked}"
    tally.record(problem=problem)
    return acked


def run_threads(targets) -> None:
    threads = [threading.Thread(target=target, daemon=True)
               for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load-generator thread did not finish")


@dataclass
class Counts:
    """What one phase completed."""

    searches: int = 0
    ingests: int = 0
    ingested: int = 0
    elapsed: float = 0.0

    @property
    def requests(self) -> int:
        return self.searches + self.ingests

    def add(self, kind: str, units: int) -> None:
        if kind == SEARCH:
            self.searches += units
        elif units:
            self.ingests += 1
            self.ingested += units

    def merge(self, other: "Counts") -> None:
        self.searches += other.searches
        self.ingests += other.ingests
        self.ingested += other.ingested
        self.elapsed += other.elapsed


@dataclass
class Drive:
    """The requests one workload's clients send, over one stack."""

    workload: object
    stack: Stack
    searches: Feed
    batches: Feed
    tally: Tally = field(default_factory=Tally)

    def send(self, client: int, kind: str) -> int:
        """One request of ``kind`` from client ``client``; returns the
        searches (1) or queries ingested it completed."""
        if kind == SEARCH:
            return search_op(self.stack.clients[client], self.searches,
                             self.workload.limit, self.tally)
        return ingest_op(self.stack.clients[client], self.batches,
                         self.tally)

    def closed(self, seconds: float, kinds=None) -> Counts:
        """Every client sends its next request when the reply arrives,
        cycling through ``kinds`` (default: the workload's mix) until
        the deadline.  Elapsed time runs to the last completion, so
        the final in-flight requests count fully."""
        kinds = kinds or self.workload.mix
        counts = [Counts() for _ in self.stack.clients]
        start = perf_counter()
        finished = [start] * len(counts)
        deadline = start + seconds

        def loop(client):
            sent = 0
            while perf_counter() < deadline:
                kind = kinds[sent % len(kinds)]
                counts[client].add(kind, self.send(client, kind))
                sent += 1
                finished[client] = perf_counter()

        run_threads([lambda c=c: loop(c) for c in range(len(counts))])
        total = Counts(elapsed=max(max(finished) - start, 1e-9))
        for count in counts:
            total.merge(count)
        return total

    def open(self, arrivals) -> tuple:
        """Send ``(kind, offset)`` arrivals at their offsets from now,
        each from whichever client is free.  Search latency runs from
        the scheduled arrival, so a stall delays the requests behind it.
        Returns ``(search latencies, generator lags)``; a lag is how
        late a request was sent."""
        latencies = []
        lags = []
        cursor = [0]
        lock = threading.Lock()
        start = perf_counter()

        def serve(client):
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(arrivals):
                    return
                kind, offset = arrivals[index]
                due = start + offset
                wait = due - perf_counter()
                if wait > 0:
                    sleep(wait)
                sent = perf_counter()
                done = self.send(client, kind)
                finished = perf_counter()
                with lock:
                    lags.append(sent - due)
                    if kind == SEARCH and done:
                        latencies.append(finished - due)

        run_threads([lambda c=c: serve(c)
                     for c in range(len(self.stack.clients))])
        return latencies, lags


def arrival_rounds(workload, seconds: float, rounds: int) -> list:
    """The open loop's Poisson arrivals at the workload's fixed search
    rate (mixed workloads interleave one ingest arrival per search),
    cut into ``rounds`` consecutive slices, each rebased to start at 0.

    The schedule is part of the workload, not of the seed: every run
    replays the same one.
    """
    kinds = workload.mix
    rate = workload.open_rate * len(kinds)
    rng = random.Random(f"{workload.name}/arrivals")
    count = max(len(kinds) * rounds, round(rate * seconds))
    gaps = [rng.expovariate(rate) for _ in range(count)]
    slices = []
    for r in range(rounds):
        lo, hi = count * r // rounds, count * (r + 1) // rounds
        at = 0.0
        arrivals = []
        for index in range(lo, hi):
            at += gaps[index]
            arrivals.append((kinds[index % len(kinds)], at))
        slices.append(arrivals)
    return slices


def start_run(workload, seed: int, setups: int):
    """Inputs plus ``setups`` timed set-ups; returns the stage timings
    and a :class:`Drive` over the last set-up's stack."""
    inputs = make_inputs(seed)
    stages = []
    stack = None
    for _ in range(setups):
        if stack is not None:
            stack.close()
        stack, timing = stand_up(workload, seed, inputs)
        stages.append(timing)
    drive = Drive(workload=workload, stack=stack,
                  searches=Feed(inputs.searches()),
                  batches=Feed(inputs.ingest_batches()))
    return stages, drive


def finish_run(workload, drive: Drive) -> list:
    """Tear the measured stack down and run the output check; returns
    every problem found."""
    deployment = drive.stack.deployment
    attestation = (deployment.attestation_service,
                   deployment.quoting_enclave)
    drive.stack.close()
    digest, problems = check.output_digest(
        workload, engine=deployment.engine, attestation=attestation)
    expected = check.expected_digest(workload.name)
    if digest != expected:
        problems.append(
            f"results digest {digest[:16]}… != recorded {expected[:16]}…")
    return problems + drive.tally.invalid


def run_untraced(workload, seed: int, seconds: float, setups: int) -> dict:
    stages, drive = start_run(workload, seed, setups)
    closed, ingest = Counts(), Counts()
    latencies, lags = [], []
    open_slices = arrival_rounds(
        workload, seconds * (1.0 - CLOSED_SHARE - INGEST_SHARE), ROUNDS)
    try:
        # Phases interleave in rounds so each metric samples the whole
        # run, not one stretch of a machine whose speed drifts.
        for arrivals in open_slices:
            closed.merge(drive.closed(seconds * CLOSED_SHARE / ROUNDS))
            slice_latencies, slice_lags = drive.open(arrivals)
            latencies += slice_latencies
            lags += slice_lags
            ingest.merge(drive.closed(seconds * INGEST_SHARE / ROUNDS,
                                      kinds=(INGEST,)))
    except BaseException:
        drive.stack.close()
        raise
    problems = finish_run(workload, drive)
    values = {
        "tput_rps": closed.searches / closed.elapsed,
        "p50_ms": 1000.0 * statistics.median(latencies),
        "ingest_qps": ingest.ingested / ingest.elapsed,
        "setup_s": statistics.median(s["total_s"] for s in stages),
        "peak_rss_mb": peak_rss_mb(),
    }
    # p95 is reported but not declared: on the shared reference box its
    # run-to-run spread exceeds the largest bound a metric may carry.
    diagnostics = {
        "p95_ms": 1000.0 * statistics.quantiles(
            latencies, n=20, method="inclusive")[18],
        "open_loop_searches": len(latencies),
        "gen_lag_ms": 1000.0 * statistics.mean(lags),
        "error_rate": drive.tally.failed / max(drive.tally.attempted, 1),
    }
    return _result(drive.tally, problems, values, metrics.END_TO_END,
                   diagnostics)


def run_traced(workload, seed: int, seconds: float, setups: int) -> dict:
    # Installed before set-up, so references the program captures while
    # wiring itself (the ocall table binds the gateway's methods) are
    # wrappers too; they only record while the ledger is armed.
    ledger = L.Ledger()
    ledger.install()
    untraced, traced = Counts(), Counts()
    counters = {}
    process_cpu = 0.0
    try:
        stages, drive = start_run(workload, seed, setups)
        try:
            # Alternate untraced and traced segments so a drift in the
            # machine's speed weighs on both sides of trace.overhead.
            segment = seconds / (2 * TRACE_ROUNDS)
            for _ in range(TRACE_ROUNDS):
                untraced.merge(drive.closed(segment))
                before = program_counters(drive.stack)
                cpu0 = process_time()
                with ledger.armed():
                    traced.merge(drive.closed(segment))
                process_cpu += process_time() - cpu0
                after = program_counters(drive.stack)
                for name, value in after.items():
                    counters[name] = counters.get(name, 0) + value \
                        - before[name]
            counters["history_entries"] = drive.stack.deployment.proxy \
                .history_integrity()["history"]["entries"]
        except BaseException:
            drive.stack.close()
            raise
    finally:
        ledger.uninstall()
    problems = finish_run(workload, drive)
    totals = ledger.totals()
    values = metrics.setup_metrics(stages)
    values.update(metrics.layer_metrics(
        totals, requests=traced.requests, searches=traced.searches,
        process_cpu=process_cpu, counters=counters))
    values["trace.overhead"] = 1.0 - (traced.requests / traced.elapsed) \
        / (untraced.requests / untraced.elapsed)
    problems.extend(ledger_problems(workload, totals, values))
    return _result(drive.tally, problems, values, metrics.PER_LAYER, {})


def program_counters(stack: Stack) -> dict:
    """Counters the program keeps itself, read between phases."""
    deployment = stack.deployment
    registry = stack.registry
    boundary = deployment.proxy.enclave.boundary_snapshot()
    perf = deployment.proxy.perf_stats()
    return {
        "heals": sum(c.broker.reconnects for c in stack.clients),
        "busy_retries": sum(c.transport.busy_rebuffs for c in stack.clients
                            if c.transport is not None),
        "server_sheds": registry.counter("server.sheds").value,
        "scheduler_submitted": registry.counter("scheduler.submitted").value,
        "scheduler_batches": registry.counter("scheduler.batches").value,
        "scheduler_dedup_hits": registry.counter(
            "scheduler.dedup_hits").value,
        "ecalls": boundary.ecalls,
        "ocalls": boundary.ocalls,
        "modelled_cycles": (boundary.cycles
                            + deployment.proxy.enclave.epc.stats.swap_cycles),
        "cache_hits": perf["cache_hits"],
        "cache_misses": perf["cache_misses"],
        "singleflight_hits": perf["singleflight_hits"],
        "pool_reuses": perf["pool_reuses"],
        "pool_connects": perf["pool_connects"],
    }


def ledger_problems(workload, totals: dict, values: dict) -> list:
    """Layers expected on this workload that recorded no calls, layers
    that must be bypassed but were not, and coverage out of bounds."""
    expected = [L.CLIENT, *L.CRYPTO_LAYERS, L.PROTOCOL, L.SCHEDULER,
                L.HOST, L.ECALL, L.OBFUSCATION, L.HISTORY_ADD,
                L.HISTORY_SAMPLE, L.GATEWAY, L.PARSE, L.ENGINE,
                L.FILTERING]
    remote_only = [L.WIRE, L.TRANSPORT]
    problems = []
    for layer in expected + (remote_only if workload.remote else []):
        if layer not in totals or totals[layer].calls == 0:
            problems.append(f"layer {layer} recorded no calls")
    if not workload.remote:
        for layer in remote_only:
            if layer in totals and totals[layer].calls:
                problems.append(f"layer {layer} ran on an in-process "
                                f"workload")
    low, high = metrics.COVERAGE_BOUNDS
    if not low <= values["trace.coverage"] <= high:
        problems.append(f"trace.coverage {values['trace.coverage']:.3f} "
                        f"outside [{low}, {high}]")
    return problems


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(tally: Tally, problems: list, values: dict, units: dict,
            diagnostics: dict) -> dict:
    return {
        "correct": not problems,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "problems": problems,
        "diagnostics": diagnostics,
    }
