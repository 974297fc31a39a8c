"""Enclave lifecycle and the ecall/ocall execution model.

The paper (§5.3.3) identifies the two SGX performance bottlenecks the
prototype had to engineer around: (i) transitions between trusted and
untrusted mode and (ii) memory pressure against the cache and the EPC.
This runtime makes both explicit and measurable:

* every ecall and ocall is dispatched through :class:`Enclave`, which
  charges mode-transition cycle costs to a :class:`CycleCounter`;
* enclave-private data must live in an :class:`EnclaveMemory`, which meters
  bytes against the :class:`~repro.sgx.epc.EnclavePageCache`;
* the host can only reach code explicitly exported with :func:`ecall`;
  anything else raises, modelling the hardware access checks.

The X-Search proxy (repro.core.proxy) exposes the interface listed in
the paper, with ``request`` batched: ecalls ``init`` and
``request_many`` (the paper's ``request`` is a batch of one); ocalls
``sock_connect``, ``send``, ``recv`` and ``close``.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from dataclasses import dataclass, field, fields, is_dataclass

from repro.errors import EnclaveError, EnclaveLostError
from repro.faults.plan import KIND_CRASH, KIND_PRESSURE, SITE_ECALL, SITE_EPC
from repro.obs.metrics import MetricsRegistry
from repro.sgx.epc import EnclavePageCache
from repro.sgx.measurement import Measurement, measure_code

# Mode-transition costs, order of magnitude from SGX micro-benchmarks on
# Skylake (the paper's i7-6700): ~8k cycles per boundary crossing.
DEFAULT_ECALL_CYCLES = 8_000
DEFAULT_OCALL_CYCLES = 8_300
DEFAULT_CLOCK_HZ = 3.4e9  # i7-6700 boost clock

# Thread Control Structures: SGX fixes at build time how many logical
# threads can be inside an enclave simultaneously.  The X-Search prototype
# "uses multiple threads" (§4.1); 8 TCS matches the i7-6700's 8 hardware
# threads and the worker count of the Figure 5 service model.
DEFAULT_TCS_COUNT = 8

# The security-test boundary log keeps only the newest crossings (with
# their payloads), so a long-running server holds a bounded amount.
BOUNDARY_LOG_CAPACITY = 1024


def ecall(func):
    """Mark an enclave method as an exported entry point (ECALL)."""
    func.__sgx_ecall__ = True
    return func


@dataclass
class CostModel:
    """Cycle costs of crossing the enclave boundary."""

    ecall_cycles: int = DEFAULT_ECALL_CYCLES
    ocall_cycles: int = DEFAULT_OCALL_CYCLES
    clock_hz: float = DEFAULT_CLOCK_HZ


@dataclass(frozen=True)
class BoundarySnapshot:
    """An immutable point-in-time view of the boundary-crossing counters.

    Snapshots subtract, so a benchmark can bracket a workload and assert
    on the *delta* — e.g. "ocalls per search request" — instead of on
    absolute counts polluted by setup traffic::

        before = enclave.counter.snapshot()
        run_workload()
        delta = enclave.counter.snapshot() - before
        assert delta.ocall_counts.get("sock_connect", 0) == 0
    """

    cycles: int = 0
    ecalls: int = 0
    ocalls: int = 0
    ecall_counts: dict = field(default_factory=dict)
    ocall_counts: dict = field(default_factory=dict)

    def __sub__(self, other: "BoundarySnapshot") -> "BoundarySnapshot":
        return BoundarySnapshot(
            cycles=self.cycles - other.cycles,
            ecalls=self.ecalls - other.ecalls,
            ocalls=self.ocalls - other.ocalls,
            ecall_counts=_dict_delta(self.ecall_counts, other.ecall_counts),
            ocall_counts=_dict_delta(self.ocall_counts, other.ocall_counts),
        )

    @property
    def transitions(self) -> int:
        """Total boundary crossings in either direction."""
        return self.ecalls + self.ocalls


def _dict_delta(new: dict, old: dict) -> dict:
    delta = {}
    for name in set(new) | set(old):
        diff = new.get(name, 0) - old.get(name, 0)
        if diff:
            delta[name] = diff
    return delta


class CycleCounter:
    """Accumulates simulated cycles spent inside the SGX machinery.

    Besides the aggregate ``ecalls``/``ocalls`` totals it keeps per-name
    counts (``{"sock_connect": 3, "recv": 7, ...}``) so experiments can
    attribute transition costs to individual boundary calls.

    The storage is a :class:`~repro.obs.metrics.MetricsRegistry` — the
    boundary accounting and the observability plane are the same
    numbers, registered under ``sgx.boundary.*`` / ``sgx.ecall.<name>``
    / ``sgx.ocall.<name>`` — while this class keeps the facade the
    benchmarks and experiments have always asserted against
    (``counter.ecalls``, ``counter.ocall_counts``, ``snapshot()``).
    Concurrent ecalls (submitters crossing through the request
    scheduler, each on its own thread) may call
    :meth:`charge`/:meth:`record` simultaneously, so the per-name caches
    and the multi-field reads of :meth:`snapshot` are guarded by the
    counter's own ``_lock`` — the individual :class:`Counter`
    increments are already atomic, but dict growth racing snapshot
    iteration, and snapshots tearing between the aggregate and
    per-name reads, are not.
    """

    def __init__(self, registry: MetricsRegistry = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._cycles = self.registry.counter("sgx.boundary.cycles")
        self._ecalls = self.registry.counter("sgx.boundary.ecalls")
        self._ocalls = self.registry.counter("sgx.boundary.ocalls")
        # name -> Counter caches so the hot path never re-enters the
        # registry lock after an instrument exists.
        self._ecall_named = {}
        self._ocall_named = {}
        self._lock = threading.Lock()

    @property
    def cycles(self) -> int:
        return self._cycles.value

    @property
    def ecalls(self) -> int:
        return self._ecalls.value

    @property
    def ocalls(self) -> int:
        return self._ocalls.value

    @property
    def ecall_counts(self) -> dict:
        with self._lock:
            return self._counts_locked(self._ecall_named)

    @property
    def ocall_counts(self) -> dict:
        with self._lock:
            return self._counts_locked(self._ocall_named)

    def _counts_locked(self, named: dict) -> dict:
        return {name: c.value for name, c in named.items() if c.value}

    def charge(self, cycles: int) -> None:
        self._cycles.inc(cycles)

    def record(self, direction: str, name: str, cycles: int) -> None:
        """Charge one boundary crossing and attribute it by name."""
        with self._lock:
            self._cycles.inc(cycles)
            if direction == "ecall":
                self._ecalls.inc()
                named, prefix = self._ecall_named, "sgx.ecall."
            else:
                self._ocalls.inc()
                named, prefix = self._ocall_named, "sgx.ocall."
            counter = named.get(name)
            if counter is None:
                counter = self.registry.counter(prefix + name)
                named[name] = counter
            counter.inc()

    def snapshot(self) -> BoundarySnapshot:
        """A frozen copy of all counters, safe to keep and subtract.

        Taken under the lock so a crossing recorded on another worker
        thread is either entirely in the snapshot or entirely out —
        the aggregate totals and per-name attributions never tear."""
        with self._lock:
            return BoundarySnapshot(
                cycles=self._cycles.value,
                ecalls=self._ecalls.value,
                ocalls=self._ocalls.value,
                ecall_counts=self._counts_locked(self._ecall_named),
                ocall_counts=self._counts_locked(self._ocall_named),
            )


@dataclass
class BoundaryRecord:
    """One observed boundary crossing, recorded for security tests.

    ``payload`` captures the bytes that crossed the trusted/untrusted
    boundary so tests can assert that plaintext queries never leave the
    enclave unencrypted.
    """

    direction: str  # "ecall" or "ocall"
    name: str
    payload: bytes


def _boundary_bytes(args):
    """All byte strings crossing the boundary, including those nested one
    level inside sequences (e.g. the record list of a batched ecall)."""
    for arg in args:
        if isinstance(arg, (bytes, bytearray)):
            yield bytes(arg)
        elif isinstance(arg, (list, tuple)):
            for item in arg:
                if isinstance(item, (bytes, bytearray)):
                    yield bytes(item)
                elif isinstance(item, (list, tuple)):
                    for inner in item:
                        if isinstance(inner, (bytes, bytearray)):
                            yield bytes(inner)


class OcallTable:
    """Host-side services the enclave may call out to.

    Register plain callables under a name; enclave code reaches them via
    ``self.ocalls.<name>(...)``.  Every invocation is charged a transition
    cost and its byte payloads are recorded at the boundary.
    """

    def __init__(self):
        self._handlers = {}

    def register(self, name: str, handler) -> None:
        if not callable(handler):
            raise EnclaveError(f"ocall handler {name!r} is not callable")
        self._handlers[name] = handler

    def _invoke(self, name: str, *args, **kwargs):
        if name not in self._handlers:
            raise EnclaveError(f"undefined ocall {name!r}")
        return self._handlers[name](*args, **kwargs)


class _OcallProxy:
    """The view of the :class:`OcallTable` handed to enclave code."""

    def __init__(self, table: OcallTable, enclave: "Enclave"):
        self._table = table
        self._enclave = enclave

    def __getattr__(self, name: str):
        table = object.__getattribute__(self, "_table")
        enclave = object.__getattribute__(self, "_enclave")

        def call(*args, **kwargs):
            enclave._on_boundary("ocall", name, args)
            recorder = enclave.recorder
            if recorder is None:
                return table._invoke(name, *args, **kwargs)
            # Ocall spans are host-placed (the transition surfaces into
            # untrusted code) and record payload *sizes* only — the
            # bytes themselves never enter the trace (trace-privacy
            # rule; see repro.obs.checker).
            with recorder.span(
                f"ocall.{name}", placement="host",
                payload_bytes=sum(
                    len(chunk) for chunk in _boundary_bytes(args)
                ),
            ):
                return table._invoke(name, *args, **kwargs)

        call.__name__ = name
        return call


class EnclaveMemory:
    """Byte-metered object store backing the enclave's protected heap.

    Enclave code stores Python objects under string keys with an explicit
    byte size (measured with :func:`estimate_size` when omitted).  The sizes
    are charged to the EPC model so Figure 6 falls out of real accounting.
    """

    def __init__(self, epc: EnclavePageCache):
        self._epc = epc
        self._objects = {}
        self._handles = {}
        self._sizes = {}

    def store(self, key: str, obj, nbytes: int = None) -> None:
        if nbytes is None:
            nbytes = estimate_size(obj)
        if key in self._objects:
            self._epc.resize(self._handles[key], nbytes)
        else:
            self._handles[key] = self._epc.allocate(nbytes)
        self._objects[key] = obj
        self._sizes[key] = nbytes

    def load(self, key: str):
        if key not in self._objects:
            raise EnclaveError(f"no enclave object under key {key!r}")
        self._epc.touch(self._handles[key])
        return self._objects[key]

    def delete(self, key: str) -> None:
        if key not in self._objects:
            raise EnclaveError(f"no enclave object under key {key!r}")
        self._epc.free(self._handles.pop(key))
        del self._objects[key]
        del self._sizes[key]

    def size_of(self, key: str) -> int:
        return self._sizes[key]

    @property
    def occupancy_bytes(self) -> int:
        return self._epc.occupancy_bytes

    def __contains__(self, key: str) -> bool:
        return key in self._objects


def estimate_size(obj) -> int:
    """Deep byte-size estimate of a Python object graph.

    Follows lists/tuples/sets/dicts and dataclass instances (their
    fields) one level at a time with cycle protection.  Good enough to
    meter query strings, result pages and index structures.
    """
    seen = set()
    total = 0
    stack = [obj]
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        total += sys.getsizeof(current)
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
        elif isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
        elif is_dataclass(current) and not isinstance(current, type):
            stack.extend(getattr(current, f.name) for f in fields(current))
    return total


class Enclave:
    """A loaded SGX enclave instance.

    Parameters
    ----------
    enclave_class:
        The trusted code: a class whose exported methods are decorated with
        :func:`ecall`.  Its constructor receives ``(memory, ocalls)`` plus
        any ``init_args``.
    config:
        Launch configuration folded into the measurement.
    ocalls:
        The host services available to the trusted code.
    """

    def __init__(self, enclave_class: type, *, config: bytes = b"",
                 ocalls: OcallTable = None, epc: EnclavePageCache = None,
                 cost_model: CostModel = None, sealing_platform=None,
                 tcs_count: int = DEFAULT_TCS_COUNT, fault_plan=None,
                 recorder=None, registry: MetricsRegistry = None):
        if tcs_count <= 0:
            raise EnclaveError("an enclave needs at least one TCS")
        self._enclave_class = enclave_class
        self._config = config
        self._ocall_table = ocalls if ocalls is not None else OcallTable()
        self.epc = epc if epc is not None else EnclavePageCache()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.counter = CycleCounter(registry=registry)
        # The boundary accounting and the metrics plane share storage;
        # EPC occupancy is a live gauge computed on read so Figure 6
        # digests never go stale.
        self.registry = self.counter.registry
        self.registry.gauge("sgx.epc.occupancy_bytes").set_function(
            lambda: self.epc.occupancy_bytes
        )
        self.registry.gauge("sgx.epc.resident_pages").set_function(
            lambda: self.epc.stats.resident_pages
        )
        # Tracing plane (repro.obs); None = no recorder installed, and
        # every dispatch path below stays exactly as cheap as before.
        self.recorder = recorder
        self.measurement: Measurement = measure_code(enclave_class, config)
        self.memory = EnclaveMemory(self.epc)
        self._sealing_platform = sealing_platform
        # Fault-injection plane (repro.faults); None = nothing installed,
        # and the dispatch paths below stay exactly as cheap as before.
        self.fault_plan = fault_plan
        # Concurrent ecalls are bounded by the number of TCS pages: excess
        # callers block at the enclave boundary, exactly as on hardware.
        self.tcs_count = tcs_count
        self._tcs = threading.BoundedSemaphore(tcs_count)
        self._concurrency_lock = threading.Lock()
        self._threads_inside = 0
        self.max_threads_inside = 0
        self._instance = None
        self._initialized = False
        self._destroyed = False
        self._boundary_log = deque(maxlen=BOUNDARY_LOG_CAPACITY)
        self._ecall_names = {
            name
            for name in dir(enclave_class)
            if getattr(getattr(enclave_class, name), "__sgx_ecall__", False)
        }
        if not self._ecall_names:
            raise EnclaveError(
                f"{enclave_class.__name__} exports no ecalls; an enclave "
                "without entry points cannot be used"
            )

    # ------------------------------------------------------------------
    # Lifecycle (ECREATE / EINIT / destruction)
    # ------------------------------------------------------------------
    def initialize(self, *init_args, **init_kwargs) -> None:
        """EINIT: construct the trusted instance; measurement is now final."""
        if self._destroyed:
            raise EnclaveError("enclave has been destroyed")
        if self._initialized:
            raise EnclaveError("enclave is already initialized")
        proxy = _OcallProxy(self._ocall_table, self)
        self._instance = self._enclave_class(
            self.memory, proxy, *init_args, **init_kwargs
        )
        # EGETKEY analogue: hand trusted code a sealer bound to this
        # enclave's measurement — the host has no say in the binding.
        if (self._sealing_platform is not None
                and hasattr(self._instance, "attach_sealer")):
            from repro.sgx.sealing import EnclaveSealer

            self._instance.attach_sealer(
                EnclaveSealer(self._sealing_platform, self.measurement)
            )
        # Trusted code may emit enclave-placed spans on the same
        # recorder; host code never sees the attribute values it records.
        if (self.recorder is not None
                and hasattr(self._instance, "attach_recorder")):
            self._instance.attach_recorder(self.recorder)
        self._initialized = True

    def destroy(self) -> None:
        """Tear the enclave down; all enclave memory becomes inaccessible."""
        # Mark it destroyed first: a caller that then finds it
        # uninitialized or without an instance knows it was lost.
        self._destroyed = True
        self._instance = None
        self._initialized = False

    @property
    def is_initialized(self) -> bool:
        return self._initialized and not self._destroyed

    # ------------------------------------------------------------------
    # ECALL dispatch
    # ------------------------------------------------------------------
    def call(self, name: str, *args, **kwargs):
        """Invoke an exported ecall, charging the mode-transition cost."""
        if self._destroyed:
            # EnclaveLostError (a transient) rather than a bare
            # EnclaveError: a destroyed enclave is exactly the condition
            # the host supervisor and broker recover from by respawning
            # and re-attesting.
            raise EnclaveLostError("enclave has been destroyed")
        if not self._initialized:
            if self._destroyed:  # destroyed since the check above
                raise EnclaveLostError("enclave has been destroyed")
            raise EnclaveError("enclave is not initialized (EINIT missing)")
        if name not in self._ecall_names:
            raise EnclaveError(
                f"{name!r} is not an exported ecall of "
                f"{self._enclave_class.__name__}"
            )
        recorder = self.recorder
        if recorder is None:
            return self._dispatch(name, args, kwargs)
        with recorder.span(
            f"ecall.{name}", placement="host",
            payload_bytes=sum(len(chunk) for chunk in _boundary_bytes(args)),
        ):
            return self._dispatch(name, args, kwargs)

    def _dispatch(self, name: str, args, kwargs):
        if self.fault_plan is not None:
            self._inject_ecall_faults(name)
        with self._tcs:  # blocks when all TCS are occupied
            # A crash on another entry may have destroyed the enclave
            # while this caller waited for a TCS: it never gets in.
            instance = self._instance
            if instance is None:
                raise EnclaveLostError(
                    f"enclave was destroyed before ecall {name!r} entered"
                )
            with self._concurrency_lock:
                self._threads_inside += 1
                self.max_threads_inside = max(
                    self.max_threads_inside, self._threads_inside
                )
            try:
                self._on_boundary("ecall", name, args)
                return getattr(instance, name)(*args, **kwargs)
            finally:
                with self._concurrency_lock:
                    self._threads_inside -= 1

    def _inject_ecall_faults(self, name: str) -> None:
        """Consult the fault plan at the enclave-entry sites.

        A ``crash`` kills the enclave *before* the transition is charged
        (the dying call never completes); all enclave-resident state —
        sessions, channel keys, the un-checkpointed history tail — is
        lost, exactly as on a real AEX-and-teardown.  A ``pressure``
        fault models a competing workload claiming the EPC: the resident
        set is swapped out and the call proceeds, paying fault-back-in
        costs for whatever it touches.
        """
        fault = self.fault_plan.decide(SITE_ECALL)
        if fault is not None and fault.kind == KIND_CRASH:
            self.destroy()
            raise EnclaveLostError(
                f"enclave crashed entering ecall {name!r}"
                + (f" ({fault.detail})" if fault.detail else "")
            )
        pressure = self.fault_plan.decide(SITE_EPC)
        if pressure is not None and pressure.kind == KIND_PRESSURE:
            self.epc.pressure_spike()

    def _on_boundary(self, direction: str, name: str, args) -> None:
        cycles = (
            self.cost_model.ecall_cycles
            if direction == "ecall"
            else self.cost_model.ocall_cycles
        )
        payload = b"".join(_boundary_bytes(args))
        with self._concurrency_lock:
            self.counter.record(direction, name, cycles)
            self._boundary_log.append(BoundaryRecord(direction, name, payload))

    def boundary_snapshot(self) -> "BoundarySnapshot":
        """Frozen view of the transition counters (see CycleCounter)."""
        with self._concurrency_lock:
            return self.counter.snapshot()

    # ------------------------------------------------------------------
    # Security-test instrumentation
    # ------------------------------------------------------------------
    @property
    def boundary_log(self):
        """The most recent :data:`BOUNDARY_LOG_CAPACITY` boundary crossings,
        oldest first, with the byte payloads that crossed."""
        with self._concurrency_lock:
            return tuple(self._boundary_log)

    def transition_seconds(self) -> float:
        """Simulated wall time spent on transitions and paging."""
        total_cycles = self.counter.cycles + self.epc.stats.swap_cycles
        return total_cycles / self.cost_model.clock_hz
