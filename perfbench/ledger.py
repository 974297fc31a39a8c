"""Per-layer ledger timed from outside the program.

While a :class:`Ledger` is installed, the public functions of each layer
are replaced by timing wrappers *where the caller looks them up*: a
function imported by name into ``repro.core.proxy`` is patched there,
not in its defining module, and methods are patched on their class.
``uninstall`` puts every original back.

Each wrapper records, per layer, the call count, wall time
(``perf_counter``) and thread CPU time (``thread_time``).  A per-thread
stack turns those into *self* times: a span's duration minus the part
of it its child spans on the same thread cover, so the layers partition
the traced CPU and ``Σ self CPU / process CPU`` says how much of the
process the ledger explains.  A wrapper re-entered inside a span of its
own layer (``QueryHistory.add`` under ``extend``) only counts the call;
its parent already times it.

Wrappers only record while the ledger is :meth:`~Ledger.armed`;
disarmed, they call straight through.  That lets a run install them
before the program wires itself up (the enclave's ocall table binds the
gateway's methods at spawn time) and still time only the traced phase.
Accumulators are per thread, so the hot path takes no lock; the
tables are merged when the ledger is read.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter, thread_time

from repro.core import protocol
from repro.core import proxy as proxy_module
from repro.core.broker import Broker
from repro.core.client import XSearchClient
from repro.core.gateway import EngineGateway
from repro.core.history import QueryHistory
from repro.core.proxy import XSearchProxyHost
from repro.core.scheduler import RequestScheduler
from repro.crypto import channel
from repro.netserve import wire
from repro.netserve.client import RemoteTransport
from repro.search.engine import SearchEngine
from repro.sgx.runtime import Enclave

#: Request-path ecalls: their wall time is the ``sgx.ecall_ms`` layer.
REQUEST_ECALLS = frozenset({"request", "request_many", "request_batch"})

#: Layer names (the span categories the wrappers record under).
CLIENT = "client"
CRYPTO_CLIENT_SEAL = "crypto.client_seal"
CRYPTO_CLIENT_OPEN = "crypto.client_open"
CRYPTO_ENCLAVE_SEAL = "crypto.enclave_seal"
CRYPTO_ENCLAVE_OPEN = "crypto.enclave_open"
PROTOCOL = "protocol"
WIRE = "wire"
TRANSPORT = "transport"
SCHEDULER = "scheduler"
HOST = "host"
ECALL = "sgx.ecall"
OBFUSCATION = "obfuscation"
HISTORY_ADD = "history.add"
HISTORY_SAMPLE = "history.sample"
GATEWAY = "gateway"
PARSE = "gateway.parse"
ENGINE = "engine"
FILTERING = "filtering"

CRYPTO_LAYERS = (CRYPTO_CLIENT_SEAL, CRYPTO_CLIENT_OPEN,
                 CRYPTO_ENCLAVE_SEAL, CRYPTO_ENCLAVE_OPEN)


class LayerTotals:
    """Merged counts and times of one layer."""

    __slots__ = ("calls", "self_wall", "self_cpu", "extra")

    def __init__(self):
        self.calls = 0
        self.self_wall = 0.0
        self.self_cpu = 0.0
        self.extra = defaultdict(float)

    def merge(self, other: "LayerTotals") -> None:
        self.calls += other.calls
        self.self_wall += other.self_wall
        self.self_cpu += other.self_cpu
        for key, value in other.extra.items():
            self.extra[key] += value


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []      # frames: [layer, child_wall, child_cpu]
        self.table = None    # layer -> LayerTotals, registered on first use


class Ledger:
    """Installs timing wrappers around every layer's public calls."""

    def __init__(self):
        self._state = _ThreadState()
        self._tables = []
        self._tables_lock = threading.Lock()
        self._patches = []
        self._recording = False

    @contextmanager
    def armed(self):
        """Record while the ``with`` block runs."""
        self._recording = True
        try:
            yield self
        finally:
            self._recording = False

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def totals(self) -> dict:
        """Layer name → :class:`LayerTotals`, merged over all threads."""
        merged = defaultdict(LayerTotals)
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for layer, totals in list(table.items()):
                merged[layer].merge(totals)
        return merged

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------
    def install(self) -> None:
        for owner, name, layer, measure in _targets():
            self._patch(owner, name, layer, measure)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, layer, measure) -> None:
        raw = (owner.__dict__[name] if isinstance(owner, type)
               else getattr(owner, name))
        if isinstance(raw, classmethod):
            replacement = classmethod(
                self._timed(raw.__func__, layer, measure))
        else:
            replacement = self._timed(raw, layer, measure)
        self._patches.append((owner, name, raw))
        setattr(owner, name, replacement)

    def _table(self) -> dict:
        state = self._state
        if state.table is None:
            state.table = defaultdict(LayerTotals)
            with self._tables_lock:
                self._tables.append(state.table)
        return state.table

    def _timed(self, func, layer, measure):
        ledger = self
        state = self._state
        table_of = self._table

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not ledger._recording:
                return func(*args, **kwargs)
            stack = state.stack
            name = layer(stack) if callable(layer) else layer
            if stack and stack[-1][0] == name:
                result = func(*args, **kwargs)
                totals = table_of()[name]
                totals.calls += 1
                if measure is not None:
                    _add(totals, measure(args, result, 0.0))
                return result
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            wall0 = perf_counter()
            cpu0 = thread_time()
            try:
                result = func(*args, **kwargs)
            finally:
                cpu = thread_time() - cpu0
                wall = perf_counter() - wall0
                stack.pop()
                totals = table_of()[name]
                totals.calls += 1
                totals.self_wall += wall - frame[1]
                totals.self_cpu += cpu - frame[2]
                if stack:
                    stack[-1][1] += wall
                    stack[-1][2] += cpu
            if measure is not None:
                _add(totals, measure(args, result, wall))
            return result

        return wrapper


def _add(totals: LayerTotals, values) -> None:
    for key, value in values:
        totals.extra[key] += value


# ----------------------------------------------------------------------
# What gets wrapped, and what each wrapper counts besides time
# ----------------------------------------------------------------------
def _inside_enclave(stack) -> bool:
    return any(frame[0] == ECALL for frame in stack)


def _seal_layer(stack) -> str:
    return CRYPTO_ENCLAVE_SEAL if _inside_enclave(stack) else CRYPTO_CLIENT_SEAL


def _open_layer(stack) -> str:
    return CRYPTO_ENCLAVE_OPEN if _inside_enclave(stack) else CRYPTO_CLIENT_OPEN


def _sealed_bytes(args, result, wall):
    return (("sealed_bytes", len(result)),)


def _reply_bytes(args, result, wall):
    return (("reply_bytes", len(result)),)


def _frame_bytes(args, result, wall):
    return (("frame_bytes", len(result)),)


def _search_call(args, result, wall):
    # RemoteTransport.call(self, ftype, payload, expect=...)
    if args[1] == wire.T_SEARCH:
        return (("search_calls", 1), ("search_wall", wall))
    return ()


def _frontend_call(args, result, wall):
    return (("requests", 1), ("wall", wall))


def _ecall(args, result, wall):
    # Enclave.call(self, name, *ecall_args)
    name = args[1]
    if name not in REQUEST_ECALLS:
        return ()
    records = 1 if name == "request" else len(args[2])
    return (("request_wall", wall), ("record_wall", wall * records))


def _page_bytes(args, result, wall):
    return (("page_bytes", len(result)),)


def _subqueries(args, result, wall):
    # SearchEngine.search_or(self, subqueries, limit)
    return (("subqueries", len(args[1])),)


def _filtered(args, result, wall):
    # filter_results(original, fakes, results, ...)
    return (("results_in", len(args[2])), ("results_out", len(result)))


def _targets():
    """(owner, attribute, layer, measure) for every wrapped function."""
    targets = [
        (XSearchClient, "search", CLIENT, None),
        (Broker, "ingest", CLIENT, None),
        (channel, "aead_encrypt", _seal_layer, _sealed_bytes),
        (channel, "aead_decrypt", _open_layer, None),
        (protocol.SearchRequest, "encode", PROTOCOL, None),
        (protocol.SearchRequest, "decode", PROTOCOL, None),
        (protocol.SearchResponse, "encode", PROTOCOL, _reply_bytes),
        (protocol.SearchResponse, "decode", PROTOCOL, None),
        (protocol.IngestRequest, "encode", PROTOCOL, None),
        (protocol.IngestRequest, "decode", PROTOCOL, None),
        (protocol.Ack, "encode", PROTOCOL, None),
        (protocol.Ack, "decode", PROTOCOL, None),
        (proxy_module, "decode_any_request", PROTOCOL, None),
        (wire, "encode_frame", WIRE, _frame_bytes),
        (wire, "read_frame", TRANSPORT, None),
        (RemoteTransport, "call", TRANSPORT, _search_call),
        (RequestScheduler, "request", SCHEDULER, _frontend_call),
        (RequestScheduler, "request_batch", SCHEDULER, _frontend_call),
        (XSearchProxyHost, "request", HOST, None),
        (XSearchProxyHost, "request_batch", HOST, None),
        (XSearchProxyHost, "request_many", HOST, None),
        (Enclave, "call", ECALL, _ecall),
        (proxy_module, "obfuscate_query", OBFUSCATION, None),
        (QueryHistory, "add", HISTORY_ADD, None),
        (QueryHistory, "extend", HISTORY_ADD, None),
        (QueryHistory, "sample", HISTORY_SAMPLE, None),
        (EngineGateway, "send", GATEWAY, None),
        (EngineGateway, "recv", GATEWAY, _page_bytes),
        (proxy_module, "parse_results_body", PARSE, None),
        (SearchEngine, "search_or", ENGINE, _subqueries),
        (proxy_module, "filter_results", FILTERING, _filtered),
    ]
    # Every frame header and payload codec; the blocking socket reads
    # inside read_frame are transport, not wire.
    targets.extend(
        (wire, name, WIRE, None)
        for name in sorted(vars(wire))
        if name.startswith(("encode_", "decode_")) and name != "encode_frame"
        and callable(getattr(wire, name))
    )
    return targets
