"""``repro.obs`` — the observability layer (tracing, metrics, oracles).

The paper's evaluation is measurement-driven end to end (Figures 5–7);
this package is where those measurements live as first-class objects
instead of ad-hoc counters:

* :mod:`repro.obs.tracing` — a structured span tree per request with
  enclave/host placement tags (``TraceRecorder``);
* :mod:`repro.obs.metrics` — counters, gauges and histograms in one
  registry (``MetricsRegistry``), backing the SGX boundary accounting;
* :mod:`repro.obs.checker` — ``TraceChecker``, the trace-based test
  oracle (balanced ecalls, no host-side plaintext, bounded retries,
  flagged degraded replies);
* :mod:`repro.obs.export` — profiling sessions and the JSON digest
  attached to every ``BENCH_*.json``.

Everything is zero-overhead by default: with no recorder installed the
instrumented layers pay one identity check per site, and the
boundary-crossing counts guarded by ``benchmarks/test_micro_boundary.py``
are bit-for-bit those of an uninstrumented build
(``tests/obs/test_noop_overhead.py`` enforces this).

``install()`` / ``installed()`` manage the process-default recorder and
registry: :meth:`repro.core.deployment.XSearchDeployment.create` picks
the defaults up when no explicit ``recorder=``/``registry=`` is passed,
which is how ``xsearch-experiments`` profiles whole figure runs without
threading arguments through every experiment.
"""

from __future__ import annotations

import threading

from repro.obs.checker import (
    OUTCOME_DEGRADED,
    OUTCOME_ERROR,
    OUTCOME_REPLY,
    TraceChecker,
    TraceViolation,
    outcome_of,
)
from repro.obs.export import (
    ProfileSession,
    attach_digest,
    build_digest,
    metrics_digest,
    trace_digest,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    timer,
)
from repro.obs.tracing import (
    PLACEMENT_CLIENT,
    PLACEMENT_ENCLAVE,
    PLACEMENT_HOST,
    NullRecorder,
    Span,
    SpanEvent,
    Trace,
    TraceRecorder,
    event,
    span,
)

__all__ = [
    "TraceRecorder",
    "NullRecorder",
    "Span",
    "SpanEvent",
    "Trace",
    "span",
    "event",
    "PLACEMENT_CLIENT",
    "PLACEMENT_HOST",
    "PLACEMENT_ENCLAVE",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "timer",
    "TraceChecker",
    "TraceViolation",
    "outcome_of",
    "OUTCOME_REPLY",
    "OUTCOME_DEGRADED",
    "OUTCOME_ERROR",
    "ProfileSession",
    "build_digest",
    "trace_digest",
    "metrics_digest",
    "attach_digest",
    "install",
    "installed",
]

_defaults_lock = threading.Lock()
_default_recorder = None
_default_registry = None


def install(*, recorder=None, registry=None) -> None:
    """Set (or clear, with ``None``) the process-default observability
    plane picked up by ``XSearchDeployment.create``."""
    global _default_recorder, _default_registry
    with _defaults_lock:
        _default_recorder = recorder
        _default_registry = registry


def installed() -> tuple:
    """The ``(recorder, registry)`` defaults currently installed."""
    with _defaults_lock:
        return _default_recorder, _default_registry
