"""Structured tracing: an explicit span tree per request.

Every request through the X-Search pipeline produces one *trace* — a
tree of :class:`Span` objects mirroring the protocol path of Figure 2::

    broker.search                        (client domain)
      └─ ecall.request_many              (host → enclave transition)
           ├─ enclave.obfuscation        (inside the TEE)
           ├─ enclave.engine             (inside the TEE)
           │    ├─ ocall.send            (enclave → host transition)
           │    └─ ocall.recv            (enclave → host transition)
           └─ enclave.filtering          (inside the TEE)

Spans carry a *placement* tag naming which party's code executed them
(``client``, ``host`` or ``enclave``).  The placement tags are what make
traces usable as a privacy oracle: the trace-privacy rule (see
``docs/OBSERVABILITY.md``) is that host-placed spans record **sizes and
timings only, never payloads** — :class:`repro.obs.checker.TraceChecker`
walks finished traces and fails the suite if a plaintext query ever
shows up in a host span.

Zero overhead by default, mirroring :mod:`repro.faults`: every
instrumented layer holds ``recorder=None`` unless a recorder was
explicitly installed, and reaches the tracing plane only through the
module-level :func:`span` / :func:`event` helpers whose no-recorder fast
path is a single identity check.  Timestamps come from an injectable
clock (the virtual clock in tests) or, by default, from a per-recorder
monotonic sequence counter — deterministic by construction, so golden
traces never flake on wall-clock jitter.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

# Span placement tags.
PLACEMENT_CLIENT = "client"
PLACEMENT_HOST = "host"
PLACEMENT_ENCLAVE = "enclave"

PLACEMENTS = (PLACEMENT_CLIENT, PLACEMENT_HOST, PLACEMENT_ENCLAVE)

# Span status values.
STATUS_OK = "ok"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class SpanEvent:
    """A point-in-time annotation attached to a span."""

    name: str
    timestamp: float
    attributes: dict = field(default_factory=dict)


@dataclass
class Span:
    """One timed operation in the request tree."""

    span_id: int
    name: str
    placement: str
    parent_id: int = None
    start: float = 0.0
    end: float = None
    status: str = None
    error: str = None
    attributes: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    children: list = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attributes) -> None:
        """Attach (or overwrite) span attributes."""
        self.attributes.update(attributes)

    def walk(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """Full JSON-friendly form (timestamps and ids included)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "placement": self.placement,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
            "events": [
                {"name": e.name, "timestamp": e.timestamp,
                 "attributes": dict(e.attributes)}
                for e in self.events
            ],
            "children": [child.to_dict() for child in self.children],
        }

    def normalized(self) -> dict:
        """Structure-only form for golden-file comparison.

        Drops everything non-deterministic or incidental — ids,
        timestamps, byte counts, error message text — and keeps the
        structural skeleton: names, placements, statuses, event names
        and the child tree.  Attribute *keys* are kept (sorted) with
        values reduced to stable scalars where they are stable
        (strings/bools/ints that are not byte sizes).
        """
        return {
            "name": self.name,
            "placement": self.placement,
            "status": self.status,
            "attributes": _normalize_attributes(self.attributes),
            "events": [e.name for e in self.events],
            "children": [child.normalized() for child in self.children],
        }


_VOLATILE_ATTRIBUTE_SUFFIXES = ("_bytes", ".bytes", "_seconds", ".seconds")


def _normalize_attributes(attributes: dict) -> dict:
    out = {}
    for key in sorted(attributes):
        if key.endswith(_VOLATILE_ATTRIBUTE_SUFFIXES):
            out[key] = "<volatile>"
            continue
        value = attributes[key]
        if isinstance(value, (str, bool, int)):
            out[key] = value
        elif value is None:
            out[key] = None
        else:
            out[key] = f"<{type(value).__name__}>"
    return out


@dataclass
class Trace:
    """One finished request: the root span plus assembly metadata."""

    root: Span
    trace_id: int = 0

    def walk(self):
        return self.root.walk()

    def find(self, name: str) -> list:
        """Every span in the trace with the given name."""
        return [span for span in self.walk() if span.name == name]

    def events(self, name: str = None) -> list:
        """Every event in the trace, optionally filtered by name."""
        out = []
        for span in self.walk():
            for event in span.events:
                if name is None or event.name == name:
                    out.append(event)
        return out

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "root": self.root.to_dict()}

    def normalized(self) -> dict:
        return self.root.normalized()


class _SpanScope:
    """Context manager returned by :meth:`TraceRecorder.span`.

    Exposes the underlying span as the ``as`` target so callers can set
    attributes mid-flight; exceptions mark the span status ``error``
    (with the exception type name) and propagate.
    """

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "TraceRecorder", span: Span):
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.status = STATUS_ERROR
            self._span.error = exc_type.__name__
        elif self._span.status is None:
            self._span.status = STATUS_OK
        self._recorder._finish_span(self._span)


class _NullSpan:
    """The inert span handed out when tracing is disabled."""

    __slots__ = ()

    def set(self, **attributes) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """A recorder-shaped no-op: the explicit 'tracing disabled' object.

    Behaviourally identical to passing ``recorder=None`` everywhere —
    ``tests/obs/test_noop_overhead.py`` guards that the boundary-crossing
    deltas of a workload are bit-for-bit the same under ``None``,
    ``NullRecorder`` and a live :class:`TraceRecorder`.
    """

    enabled = False

    def span(self, name: str, *, placement: str = PLACEMENT_HOST,
             **attributes):
        return _NULL_SPAN

    def event(self, name: str, **attributes) -> None:
        pass

    @property
    def traces(self) -> tuple:
        return ()

    def reset(self) -> None:
        pass


class TraceRecorder:
    """Collects span trees from every thread touching the deployment.

    Thread model: each thread keeps its own span stack (requests from
    different loadgen workers never interleave their trees), while the
    finished-trace list is shared under a lock.  A span opened when the
    thread's stack is empty becomes a *root*; when it closes, the
    assembled tree is appended to :attr:`traces`.

    ``clock`` supplies timestamps (``clock.time()``).  With the default
    ``clock=None`` timestamps are a *per-thread* monotonic sequence
    counter: every thread numbers the spans of its own trees 1, 2, 3, …
    independently, so concurrent request trees (client threads, each
    making its own crossings) get the same timestamps no matter how the OS interleaves
    them — which is what the golden-trace tests and the
    :class:`TraceChecker` ordering oracles rely on.  A shared counter
    would leak cross-thread scheduling into the numbers and make
    interleaved runs non-deterministic.
    """

    enabled = True

    def __init__(self, *, clock=None, max_traces: int = 100_000):
        if max_traces < 1:
            raise ValueError("max_traces must be positive")
        self._clock = clock
        self._max_traces = max_traces
        self._lock = threading.Lock()
        self._local = threading.local()
        self._traces = []
        self._dropped = 0
        self._orphan_events = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, *, placement: str = PLACEMENT_HOST,
             **attributes) -> _SpanScope:
        """Open a child of the current span (or a new root) on this
        thread; use as a context manager."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            span_id=next(self._span_ids),
            name=name,
            placement=placement,
            parent_id=parent.span_id if parent is not None else None,
            start=self._now(),
            attributes=dict(attributes),
        )
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        return _SpanScope(self, span)

    def event(self, name: str, **attributes) -> None:
        """Attach an event to the current span (orphaned events — fired
        outside any span — are kept separately, never lost)."""
        record = SpanEvent(
            name=name, timestamp=self._now(), attributes=dict(attributes)
        )
        stack = self._stack()
        if stack:
            stack[-1].events.append(record)
        else:
            with self._lock:
                self._orphan_events.append(record)

    def current_span(self) -> Span:
        """The innermost open span on this thread, or ``None``."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def traces(self) -> tuple:
        """Every finished trace, in completion order."""
        with self._lock:
            return tuple(self._traces)

    @property
    def orphan_events(self) -> tuple:
        with self._lock:
            return tuple(self._orphan_events)

    @property
    def dropped_traces(self) -> int:
        """Traces discarded after ``max_traces`` was reached (never
        silently: digests report this count)."""
        with self._lock:
            return self._dropped

    def reset(self) -> None:
        """Drop all finished traces and orphan events (open spans on
        other threads are unaffected)."""
        with self._lock:
            self._traces.clear()
            self._orphan_events.clear()
            self._dropped = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock.time()
        sequence = getattr(self._local, "sequence", None)
        if sequence is None:
            sequence = itertools.count(1)
            self._local.sequence = sequence
        return float(next(sequence))

    def _finish_span(self, span: Span) -> None:
        span.end = self._now()
        stack = self._stack()
        # Unwind to (and including) this span: a mis-nested close — an
        # exception path that skipped an inner __exit__ — closes the
        # abandoned inner spans rather than corrupting the stack.
        while stack:
            top = stack.pop()
            if top is span:
                break
            if top.end is None:
                top.end = span.end
                top.status = top.status or STATUS_ERROR
        if not stack:
            with self._lock:
                if len(self._traces) >= self._max_traces:
                    self._dropped += 1
                else:
                    self._traces.append(
                        Trace(root=span, trace_id=next(self._trace_ids))
                    )


# ---------------------------------------------------------------------------
# The no-op fast path the instrumented layers call
# ---------------------------------------------------------------------------

def span(recorder, name: str, *, placement: str = PLACEMENT_HOST,
         **attributes):
    """``recorder.span(...)`` tolerant of ``recorder is None``.

    The disabled fast path — no recorder installed — is one identity
    check and a shared inert context manager: no allocation, no lock,
    no timestamps, exactly like :func:`repro.faults.plan.decide`.
    """
    if recorder is None:
        return _NULL_SPAN
    return recorder.span(name, placement=placement, **attributes)


def event(recorder, name: str, **attributes) -> None:
    """``recorder.event(...)`` tolerant of ``recorder is None``."""
    if recorder is not None:
        recorder.event(name, **attributes)
