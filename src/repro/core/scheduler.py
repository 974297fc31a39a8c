"""Concurrent request scheduler: the multi-worker executor in front of
the proxy host.

The paper's throughput claim (Figure 5) rests on the prototype serving
many clients at once from a pool of enclave threads (§4.1) while paying
as few mode transitions as possible (§5.3.3).  :class:`RequestScheduler`
is that front end for :class:`~repro.core.proxy.XSearchProxyHost`:

* **bounded queue, N workers** — callers enqueue opaque
  ``(session_id, record)`` pairs; ``max_workers`` threads drain the
  queue through the existing enclave/gateway locks.  The queue is
  bounded (``queue_capacity``), so a flood of clients applies
  backpressure at the door instead of growing memory without bound.
* **adaptive ecall coalescing** — requests that queue up while every
  worker is busy are folded into a single ``request_many`` ecall
  (one metered enclave transition amortised over the whole batch).
  Coalescing is *adaptive*: under light load a lone request is executed
  immediately as a plain ``request`` ecall — no added latency — while
  under pressure a worker gathers up to ``max_batch`` records, lingering
  at most ``coalesce_window`` seconds once a backlog exists.  Exactly
  when load is highest, the per-request transition cost approaches
  ``1 / max_batch`` ecalls.

Submissions are never deduplicated: distinct sessions may ride the same
batch ecall, but as distinct records under their own channel keys,
exactly as ``request_batch`` has always carried them.  A re-submitted
identical record is just another record, and the channel's counter
nonce rejects it with a typed replay error.

Ordering is the correctness keel: channel nonces are strictly
increasing counters per direction, so records of one session must reach
the enclave in submission order.  The collector therefore preserves
per-session FIFO — a session with records already in flight on another
worker is skipped until that batch completes (``_active_sessions``),
and records of one session within a batch keep queue order.  Failure
isolation matches the merge: coalesced singles travel through the
``request_many`` ecall, whose per-record ``("ok", reply)`` /
``("err", typed_error)`` entries mean one user's bad record fails only
that user's ticket.  A *pre-formed* batch (the proxy's all-or-nothing
``request_batch`` contract) always executes alone and fails as one
unit; brokers heal ``EnclaveLostError`` exactly as on the direct path.
An untyped exception from the proxy resolves the batch's tickets with
an :class:`~repro.errors.EnclaveError` naming only the exception type,
and the worker carries on.

The scheduler is deliberately dumb about payloads: it holds ciphertext
only, opens host-placed spans that record sizes and counts (never
bytes), and forwards every non-queue call (attestation, handshake,
checkpointing) straight to the proxy, so it can stand wherever an
:class:`XSearchProxyHost` stands.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.errors import EnclaveError, ReproError, scrub
from repro.obs.tracing import PLACEMENT_HOST, span
from repro.net.clock import SystemClock
from repro.sim import hooks

DEFAULT_MAX_WORKERS = 4
DEFAULT_MAX_BATCH = 8
DEFAULT_COALESCE_WINDOW = 0.002
DEFAULT_QUEUE_CAPACITY = 1024


class _Ticket:
    """One queued unit of work: a pre-encrypted record (or a pre-formed
    batch of records) plus the rendezvous the submitter waits on."""

    __slots__ = ("records", "sessions", "replies", "error", "event")

    def __init__(self, records):
        self.records = records              # [(session_id, record), ...]
        self.sessions = {sid for sid, _ in records}
        self.replies = None                 # tuple, aligned with records
        self.error = None
        self.event = threading.Event()

    def resolve(self, replies=None, error=None):
        self.replies = replies
        self.error = error
        self.event.set()

    def wait(self):
        self.event.wait()
        if self.error is not None:
            raise self.error
        return self.replies


class RequestScheduler:
    """Bounded-queue multi-worker executor over a proxy host.

    Drop-in for the proxy on the broker side: ``request`` and
    ``request_batch`` enqueue and block for the reply; every other
    attribute (``attestation_evidence``, ``begin_session``,
    ``measurement``, ``perf_stats``, …) forwards to the wrapped proxy.
    """

    def __init__(self, proxy, *, max_workers: int = DEFAULT_MAX_WORKERS,
                 coalesce_window: float = DEFAULT_COALESCE_WINDOW,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 clock=None, recorder=None, registry=None):
        if max_workers < 1:
            raise ValueError("max_workers must be positive")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if coalesce_window < 0:
            raise ValueError("coalesce_window cannot be negative")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be positive")
        self.proxy = proxy
        self.max_workers = max_workers
        self.coalesce_window = coalesce_window
        self.max_batch = max_batch
        self.queue_capacity = queue_capacity
        self._clock = clock if clock is not None else SystemClock()
        self._recorder = recorder
        self._registry = registry
        # One condition guards all queue state: the ticket queue, the
        # sessions currently riding an in-flight batch and the closed
        # flag.
        self._queue_lock = threading.Condition()
        self._queue = deque()
        self._active_sessions = set()
        self._closed = False
        if registry is not None:
            registry.gauge("scheduler.queue_depth").set_function(
                lambda: len(self._queue)
            )
            registry.gauge("scheduler.workers").set(max_workers)
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"xsearch-scheduler-{index}",
                daemon=True,
            )
            for index in range(max_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # The proxy-shaped surface brokers program against
    # ------------------------------------------------------------------
    def request(self, session_id: str, record: bytes) -> bytes:
        """Enqueue one opaque record; blocks until its reply is ready."""
        return self._submit([(session_id, bytes(record))]).wait()[0]

    def request_batch(self, batch) -> tuple:
        """Enqueue a pre-formed batch as one unit (all-or-nothing).

        The batch keeps the proxy contract: every record succeeds or the
        whole call fails with one typed error.  It may still be coalesced
        *with other queued work* into a larger ``request_batch`` ecall.
        """
        records = [(session_id, bytes(record))
                   for session_id, record in batch]
        if not records:
            return ()
        return tuple(self._submit(records).wait())

    def close(self, *, close_proxy: bool = False) -> None:
        """Stop accepting work, drain the queue, join the workers.

        Idempotent.  Queued tickets are still executed; only submissions
        after ``close`` fail.  With ``close_proxy=True`` the wrapped
        proxy is torn down afterwards.
        """
        with self._queue_lock:
            self._closed = True
            self._queue_lock.notify_all()
        # Every closer joins the workers — not just the first one to
        # flip the flag.  A second concurrent closer that skipped the
        # join would proceed to tear down the proxy while a worker is
        # still mid-dispatch, failing in-flight requests that a drain
        # promises to finish (joining an already-joined thread is a
        # cheap no-op, so idempotence costs nothing).
        for worker in self._workers:
            if worker is not threading.current_thread():
                worker.join()
        if close_proxy:
            self.proxy.close()

    def __enter__(self) -> "RequestScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __getattr__(self, name):
        # Everything that is not queue work — attestation, handshakes,
        # sealing, perf counters, measurement — goes straight through.
        return getattr(self.proxy, name)

    # ------------------------------------------------------------------
    # Submission side
    # ------------------------------------------------------------------
    def _submit(self, records) -> _Ticket:
        ticket = _Ticket(records)
        with self._queue_lock:
            if self._closed:
                raise EnclaveError("request scheduler is closed")
            while len(self._queue) >= self.queue_capacity:
                self._queue_lock.wait()
                if self._closed:
                    raise EnclaveError("request scheduler is closed")
            self._queue.append(ticket)
            self._count("scheduler.submitted", len(records))
            self._queue_lock.notify_all()
        return ticket

    def _count(self, name: str, amount: int = 1) -> None:
        if self._registry is not None:
            self._registry.counter(name).inc(amount)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            # Cooperative yield between collecting a batch and issuing
            # its ecall, with no locks held: the simulation interleaves
            # worker dispatch against failover and heal paths here.
            hooks.step("scheduler.batch", size=len(batch))
            self._execute(batch)

    def _collect(self):
        """Gather the next batch of tickets (or ``None`` at shutdown).

        Adaptive coalescing: take whatever is immediately eligible; only
        when a backlog exists (more than one ticket gathered, or more
        work left queued) linger up to ``coalesce_window`` to let
        arrivals fold into the same ecall.  A lone request under light
        load is executed at once.
        """
        with self._queue_lock:
            while True:
                batch, taken = self._take_eligible_locked([], set())
                if batch:
                    break
                if self._closed and not self._queue:
                    return None
                self._queue_lock.wait()
            if (self.coalesce_window > 0
                    and self._room_locked(batch)
                    and (len(batch) > 1 or self._queue)):
                deadline = self._clock.time() + self.coalesce_window
                while self._room_locked(batch):
                    remaining = deadline - self._clock.time()
                    if remaining <= 0 or self._closed:
                        break
                    self._queue_lock.wait(timeout=remaining)
                    batch, taken = self._take_eligible_locked(batch, taken)
            return batch

    def _room_locked(self, batch) -> bool:
        if any(len(t.records) > 1 for t in batch):
            return False    # a pre-formed batch executes alone
        return sum(len(t.records) for t in batch) < self.max_batch

    def _take_eligible_locked(self, batch, own_sessions):
        """Move eligible tickets from the queue into ``batch``.

        A ticket is eligible when none of its sessions is riding another
        worker's in-flight batch — per-session FIFO: one session is in
        at most one batch at a time, and its records keep queue order.
        Claimed sessions are marked active immediately so no other
        worker can take the same session out of order; sessions of
        tickets we skipped shadow everything behind them for the same
        reason.  Multi-record tickets (all-or-nothing ``request_batch``
        semantics) are never merged with other work.
        """
        size = sum(len(t.records) for t in batch)
        kept = deque()
        shadowed = set()
        while self._queue:
            ticket = self._queue.popleft()
            multi = len(ticket.records) > 1
            blocked = any(
                (sid in self._active_sessions and sid not in own_sessions)
                or sid in shadowed
                for sid in ticket.sessions
            )
            if blocked or (batch and (multi or size + len(ticket.records)
                                      > self.max_batch)):
                kept.append(ticket)
                shadowed |= ticket.sessions
                continue
            batch.append(ticket)
            size += len(ticket.records)
            own_sessions |= ticket.sessions
            self._active_sessions |= ticket.sessions
            if multi or size >= self.max_batch:
                break
        kept.extend(self._queue)
        self._queue = kept
        if batch:
            self._queue_lock.notify_all()   # capacity freed for submitters
        return batch, own_sessions

    def _execute(self, batch) -> None:
        payload = [pair for ticket in batch for pair in ticket.records]
        recorder = self._recorder
        self._count("scheduler.batches")
        if len(payload) > 1:
            self._count("scheduler.coalesced_records", len(payload))
        if self._registry is not None:
            self._registry.histogram(
                "scheduler.batch_size"
            ).record(len(payload))
        error = None
        entries = ()
        try:
            with span(recorder, "scheduler.batch",
                      placement=PLACEMENT_HOST,
                      batch_size=len(payload), tickets=len(batch)):
                if len(batch) == 1 and len(payload) > 1:
                    # Pre-formed batch: all-or-nothing, always alone.
                    entries = [("ok", reply) for reply
                               in self.proxy.request_batch(payload)]
                elif len(payload) == 1:
                    entries = [("ok", self.proxy.request(*payload[0]))]
                else:
                    entries = list(self.proxy.request_many(payload))
        except ReproError as exc:
            # The whole transition failed (enclave lost, transport):
            # every ticket it carried gets the same typed error.
            error = exc
        except Exception as exc:  # xlint: disable=taxonomy
            # An untyped failure is a bug, not an outcome: its message
            # may quote plaintext, so callers see only its type, and the
            # worker lives on to serve the rest of the queue.
            self._count("scheduler.errors")
            error = EnclaveError(
                "request failed inside the proxy: "
                + scrub(type(exc).__name__)
            )
        self._resolve(batch, entries, error)

    def _resolve(self, batch, entries, error) -> None:
        cursor = 0
        for ticket in batch:
            if error is not None:
                ticket.resolve(error=error)
            else:
                slice_ = entries[cursor:cursor + len(ticket.records)]
                failure = next(
                    (item for status, item in slice_ if status == "err"),
                    None,
                )
                if failure is not None:
                    ticket.resolve(error=failure)
                else:
                    ticket.resolve(
                        replies=tuple(item for _, item in slice_)
                    )
            cursor += len(ticket.records)
        with self._queue_lock:
            for ticket in batch:
                self._active_sessions -= ticket.sessions
            self._queue_lock.notify_all()
