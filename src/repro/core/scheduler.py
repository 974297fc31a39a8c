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
* **ecall coalescing without waiting** — requests that queue up while
  every worker is busy are folded into a single ``request_many`` ecall
  (one metered enclave transition amortised over the whole batch).  A
  worker takes whatever is eligible the moment it is free, up to
  ``max_batch`` records, and crosses at once: it never waits for more
  arrivals, so a lone request under light load crosses as a batch of
  one with no added latency.  Batches grow only as fast as a backlog
  does, so exactly when load is highest the per-request transition
  cost approaches ``1 / max_batch`` ecalls.

Every crossing is one ``request_many`` call, the proxy's only request
ecall, and the session is its unit of failure: a failed record fails
every record of its session in that call, never another session's.  A
ticket is one session's unit of work (a single record, or a ready-made
batch from ``request_batch``), so the scheduler never puts two tickets
of one session in one crossing: a ticket's outcome depends only on its
own records.  A ready-made batch shares its crossing with other
sessions' records, up to ``max_batch``, and still fails as one unit.
Submissions are never deduplicated: a re-submitted identical record is
just another record, and the channel's counter nonce rejects it with a
typed replay error.

Ordering is the correctness keel: channel nonces are strictly
increasing counters per direction, so records of one session must reach
the enclave in submission order.  The collector therefore preserves
per-session FIFO — a session with a ticket in flight on another worker,
or already in the batch being formed, is skipped until that batch
completes (``_active_sessions``), and a skipped ticket's sessions
shadow every later ticket.  Each ticket resolves from its own
``("ok", reply)`` / ``("err", typed_error)`` entries; brokers heal
``EnclaveLostError`` exactly as on the direct path.  An untyped
exception from the proxy resolves the batch's tickets with an
:class:`~repro.errors.EnclaveError` naming only the exception type,
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
from repro.sim import hooks

DEFAULT_MAX_WORKERS = 4
DEFAULT_MAX_BATCH = 8
DEFAULT_QUEUE_CAPACITY = 1024


class _Ticket:
    """One queued unit of work: a pre-encrypted record (or a ready-made
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
                 max_batch: int = DEFAULT_MAX_BATCH,
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 recorder=None, registry=None):
        if max_workers < 1:
            raise ValueError("max_workers must be positive")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be positive")
        self.proxy = proxy
        self.max_workers = max_workers
        self.max_batch = max_batch
        self.queue_capacity = queue_capacity
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
        """Enqueue a ready-made batch as one ticket; blocks until its
        replies are ready, or raises the first record's error.

        The batch may share a crossing with other sessions' records, but
        it succeeds or fails as one unit: the enclave fails every record
        of a session together and seals none of its replies.
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

        Takes whatever is eligible right now, up to ``max_batch``
        records, and returns it for crossing at once.  The only wait is
        for work to exist: a worker never holds a batch back for later
        arrivals.
        """
        with self._queue_lock:
            while True:
                batch = self._take_eligible_locked()
                if batch:
                    return batch
                if self._closed and not self._queue:
                    return None
                self._queue_lock.wait()

    def _take_eligible_locked(self):
        """Move eligible tickets from the queue into a new batch.

        A ticket is eligible when none of its sessions is riding an
        in-flight batch or already has a ticket in the batch being
        formed — per-session FIFO, and one session never has two tickets
        in one crossing (a failed record fails its whole session there).
        Claimed sessions are marked active immediately, so no other
        worker can take the same session out of order; sessions of
        tickets we skipped shadow everything behind them for the same
        reason.  A ticket that alone exceeds ``max_batch`` crosses
        alone.
        """
        batch, size = [], 0
        kept = deque()
        shadowed = set()
        while self._queue:
            ticket = self._queue.popleft()
            blocked = any(sid in self._active_sessions or sid in shadowed
                          for sid in ticket.sessions)
            if blocked or (batch and size + len(ticket.records)
                           > self.max_batch):
                kept.append(ticket)
                shadowed |= ticket.sessions
                continue
            batch.append(ticket)
            size += len(ticket.records)
            self._active_sessions |= ticket.sessions
            if size >= self.max_batch:
                break
        kept.extend(self._queue)
        self._queue = kept
        if batch:
            self._queue_lock.notify_all()   # capacity freed for submitters
        return batch

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
