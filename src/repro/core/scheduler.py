"""Caller-runs request scheduler: flat combining in front of the proxy
host.

The paper's throughput claim (Figure 5) rests on the prototype serving
many clients at once from a pool of enclave threads (§4.1) while paying
as few mode transitions as possible (§5.3.3).  On SGX an ecall runs on
the thread that calls it, and the TCS count bounds how many run at
once.  :class:`RequestScheduler` has the same shape in front of
:class:`~repro.core.proxy.XSearchProxyHost`; it starts no threads:

* **the submitter crosses** — a caller enqueues its
  ``(session_id, record)`` ticket.  If fewer than ``max_workers``
  crossings are in flight, it becomes the *combiner* (flat combining,
  Hendler, Incze, Shavit and Tzafrir, SPAA 2010): it takes every
  eligible queued ticket, up to :data:`MAX_BATCH` records, makes one
  ``request_many`` ecall for all of them on its own thread, resolves
  them, and repeats until its own ticket is resolved.  Otherwise it
  waits, and a waiter that wakes while a slot is free becomes a
  combiner in turn.  Every queued ticket belongs to a thread blocked
  in ``request`` or ``request_batch``, so the queue is never longer
  than the number of submitting threads and needs no cap of its own;
  admission happens in front of it (the server's connection cap) and
  at it (``max_workers``).
* **ecall coalescing without waiting** — tickets that queue up while
  every slot is busy cross together in the next combiner's single
  ``request_many`` ecall (one metered enclave transition amortised
  over the batch).  A combiner never waits for more arrivals, so a
  lone request under light load crosses at once as a batch of one.

Every crossing is one ``request_many`` call, the proxy's only request
ecall, and the session is its unit of failure: a failed record fails
every record of its session in that call, never another session's.  A
ticket is one session's unit of work (a single record, or a ready-made
batch from ``request_batch``), so the scheduler never puts two tickets
of one session in one crossing: a ticket's outcome depends only on its
own records.  A ready-made batch shares its crossing with other
sessions' records, up to :data:`MAX_BATCH`, and still fails as one
unit.
Submissions are never deduplicated: a re-submitted identical record is
just another record, and the channel's counter nonce rejects it with a
typed replay error.

Ordering is the correctness keel: channel nonces are strictly
increasing counters per direction, so records of one session must reach
the enclave in submission order.  The combiner therefore preserves
per-session FIFO — a session with a ticket in another in-flight
crossing, or already in the batch being formed, is skipped until that
crossing completes (``_active_sessions``), and a skipped ticket's
sessions shadow every later ticket.  Each ticket resolves from its own
``("ok", reply)`` / ``("err", typed_error)`` entries
(:func:`~repro.core.proxy.unwrap_entries`); brokers heal
``EnclaveLostError`` as usual.  An untyped exception from the proxy
resolves the crossing's tickets with an
:class:`~repro.errors.EnclaveError` naming only the exception type.

The scheduler is deliberately dumb about payloads: it holds ciphertext
only and opens host-placed spans that record sizes and counts (never
bytes).  It queues requests and nothing else: attestation, handshakes
and checkpointing go to the proxy directly (the cluster routes them
there).
"""

from __future__ import annotations

import threading
from collections import deque

from repro.core.proxy import unwrap_entries
from repro.errors import EnclaveError, ReproError, scrub
from repro.obs.tracing import PLACEMENT_HOST, span
from repro.sim import hooks

DEFAULT_MAX_WORKERS = 4
#: The most records one crossing carries.
MAX_BATCH = 8


class _Ticket:
    """One queued unit of work: one session's pre-encrypted records and,
    once a crossing has carried them, one ``request_many`` entry per
    record."""

    __slots__ = ("records", "sessions", "entries")

    def __init__(self, records):
        self.records = records              # [(session_id, record), ...]
        self.sessions = {sid for sid, _ in records}
        self.entries = None                 # set under the queue lock


class RequestScheduler:
    """Caller-runs executor over a proxy host.

    ``request`` and ``request_batch`` have the proxy's signatures: they
    enqueue and return once the reply is ready, having usually made the
    crossing on the calling thread.  ``max_workers`` bounds the
    crossings in flight at once, as the TCS count does on SGX.
    """

    def __init__(self, proxy, *, max_workers: int = DEFAULT_MAX_WORKERS,
                 recorder=None, registry=None):
        if max_workers is None or max_workers < 1:
            raise ValueError("max_workers must be a positive int")
        self.proxy = proxy
        self.max_workers = max_workers
        self._recorder = recorder
        self._registry = registry
        # One condition guards all queue state: the ticket queue, the
        # sessions riding an in-flight crossing, the count of crossings
        # in flight and the closed flag.
        self._queue_lock = threading.Condition()
        self._queue = deque()
        self._active_sessions = set()
        self._in_flight = 0
        self._closed = False
        if registry is not None:
            registry.gauge("scheduler.queue_depth").set_function(
                lambda: len(self._queue)
            )
            registry.gauge("scheduler.workers").set(max_workers)

    # ------------------------------------------------------------------
    # The request surface the cluster dispatches to
    # ------------------------------------------------------------------
    def request(self, session_id: str, record: bytes) -> bytes:
        """Submit one opaque record; returns its reply."""
        return self._run([(session_id, bytes(record))])[0]

    def request_batch(self, batch) -> tuple:
        """Submit a ready-made batch as one ticket; returns its replies,
        or raises the first record's error.

        The batch may share a crossing with other sessions' records, but
        it succeeds or fails as one unit: the enclave fails every record
        of a session together and seals none of its replies.
        """
        records = [(session_id, bytes(record))
                   for session_id, record in batch]
        if not records:
            return ()
        return self._run(records)

    def close(self, *, close_proxy: bool = False) -> None:
        """Stop accepting work and wait until every queued ticket has
        crossed and no crossing is in flight.

        Idempotent, and safe from several threads at once: every closer
        waits for the drain, so none tears the proxy down under a
        crossing another thread has in flight.  Queued tickets are still
        carried (their submitters cross them); only submissions after
        ``close`` fail.  With ``close_proxy=True`` the wrapped proxy is
        torn down afterwards.
        """
        with self._queue_lock:
            self._closed = True
            self._queue_lock.notify_all()
            while self._in_flight or self._queue:
                hooks.wait(self._queue_lock, "scheduler")
        if close_proxy:
            self.proxy.close()

    def __enter__(self) -> "RequestScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission: enqueue, then combine or wait
    # ------------------------------------------------------------------
    def _run(self, records) -> tuple:
        """Queue one ticket and see it across; returns its replies.

        While the ticket is unresolved: with a crossing slot free, this
        thread combines — it takes the eligible tickets (its own among
        them, unless per-session FIFO holds it back), crosses with them
        and resolves them; otherwise it waits for a crossing to end.
        """
        ticket = _Ticket(records)
        with self._queue_lock:
            if self._closed:
                raise EnclaveError("request scheduler is closed")
            self._queue.append(ticket)
            self._count("scheduler.submitted", len(records))
            while ticket.entries is None:
                batch = None
                if self._in_flight < self.max_workers:
                    batch = self._take_eligible_locked()
                if not batch:
                    hooks.wait(self._queue_lock, "scheduler")
                    continue
                self._in_flight += 1
                self._queue_lock.release()
                entries = None
                try:
                    # Cooperative yield between taking a batch and
                    # issuing its ecall, with no locks held: the
                    # simulation interleaves crossings against failover
                    # and heal paths here.
                    hooks.step("scheduler.batch", size=len(batch))
                    entries = self._execute(batch)
                finally:
                    self._queue_lock.acquire()
                    self._in_flight -= 1
                    self._resolve_locked(batch, entries)
        return unwrap_entries(ticket.entries)

    def _count(self, name: str, amount: int = 1) -> None:
        if self._registry is not None:
            self._registry.counter(name).inc(amount)

    # ------------------------------------------------------------------
    # Combining
    # ------------------------------------------------------------------
    def _take_eligible_locked(self):
        """Move eligible tickets from the queue into a new batch.

        A ticket is eligible when none of its sessions is riding an
        in-flight batch or already has a ticket in the batch being
        formed — per-session FIFO, and one session never has two tickets
        in one crossing (a failed record fails its whole session there).
        Claimed sessions are marked active immediately, so no other
        combiner can take the same session out of order; sessions of
        tickets we skipped shadow everything behind them for the same
        reason.  A ticket that alone exceeds :data:`MAX_BATCH` crosses
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
                           > MAX_BATCH):
                kept.append(ticket)
                shadowed |= ticket.sessions
                continue
            batch.append(ticket)
            size += len(ticket.records)
            self._active_sessions |= ticket.sessions
            if size >= MAX_BATCH:
                break
        kept.extend(self._queue)
        self._queue = kept
        return batch

    def _execute(self, batch) -> list:
        """One ``request_many`` crossing for every record of ``batch``;
        returns one entry per record.  A failure of the whole transition
        becomes every record's entry."""
        payload = [pair for ticket in batch for pair in ticket.records]
        self._count("scheduler.batches")
        if len(payload) > 1:
            self._count("scheduler.coalesced_records", len(payload))
        if self._registry is not None:
            self._registry.histogram(
                "scheduler.batch_size"
            ).record(len(payload))
        try:
            with span(self._recorder, "scheduler.batch",
                      placement=PLACEMENT_HOST,
                      batch_size=len(payload), tickets=len(batch)):
                return list(self.proxy.request_many(payload))
        except ReproError as exc:
            # The whole transition failed (enclave lost, transport):
            # every ticket it carried gets the same typed error.
            error = exc
        except Exception as exc:  # xlint: disable=taxonomy
            # An untyped failure is a bug, not an outcome: its message
            # may quote plaintext, so callers see only its type.
            self._count("scheduler.errors")
            error = EnclaveError(
                "request failed inside the proxy: "
                + scrub(type(exc).__name__)
            )
        return [("err", error)] * len(payload)

    def _resolve_locked(self, batch, entries) -> None:
        """Hand each ticket its slice of ``entries``, free its sessions
        and wake every waiter.  ``entries`` is ``None`` only when the
        crossing was interrupted (say, ``KeyboardInterrupt``); its
        tickets still resolve, so no submitter waits forever."""
        if entries is None:
            interrupted = EnclaveError("the crossing was interrupted")
            entries = [("err", interrupted)] * sum(
                len(ticket.records) for ticket in batch)
        cursor = 0
        for ticket in batch:
            end = cursor + len(ticket.records)
            ticket.entries = entries[cursor:end]
            cursor = end
            self._active_sessions -= ticket.sessions
        self._queue_lock.notify_all()
