"""Retry policies: bounded attempts with exponential backoff.

The fault-tolerance layer distinguishes failures by the ``retryable``
flag on :class:`~repro.errors.ReproError`.  A :class:`RetryPolicy` says
how hard to try before giving up; :func:`call_with_retry` is the only
retry loop in the package — the enclave's engine leg, the client-side
broker (whose connect and heal also absorb a server's connect-time
``BUSY``) and the availability experiment all run their retries through
it, so a span's ``retry.max_attempts`` is the real bound on attempts
and backoff behaviour is testable in one place.

Delays are taken against an injectable clock (see :mod:`repro.net.clock`)
so tests assert the exact backoff schedule on a virtual clock instead of
sleeping through it; the enclave's default policy uses zero base delay —
inside the proxy, blocking a TCS thread on a wall-clock sleep would
serialise the worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RetryExhaustedError, TransientError, scrub
from repro.net.clock import SystemClock

_SYSTEM_CLOCK = SystemClock()


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to attempt an operation, and how long to wait.

    ``max_attempts`` counts the first try: ``max_attempts=1`` means no
    retry at all.  The delay before retry *n* (n = 1 after the first
    failure) is ``base_delay * multiplier**(n-1)`` capped at
    ``max_delay`` — classic exponential backoff, deterministic so fault
    schedules replay identically.
    """

    max_attempts: int = 3
    base_delay: float = 0.0
    multiplier: float = 2.0
    max_delay: float = 5.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("a retry policy needs at least one attempt")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("retry delays cannot be negative")
        if self.multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")

    def delay_before_retry(self, retry_number: int) -> float:
        """Backoff before the ``retry_number``-th retry (1-based)."""
        if retry_number < 1:
            raise ValueError("retry numbers are 1-based")
        if self.base_delay == 0:
            return 0.0
        return min(
            self.base_delay * self.multiplier ** (retry_number - 1),
            self.max_delay,
        )

    def backoff_schedule(self) -> tuple:
        """Every delay the policy would sleep, in order (for tests/docs)."""
        return tuple(
            self.delay_before_retry(n)
            for n in range(1, self.max_attempts)
        )


#: No retries at all: fail on the first error (baseline measurements).
NO_RETRY = RetryPolicy(max_attempts=1)

#: The enclave's engine-leg default: three tries, no wall-clock backoff
#: (a TCS thread must not sleep while other sessions queue behind it).
DEFAULT_ENGINE_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)

#: The broker's default: one reconnect-and-retry after an enclave loss.
DEFAULT_BROKER_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0)


def call_with_retry(operation, *, policy: RetryPolicy = None,
                    clock=None, retry_on=(TransientError,),
                    deadline: float = None, on_retry=None):
    """Run ``operation()`` under a retry policy.

    Retries only exceptions that are instances of ``retry_on`` *and*
    carry a true ``retryable`` flag (the default matches every
    :class:`~repro.errors.TransientError`).  When attempts run out — or
    the next backoff would overrun ``deadline`` (absolute, in clock
    time) — raises :class:`~repro.errors.RetryExhaustedError` carrying
    the attempt count and the final cause.

    An error's ``retry_after`` (a server's backoff hint, see
    :class:`~repro.errors.ServerBusyError`) is a floor on the wait
    before the next attempt: the backoff is the larger of it and the
    policy's delay.

    ``on_retry(attempt, exc)`` is called before each re-attempt; the
    broker uses it to re-attest and re-handshake after an enclave loss.
    """
    if policy is None:
        policy = RetryPolicy()
    if clock is None:
        clock = _SYSTEM_CLOCK
    attempts = 0
    while True:
        attempts += 1
        try:
            return operation()
        except retry_on as exc:
            if not getattr(exc, "retryable", False):
                raise
            if attempts >= policy.max_attempts:
                raise RetryExhaustedError(attempts, exc) from exc
            delay = max(policy.delay_before_retry(attempts),
                        getattr(exc, "retry_after", 0.0))
            if deadline is not None and clock.time() + delay > deadline:
                raise RetryExhaustedError(
                    attempts, exc,
                    "deadline exceeded after "
                    f"{attempts} attempt(s): " + scrub(exc),
                ) from exc
            if delay:
                clock.sleep(delay)
            if on_retry is not None:
                on_retry(attempts, exc)
