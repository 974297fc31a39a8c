"""Retry policies and backoff, driven entirely on a virtual clock."""

import pytest

from repro.core.retry import (
    DEFAULT_BROKER_RETRY,
    DEFAULT_ENGINE_RETRY,
    NO_RETRY,
    RetryPolicy,
    call_with_retry,
)
from repro.errors import (
    EngineUnavailableError,
    NetworkError,
    ProtocolError,
    RetryExhaustedError,
    ServerBusyError,
    TransientError,
)
from repro.net.clock import VirtualClock


class Flaky:
    """Fails ``failures`` times, then returns ``value``."""

    def __init__(self, failures, exc=TransientError, value="ok"):
        self.failures = failures
        self.exc = exc
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"induced failure {self.calls}")
        return self.value


# ----------------------------------------------------------------------
# Policy arithmetic
# ----------------------------------------------------------------------
def test_backoff_schedule_is_exponential_and_capped():
    policy = RetryPolicy(max_attempts=5, base_delay=0.1, multiplier=2.0,
                         max_delay=0.5)
    assert policy.backoff_schedule() == (0.1, 0.2, 0.4, 0.5)


def test_zero_base_delay_never_sleeps():
    assert DEFAULT_ENGINE_RETRY.backoff_schedule() == (0.0, 0.0)
    assert DEFAULT_BROKER_RETRY.backoff_schedule() == (0.0,)


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)


# ----------------------------------------------------------------------
# call_with_retry semantics
# ----------------------------------------------------------------------
def test_retries_transients_until_success():
    flaky = Flaky(failures=2)
    assert call_with_retry(flaky, policy=RetryPolicy(max_attempts=3)) == "ok"
    assert flaky.calls == 3


def test_exhaustion_raises_with_attempts_and_cause():
    flaky = Flaky(failures=10)
    with pytest.raises(RetryExhaustedError) as excinfo:
        call_with_retry(flaky, policy=RetryPolicy(max_attempts=3))
    assert excinfo.value.attempts == 3
    assert isinstance(excinfo.value.last_cause, TransientError)
    assert flaky.calls == 3


def test_non_retryable_errors_pass_straight_through():
    flaky = Flaky(failures=5, exc=ProtocolError)
    with pytest.raises(ProtocolError):
        call_with_retry(flaky, policy=RetryPolicy(max_attempts=3))
    assert flaky.calls == 1  # never retried


def test_plain_network_error_is_not_retried():
    """Only errors with the ``retryable`` flag are retried — a raw
    NetworkError (e.g. HTTP 500) is a real answer, not a transient."""
    flaky = Flaky(failures=5, exc=NetworkError)
    with pytest.raises(NetworkError):
        call_with_retry(flaky, policy=RetryPolicy(max_attempts=3),
                        retry_on=(NetworkError,))
    assert flaky.calls == 1


def test_engine_unavailable_is_retryable_network_error():
    exc = EngineUnavailableError("down")
    assert isinstance(exc, NetworkError)
    assert exc.retryable
    flaky = Flaky(failures=1, exc=EngineUnavailableError)
    assert call_with_retry(flaky, policy=RetryPolicy(max_attempts=2)) == "ok"


def test_no_retry_policy_fails_first_time():
    flaky = Flaky(failures=1)
    with pytest.raises(RetryExhaustedError) as excinfo:
        call_with_retry(flaky, policy=NO_RETRY)
    assert excinfo.value.attempts == 1


# ----------------------------------------------------------------------
# Backoff timing on the virtual clock — no real sleeps anywhere
# ----------------------------------------------------------------------
def test_backoff_sleeps_follow_the_schedule_exactly():
    clock = VirtualClock()
    policy = RetryPolicy(max_attempts=4, base_delay=0.1, multiplier=3.0,
                         max_delay=10.0)
    flaky = Flaky(failures=3)
    assert call_with_retry(flaky, policy=policy, clock=clock) == "ok"
    assert clock.sleeps == [0.1, pytest.approx(0.3), pytest.approx(0.9)]
    assert clock.time() == pytest.approx(1.3)


def test_deadline_cuts_retries_short():
    clock = VirtualClock()
    policy = RetryPolicy(max_attempts=10, base_delay=1.0, multiplier=2.0,
                         max_delay=60.0)
    flaky = Flaky(failures=10)
    with pytest.raises(RetryExhaustedError) as excinfo:
        call_with_retry(flaky, policy=policy, clock=clock,
                        deadline=clock.time() + 4.0)
    # Slept 1 s and 2 s; the next 4 s backoff would overrun the deadline.
    assert clock.sleeps == [1.0, 2.0]
    assert excinfo.value.attempts == 3
    assert "deadline" in str(excinfo.value)


def busy(retry_after):
    """A factory of busy errors carrying a server's backoff hint."""
    return lambda message: ServerBusyError(message, retry_after=retry_after)


def test_retry_after_is_a_floor_on_the_backoff():
    clock = VirtualClock()
    policy = RetryPolicy(max_attempts=4, base_delay=0.1, multiplier=4.0,
                         max_delay=10.0)
    flaky = Flaky(failures=3, exc=busy(0.25))
    assert call_with_retry(flaky, policy=policy, clock=clock) == "ok"
    # The hint lifts the 0.1 s backoff; the larger 0.4 s and 1.6 s win.
    assert clock.sleeps == [0.25, pytest.approx(0.4), pytest.approx(1.6)]


def test_deadline_shorter_than_the_hint_gives_up_without_sleeping():
    clock = VirtualClock()
    flaky = Flaky(failures=5, exc=busy(2.0))
    with pytest.raises(RetryExhaustedError) as excinfo:
        call_with_retry(flaky, policy=RetryPolicy(max_attempts=5),
                        clock=clock, deadline=clock.time() + 1.0)
    assert clock.sleeps == []
    assert flaky.calls == 1
    assert excinfo.value.attempts == 1
    assert isinstance(excinfo.value.last_cause, ServerBusyError)
    assert "deadline" in str(excinfo.value)


def test_on_retry_hook_sees_each_failure():
    seen = []
    flaky = Flaky(failures=2)
    call_with_retry(flaky, policy=RetryPolicy(max_attempts=3),
                    on_retry=lambda attempt, exc: seen.append(attempt))
    assert seen == [1, 2]
