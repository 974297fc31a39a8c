"""Exception hierarchy shared across the X-Search reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish failures of this library from programming errors
(``TypeError``, ``ValueError`` raised on misuse are still used for argument
validation, following stdlib conventions).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library.

    ``retryable`` is the contract the fault-tolerance layer keys on: a
    caller holding a :class:`~repro.core.retry.RetryPolicy` may re-issue
    the failed operation if and only if the flag is true.  Errors that
    indicate tampering, misconfiguration or exhausted recovery are final.
    """

    retryable = False


class TransientError(ReproError):
    """A failure expected to heal on its own (and safe to retry).

    The operation did not complete, no partial effect is visible to the
    caller, and re-issuing it is both safe and likely to succeed — the
    category retry policies act on.
    """

    retryable = True


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key sizes, corrupt data...)."""


class AuthenticationError(CryptoError):
    """An AEAD tag or signature failed verification.

    Raised instead of returning corrupt plaintext; callers must treat the
    message as hostile.
    """


class RetryExhaustedError(ReproError):
    """A retried operation failed on every permitted attempt.

    Carries the bookkeeping a supervisor needs to decide what to do next:
    ``attempts`` (how many times the operation ran) and ``last_cause``
    (the final underlying exception, also chained as ``__cause__``).
    Deliberately *not* retryable: the policy already spent its budget.
    """

    def __init__(self, attempts: int, last_cause: BaseException,
                 message: str = None):
        if message is None:
            message = (
                f"operation failed after {attempts} attempt(s): "
                + scrub(last_cause)
            )
        super().__init__(message)
        self.attempts = attempts
        self.last_cause = last_cause


class EnclaveError(ReproError):
    """The simulated SGX enclave rejected an operation."""


class EnclaveMemoryError(EnclaveError):
    """The enclave page cache (EPC) could not satisfy an allocation."""


class AttestationError(EnclaveError):
    """Remote attestation failed: wrong measurement, bad quote signature..."""


class SealingError(EnclaveError):
    """Sealed data could not be unsealed (wrong enclave or tampering)."""


class ProtocolError(ReproError):
    """A malformed or out-of-order wire message was received."""


class SearchError(ReproError):
    """The search-engine substrate rejected a request."""


class EnclaveLostError(TransientError, EnclaveError):
    """The enclave died mid-operation (crash, teardown, platform reset).

    Everything resident in enclave memory — sessions, channel endpoints,
    the un-checkpointed tail of the history — is gone.  The host may
    respawn an enclave with the same measurement; clients must re-attest
    and re-handshake before retrying, which is why this is transient.
    """


class SessionLostError(EnclaveLostError):
    """The enclave holds no session under this id.

    The session was evicted from the bounded session table, died with a
    previous enclave, or lives on a replica that failed over.  The
    enclave is fine; only the session is gone, so the broker's heal
    (re-attest, fresh session id, new handshake) is the recovery, and a
    cluster does not count it against the replica.
    """


class NetworkError(ReproError):
    """The simulated network could not deliver a message."""


class ConnectionLostError(EnclaveLostError):
    """The transport to a remote proxy died mid-conversation.

    Socket gone, stream truncated or corrupted: whatever was in flight
    is in an unknown state and the channel's nonce counters can no
    longer be trusted.  Subclassing :class:`EnclaveLostError` is the
    point — the broker's existing heal (re-attest, fresh session id,
    new handshake) is exactly the right recovery, with the transport
    reconnecting underneath it.
    """


class ServerBusyError(EnclaveLostError):
    """A serving front-end turned the connection away (admission
    control at accept: its connection cap was reached).

    ``retry_after`` is the server's backoff hint in seconds.  The
    transport raises this on the first rebuff and never retries by
    itself; :func:`~repro.core.retry.call_with_retry` waits at least
    the hint before the broker's next attempt.  No request was sent on
    a rebuffed connection, but the call that needed it may sit in the
    middle of a heal or a search whose record is already sealed.
    Subclassing :class:`EnclaveLostError` encodes that: the broker
    recovers by re-attesting under a fresh session, exactly as for any
    other lost channel.
    """

    def __init__(self, message: str = "server is at capacity", *,
                 retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


class EngineUnavailableError(TransientError, NetworkError):
    """The search engine could not be reached (refused, dropped, timeout).

    The obfuscated query never produced a result page; retrying against a
    fresh connection — or falling back to the in-enclave degraded cache —
    is the designed response.
    """


class CircuitError(NetworkError):
    """A Tor-style circuit could not be built or used."""


class DatasetError(ReproError):
    """A dataset could not be generated, loaded or split as requested."""


class ExperimentError(ReproError):
    """An experiment was configured inconsistently."""


def scrub(cause, *secrets) -> str:
    """Render an exception (or text) into a boundary-safe message.

    Exception messages raised on bridge/facade paths travel through the
    untrusted host supervisor before they reach the client, so they must
    never embed the plaintext query, key material or other secrets.
    ``scrub`` is the approved rendering: it reduces an exception to
    ``TypeName: text`` (or passes plain text through) and replaces every
    occurrence of the given ``secrets`` with ``[scrubbed]``.

    The static taint engine (:mod:`repro.analysis.dataflow`) recognises
    ``scrub`` as a declassifier — building a cross-boundary message any
    other way from tainted data is rule XT005.
    """
    if isinstance(cause, BaseException):
        text = f"{type(cause).__name__}: {cause}"
    else:
        text = str(cause)
    for secret in secrets:
        if isinstance(secret, (bytes, bytearray)):
            secret = repr(bytes(secret))
        else:
            secret = str(secret)
        if secret:
            text = text.replace(secret, "[scrubbed]")
    return text
