"""Sealed persistence of the proxy's query history (extension).

The paper keeps the past-query table only in enclave memory: a proxy
restart (redeployment, host reboot, enclave teardown) loses the history
and every client goes back through the cold-start window where obfuscated
queries carry fewer, less diverse fakes.

SGX's sealing facility is the natural fix, and this module holds its one
format: inside the enclave, :func:`seal_snapshot` serialises the history
and seals it to the enclave's *own measurement* on the local platform
(the proxy's ``checkpoint_history`` ecall hands the opaque blob to the
host), and :func:`open_snapshot` unseals and parses it again
(``absorb_sealed_history``).  Only an enclave with the same measurement
can open the blob; a tampered blob, a different enclave build or a
different physical platform all fail closed.

The blob embeds the history capacity so a sealed snapshot cannot be
replayed into an enclave configured with a different window size.
"""

from __future__ import annotations

import json

from repro.core.history import QueryHistory
from repro.errors import SealingError

_FORMAT_VERSION = 1
_AAD = b"repro.core.history-snapshot.v1"


def snapshot_history(history: QueryHistory) -> bytes:
    """Serialise a history table (inside the enclave)."""
    return json.dumps(
        {
            "v": _FORMAT_VERSION,
            "capacity": history.capacity,
            "entries": history.snapshot(),
        },
        separators=(",", ":"),
    ).encode("utf-8")


def decode_snapshot(blob: bytes) -> tuple:
    """Parse a snapshot into ``(capacity, entries)`` without building a
    table: the importer appends the entries to its live history."""
    try:
        doc = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SealingError("history snapshot is malformed") from exc
    if doc.get("v") != _FORMAT_VERSION:
        raise SealingError(
            f"unsupported history snapshot version {doc.get('v')!r}"
        )
    capacity = doc.get("capacity")
    entries = doc.get("entries")
    if not isinstance(capacity, int) or not isinstance(entries, list):
        raise SealingError("history snapshot is structurally invalid")
    return capacity, entries


def seal_snapshot(sealer, history: QueryHistory) -> bytes:
    """Serialise and seal a history table (inside the enclave, with the
    enclave's own :class:`~repro.sgx.sealing.EnclaveSealer`)."""
    return sealer.seal(snapshot_history(history), aad=_AAD)


def open_snapshot(sealer, blob: bytes) -> tuple:
    """Unseal and parse a sealed snapshot into ``(capacity, entries)``;
    fails closed with :class:`~repro.errors.SealingError`."""
    return decode_snapshot(sealer.unseal(blob, aad=_AAD))
