"""The taint registry: what is secret, what launders it, what leaks it.

Every table in this module is *declarative* — the engine
(:mod:`repro.analysis.dataflow.engine`) consults them by name, never by
importing the code it judges — and every entry encodes one piece of the
paper's security argument:

* **sources** introduce taint: the plaintext user query (and everything
  decrypted out of the client tunnel), channel/session key material, and
  nonces/counters feeding the ChaCha20 path.
* **sanitizers** remove it: the AEAD encrypt path (ciphertext is safe to
  show the host by construction), digest/fingerprint helpers (one-way),
  :func:`repro.errors.scrub` (redacts before a message crosses the
  boundary), and Algorithm 1's ``as_or_query`` — the *deliberate*
  disclosure whose privacy argument is k-anonymity among fakes, not
  secrecy.
* **sinks** are where the untrusted host (or a committed artifact) could
  observe a value: host-side logging, wire sends, host-placed span
  attributes and obs events, exception messages crossing the bridge,
  and BENCH/report serialization.

How to classify a new function is documented in
``docs/STATIC_ANALYSIS.md`` §dataflow; keep these tables sorted so
engine output stays deterministic.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Taint kinds
# ---------------------------------------------------------------------------

#: The plaintext user query, decrypted tunnel payloads, history contents.
TAINT_PLAINTEXT = "plaintext"
#: Channel/session/seal key material and DH secrets.
TAINT_KEY = "key"
#: AEAD nonces and the counters they are built from.
TAINT_NONCE = "nonce"

TAINT_KINDS = (TAINT_PLAINTEXT, TAINT_KEY, TAINT_NONCE)

# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------

#: Call results that are tainted wherever they appear (matched on the
#: rightmost name of the callee): decryption and unsealing *produce*
#: plaintext; key derivation *produces* key material.
SOURCE_CALLS = {
    "aead_decrypt": TAINT_PLAINTEXT,
    "decode_snapshot": TAINT_PLAINTEXT,
    "decrypt": TAINT_PLAINTEXT,
    "derive_subkeys": TAINT_KEY,
    "hkdf": TAINT_KEY,
    "hkdf_expand": TAINT_KEY,
    "hkdf_extract": TAINT_KEY,
    "open_snapshot": TAINT_PLAINTEXT,
    "shared_secret": TAINT_KEY,
    "snapshot_history": TAINT_PLAINTEXT,
    "unseal": TAINT_PLAINTEXT,
}

#: Attribute reads that seed taint by name, wherever the object came
#: from: ``request.query``, ``obfuscated.fake_queries`` …  These cover
#: objects whose construction the engine did not see (ecall arguments,
#: decoded wire messages).
SOURCE_ATTRIBUTES = {
    "fake_queries": TAINT_PLAINTEXT,
    "plaintext": TAINT_PLAINTEXT,
    "queries": TAINT_PLAINTEXT,
    "query": TAINT_PLAINTEXT,
    "_recv_key": TAINT_KEY,
    "_send_key": TAINT_KEY,
}

#: Function parameters that seed taint by name: a function that takes a
#: ``query`` holds plaintext no matter who calls it (the interprocedural
#: summaries additionally taint parameters from concrete call sites).
SOURCE_PARAMS = {
    "fake_queries": TAINT_PLAINTEXT,
    "nonce": TAINT_NONCE,
    "plaintext": TAINT_PLAINTEXT,
    "queries": TAINT_PLAINTEXT,
    "query": TAINT_PLAINTEXT,
    "recv_key": TAINT_KEY,
    "send_key": TAINT_KEY,
}

# ---------------------------------------------------------------------------
# Sanitizers
# ---------------------------------------------------------------------------

#: Declassifiers (matched on the rightmost callee name): the result is
#: clean *and* the engine remembers the laundered value — a tainted
#: alias of a declassified value reaching a sink is XT004, not XT001.
DECLASSIFIER_CALLS = frozenset({
    "aead_encrypt",        # ciphertext is host-safe by construction
    "as_or_query",         # Algorithm 1's deliberate k-anonymous disclosure
    "chacha20_encrypt",
    "digest",
    "encrypt",             # ChannelEndpoint.encrypt and friends
    "fingerprint",
    "hexdigest",
    "scrub",               # repro.errors.scrub: boundary-safe rendering
    "seal",                # sealed blobs are ciphertext
})

#: Structurally clean builtins: the result carries sizes, counts or type
#: facts, never the secret bytes.  (Deliberately *not* recorded as
#: declassification for XT004 — ``len(query)`` is not an attempt to
#: launder the query.)
STRUCTURAL_CLEAN_CALLS = frozenset({
    "abs", "all", "any", "bool", "callable", "count", "float",
    "getrandbits", "hash", "id", "index", "int", "isinstance",
    "issubclass", "len", "max", "min", "ord", "round", "sum", "type",
})

# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------

#: Logging method names (on a receiver whose name mentions ``log``) plus
#: ``print``: host-visible once the module is host-placed, and never an
#: acceptable place for key material anywhere.
LOG_METHODS = frozenset({
    "critical", "debug", "error", "exception", "info", "log", "warning",
})

#: Receiver-name fragments that mark a call like ``logger.info(...)`` as
#: logging (so ``self.info`` on a domain object does not count).
LOG_RECEIVER_HINTS = ("log",)

#: Socket/wire send methods: a tainted payload handed to one of these in
#: a host-placed module goes straight onto an untrusted wire.
SEND_METHODS = frozenset({"send", "sendall"})

#: Serialization calls whose output lands in committed BENCH/report
#: artifacts (checked in experiment/obs modules for plaintext; for key
#: material they are a sink everywhere).
SERIALIZE_CALLS = frozenset({"dump", "dumps"})

#: Module prefixes whose serialization output is a committed artifact.
SERIALIZE_SINK_PREFIXES = ("repro.experiments", "repro.obs")

#: Span/event attribute names that legitimately carry derived metadata
#: on host-placed spans (sizes, counts, outcomes, retry bookkeeping).
#: This is the obs-attribute allowlist: everything else on a host span
#: is checked for taint.  Suffix matches mirror the volatile-attribute
#: convention in :mod:`repro.obs.tracing`.
SAFE_ATTRIBUTE_NAMES = frozenset({
    "attempt", "batch_size", "degraded", "entries", "error", "k",
    "limit", "op", "outcome", "placement", "replica", "status",
})
SAFE_ATTRIBUTE_SUFFIXES = (
    "_bytes", ".bytes", "_count", ".count", "_seconds", ".seconds",
)

#: Uniqueness arguments per encrypt primitive: keyword name ->
#: positional index (keywords always honoured).  The XT003 reuse scan
#: flags two calls on one path whose *entire* uniqueness tuple is
#: unchanged — for the raw ChaCha20 primitives that is ``(counter,
#: nonce)`` (the same nonce with a bumped counter is correct streaming),
#: for the AEAD wrapper the nonce alone (the counter is internal).
ENCRYPT_NONCE_POSITIONS = {
    "aead_encrypt": {"nonce": 1},
    "chacha20_block": {"counter": 1, "nonce": 2},
    "chacha20_encrypt": {"counter": 1, "nonce": 2},
}


def is_safe_attribute(name: str) -> bool:
    """Whether a span/event attribute name is allowlisted metadata."""
    return (
        name in SAFE_ATTRIBUTE_NAMES
        or name.endswith(SAFE_ATTRIBUTE_SUFFIXES)
    )


def is_log_call(receiver: str, method: str) -> bool:
    """``logger.info`` yes; ``self.info`` no; bare ``print`` is handled
    separately by the engine."""
    if method not in LOG_METHODS:
        return False
    head = receiver.rsplit(".", 1)[-1].lower()
    return any(hint in head for hint in LOG_RECEIVER_HINTS)
