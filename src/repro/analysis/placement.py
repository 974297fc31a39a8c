"""The placement registry: which side of the trust boundary each module is.

X-Search's security argument is a *partitioning* claim (paper §4, §5.3.3):
plaintext queries and the history table exist only inside the enclave;
the host and the search engine see obfuscated traffic and ciphertext; the
client domain holds the other tunnel endpoint.  This module encodes that
partition as one declarative map over every ``repro.*`` module, and the
``xlint`` checkers (:mod:`repro.analysis.checks`) prove the source tree
respects it on every commit — statically, covering paths no test drives.

Placements (the first three are exactly the span placement tags
:mod:`repro.obs.tracing` emits, cross-checked by
``tests/analysis/test_placement.py``):

* ``enclave`` — trusted code; may hold plaintext and the history.
* ``host``    — untrusted cloud node / search-engine side; must never
  import or construct enclave-only state.
* ``client``  — the user's domain (broker, baselines); reaches the
  enclave only through the attested ecall bridge.
* ``neutral`` — shared substrate (errors, wire formats, crypto
  primitives, datasets, the lab harness) importable from anywhere.

``BRIDGE_MODULES`` are the few modules that *implement* the boundary —
they legitimately straddle it and are the only sanctioned route by which
host or client code reaches enclave code.
"""

from __future__ import annotations

from repro.obs.tracing import (
    PLACEMENT_CLIENT,
    PLACEMENT_ENCLAVE,
    PLACEMENT_HOST,
)

ENCLAVE = PLACEMENT_ENCLAVE
HOST = PLACEMENT_HOST
CLIENT = PLACEMENT_CLIENT
NEUTRAL = "neutral"

#: Every placement a module may declare.
MODULE_PLACEMENTS = (ENCLAVE, HOST, CLIENT, NEUTRAL)

#: Exact-name classifications (take precedence over package prefixes).
_EXACT = {
    "repro": NEUTRAL,
    "repro.cli": NEUTRAL,
    "repro.errors": NEUTRAL,
    "repro.textutils": NEUTRAL,
    # repro.core — classified file by file: this package is where the
    # partition actually cuts through.
    "repro.core": NEUTRAL,                 # package re-exports only
    "repro.core.broker": CLIENT,
    "repro.core.client": CLIENT,
    "repro.core.cluster": HOST,            # session routing: session ids,
                                           # ciphertext records and sealed
                                           # blobs only — never plaintext
    "repro.core.deployment": NEUTRAL,      # composition root (bridge)
    "repro.core.filtering": NEUTRAL,       # Algorithm 2 is a pure function;
                                           # PEAS-style baselines run it
                                           # client-side on their own query
                                           # (the taint is the data, which
                                           # obfuscate_query/QueryHistory
                                           # rules still pin to the enclave)
    "repro.core.gateway": HOST,
    "repro.core.history": ENCLAVE,
    "repro.core.obfuscation": ENCLAVE,
    "repro.core.persistence": ENCLAVE,
    "repro.core.protocol": NEUTRAL,        # wire format, both endpoints
    "repro.core.proxy": ENCLAVE,           # trusted logic (bridge: the
                                           # host supervisor shares it)
    "repro.core.result_cache": ENCLAVE,
    "repro.core.retry": NEUTRAL,
    "repro.core.scheduler": HOST,          # untrusted executor: holds
                                           # ciphertext records only
    "repro.core.walkthrough": NEUTRAL,
    # repro.netserve — the network serving layer: the frame codec is a
    # wire format (both endpoints), the TCP server runs on the
    # untrusted cloud node, the remote client lives in the user domain.
    "repro.netserve": NEUTRAL,             # package re-exports only
    "repro.netserve.wire": NEUTRAL,
    "repro.netserve.server": HOST,         # sees session ids, ciphertext
                                           # records and sizes — never
                                           # plaintext
    "repro.netserve.client": CLIENT,
    # repro.sgx — the platform model.
    "repro.sgx": NEUTRAL,
    "repro.sgx.attestation": NEUTRAL,      # quoting + client verification
    "repro.sgx.epc": NEUTRAL,
    "repro.sgx.measurement": NEUTRAL,
    "repro.sgx.runtime": NEUTRAL,          # the ecall/ocall bridge itself
    "repro.sgx.sealing": NEUTRAL,
}

#: Whole-package classifications (longest prefix wins; children inherit).
_PREFIXES = {
    "repro.analysis": NEUTRAL,     # this linter + analytical arguments
    "repro.attacks": HOST,         # the adversary runs on the untrusted side
    "repro.baselines": CLIENT,     # competing client-side systems
    "repro.crypto": NEUTRAL,       # primitives used by both endpoints
    "repro.datasets": NEUTRAL,
    "repro.experiments": NEUTRAL,  # lab harness (composes all parties)
    "repro.faults": NEUTRAL,       # injected at every layer
    "repro.metrics": NEUTRAL,
    "repro.net": NEUTRAL,
    "repro.obs": NEUTRAL,          # the tracing/metrics plane
    "repro.pir": CLIENT,           # PIR baseline (client-driven protocol)
    "repro.search": HOST,          # the search-engine substrate
    "repro.sim": NEUTRAL,          # DST harness: orchestrates all parties
                                   # from outside the trust boundary
}

#: Modules that implement the ecall/ocall boundary: the only sanctioned
#: path from host/client code into enclave code, exempt from the
#: import-direction rule (and free to open spans of any placement).
BRIDGE_MODULES = frozenset({
    "repro.core.proxy",        # XSearchEnclaveCode + XSearchProxyHost
    "repro.core.deployment",   # wires all parties together
    "repro.sgx.runtime",       # Enclave.call / OcallTable
})

#: Names whose *only* legitimate holders are enclave (or bridge) code:
#: importing or constructing them from a host/client module is a
#: plaintext/history leak by construction.
ENCLAVE_ONLY_NAMES = frozenset({
    "QueryHistory",            # the table of past plaintext queries
    "XSearchEnclaveCode",      # the trusted logic itself
    "HandshakeResponder",      # the enclave's channel endpoint (keys)
    "obfuscate_query",         # consumes plaintext + history
    "ObfuscatedQuery",         # carries the real query among the fakes
    "ResultCache",             # in-enclave caches (EPC-metered)
    "snapshot_history",        # plaintext history serialisation
    "decode_snapshot",         # parses the plaintext snapshot format
    "seal_snapshot",           # seals the plaintext history
    "open_snapshot",           # unseals into plaintext entries
})

#: Private attributes of the enclave object; reaching for them from
#: host/client code bypasses the ecall interface.
ENCLAVE_PRIVATE_ATTRS = frozenset({
    "_history", "_sessions", "_responder", "_degraded", "_sealer",
})

#: Modules whose *direct* wall-clock access is the sanctioned
#: implementation of the injectable clock abstraction.
WALL_CLOCK_CUSTODIANS = frozenset({"repro.net.clock"})

#: Module prefixes allowed to draw OS entropy (``secrets``/``os.urandom``)
#: even inside the deterministic scope: key generation and session-id
#: minting are *supposed* to be unpredictable.
ENTROPY_ALLOWLIST = (
    "repro.crypto",
    "repro.sgx.sealing",
    "repro.sgx.attestation",
    "repro.core.proxy",        # channel/session entropy when unseeded
    "repro.core.broker",       # session-id minting
    "repro.baselines",
    "repro.pir",
)

#: Module prefixes under the determinism discipline beyond the enclave:
#: fault schedules and experiments must replay bit-identically.
DETERMINISTIC_PREFIXES = (
    "repro.faults",
    "repro.experiments",
    "repro.sim",               # replayable by definition: any entropy or
                               # wall-clock read breaks seed reproduction
)

#: Module-name prefixes that place a module in the *test* scope: tests
#: must be virtual-time deterministic (wall-clock rules only — tests may
#: draw entropy, e.g. to generate throwaway keys).
TEST_SCOPE_PREFIXES = ("tests",)

#: The modules whose raises define the facade error contract: everything
#: crossing XSearchDeployment / Broker / the proxy surface must be a
#: ``repro.errors`` type (or an argument-validation builtin).
FACADE_MODULES = frozenset({
    "repro.core.deployment",
    "repro.core.broker",
    "repro.core.client",
    "repro.core.cluster",
    "repro.core.proxy",
})


def placement_of(module_name: str) -> str:
    """The declared placement of a module, or ``None`` if unclassified."""
    if module_name in _EXACT:
        return _EXACT[module_name]
    best, best_len = None, -1
    for prefix, placement in _PREFIXES.items():
        if module_name == prefix or module_name.startswith(prefix + "."):
            if len(prefix) > best_len:
                best, best_len = placement, len(prefix)
    return best


def is_bridge(module_name: str) -> bool:
    return module_name in BRIDGE_MODULES


def in_deterministic_scope(module_name: str) -> bool:
    """Whether the determinism checker covers this module."""
    if placement_of(module_name) == ENCLAVE or is_bridge(module_name):
        return True
    return any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in DETERMINISTIC_PREFIXES
    )


def in_test_scope(module_name: str) -> bool:
    """Whether the module is test code (wall-clock discipline only)."""
    return any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in TEST_SCOPE_PREFIXES
    )


def entropy_allowed(module_name: str) -> bool:
    return any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in ENTROPY_ALLOWLIST
    )


def classify(graph) -> dict:
    """Placement for every module in a graph (``None`` = unclassified)."""
    return {module.name: placement_of(module.name) for module in graph}


def unclassified(graph) -> list:
    """Modules the declarative map fails to cover (a lint error: every
    new module must take a side)."""
    return sorted(
        module.name for module in graph
        if placement_of(module.name) is None
        and module.name.startswith("repro")
    )


def verify_registry() -> list:
    """Internal consistency of the registry itself (used by tests and by
    ``run_checks`` as a preflight).  Returns a list of problem strings.
    """
    problems = []
    from repro.obs.tracing import PLACEMENTS as OBS_PLACEMENTS

    for tag in (ENCLAVE, HOST, CLIENT):
        if tag not in OBS_PLACEMENTS:
            problems.append(
                f"placement tag {tag!r} is not a repro.obs placement"
            )
    for tag in OBS_PLACEMENTS:
        if tag not in MODULE_PLACEMENTS:
            problems.append(
                f"repro.obs placement {tag!r} missing from the registry"
            )
    for name, value in {**_EXACT, **_PREFIXES}.items():
        if value not in MODULE_PLACEMENTS:
            problems.append(f"{name}: unknown placement {value!r}")
    for name in BRIDGE_MODULES | FACADE_MODULES:
        if placement_of(name) is None:
            problems.append(f"{name}: bridge/facade module is unclassified")
    return problems
