"""EPC-metered LRU cache of filtered result pages, kept inside the enclave.

The proxy's degraded mode uses it: the last filtered results per
original user query (and result limit) are kept so that, when the engine
stays unreachable after every retry, the proxy can still answer with a
reply flagged ``degraded`` instead of an error.  Only *filtered* result
sets are stored, so nothing about the fake queries leaks through it.

Cost: entries are charged byte-for-byte to the enclave's
:class:`~repro.sgx.runtime.EnclaveMemory` under a single key, so the
cache competes with the query-history table for EPC pages and Figure 6's
paging pressure applies to it unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import EnclaveError
from repro.sim import hooks

# Per-entry bookkeeping overhead (dict slot, key string, LRU links).
ENTRY_OVERHEAD_BYTES = 96


@dataclass
class CacheStats:
    """Lookup, insertion and eviction counters."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0


class ResultCache:
    """A byte-bounded LRU map from a query key to its result page.

    ``max_bytes`` bounds the cache's own accounting; the attached
    :class:`~repro.sgx.runtime.EnclaveMemory` (when provided) is kept in
    sync under ``memory_key`` so the EPC model sees every growth, shrink
    and eviction.  All operations are lock-protected — the proxy serves
    sessions from multiple TCS threads.
    """

    def __init__(self, max_bytes: int, *, enclave_memory=None,
                 memory_key: str = None):
        if max_bytes <= 0:
            raise EnclaveError("result cache byte budget must be positive")
        self.max_bytes = max_bytes
        self._memory = enclave_memory
        self._memory_key = memory_key
        self._entries = OrderedDict()  # key -> (value, nbytes)
        self._bytes = 0
        # Sim-aware: ``put`` carries a cooperative step point inside the
        # critical section (the hammer test injects EPC pressure there),
        # so simulated threads must yield rather than block on it.
        self._lock = hooks.SimAwareLock("result_cache")
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Lookup / insertion
    # ------------------------------------------------------------------
    def get(self, key: str):
        """The cached value, refreshed as most-recently-used; None on miss.

        A hit touches the backing EPC allocation, so a cache that was
        swapped out under memory pressure pays the page-fault cost before
        serving — hits are not free under a saturated EPC.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self._touch_memory()
            return entry[0]

    def put(self, key: str, value, nbytes: int = None) -> None:
        """Insert (or refresh) an entry, evicting LRU entries over budget."""
        if nbytes is None:
            nbytes = self._estimate(key, value)
        if nbytes > self.max_bytes:
            # A single oversized page would evict everything for nothing.
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, nbytes)
            new_bytes = self._bytes + nbytes
            # Step point inside the critical section: the concurrency
            # hammer fires EPC pressure spikes here, which is safe
            # exactly because the lock serialises every cache-side EPC
            # mutation around the spike.
            hooks.step("cache.put", bytes=new_bytes,
                       entries=len(self._entries))
            self._bytes = new_bytes
            self.stats.insertions += 1
            while self._bytes > self.max_bytes:
                _, (_, evicted_bytes) = self._entries.popitem(last=False)
                self._bytes -= evicted_bytes
                self.stats.evictions += 1
            self._charge_memory_locked()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def byte_size(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def integrity_report(self) -> dict:
        """Audit the byte accounting against the live entries.

        Recomputes the footprint from the stored per-entry sizes and
        checks the budget is respected; the hammer test and the sim's
        history-integrity oracle assert ``consistent`` after every run.
        Sizes and counts only — no keys or cached payloads.
        """
        with self._lock:
            recomputed = sum(nbytes for _, nbytes in
                             self._entries.values())
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "recomputed_bytes": recomputed,
                "max_bytes": self.max_bytes,
                "consistent": (self._bytes == recomputed
                               and self._bytes <= self.max_bytes),
            }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _estimate(key: str, value) -> int:
        from repro.sgx.runtime import estimate_size

        return (len(key.encode("utf-8")) + estimate_size(value)
                + ENTRY_OVERHEAD_BYTES)

    def _charge_memory_locked(self) -> None:
        if self._memory is None:
            return
        if self._bytes == 0:
            if self._memory_key in self._memory:
                self._memory.delete(self._memory_key)
            return
        self._memory.store(self._memory_key, None, nbytes=self._bytes)

    def _touch_memory(self) -> None:
        if self._memory is not None and self._memory_key in self._memory:
            self._memory.load(self._memory_key)
