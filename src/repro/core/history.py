"""The table of past queries kept inside the enclave (paper §4.1/§4.3).

X-Search "does not maintain individual profile structures associated to
each user.  Instead, it only updates a table containing the last x past
queries" — a sliding window over *all* users' queries, stored in the
enclave's protected memory with no correlation to the identity of their
originating users.  The table is shared among every thread crossing into
the enclave, so access is lock-protected.

Because the EPC is bounded (~90 MiB), the window size x bounds memory: the
table meters its byte footprint against an :class:`EnclaveMemory` when one
is attached, which is how Figure 6's memory curve is produced.

Metering is *segmented*: entries are charged to fixed-size segments, each
its own EPC allocation.  Below the EPC limit this is invisible; above it,
the EPC starts swapping the oldest segments out — appends stay cheap (they
touch only the newest segment) but Algorithm 1's uniform random sampling
faults cold segments back in, reproducing the paging penalty §5.3.3 names
as SGX's second bottleneck.
"""

from __future__ import annotations

import random
from collections import deque

from repro.errors import EnclaveError
from repro.sim import hooks

# Conservative per-entry overhead: Python string header + deque slot.
# What matters for Figure 6 is that the accounting is consistent and
# byte-proportional to the stored text, like the C++ prototype's std::string.
ENTRY_OVERHEAD_BYTES = 56

# Entries per metering segment; ~2048 short queries ≈ a few dozen EPC pages.
SEGMENT_ENTRIES = 2048

_DEFAULT_NAMESPACE = "xsearch.query_history"


class QueryHistory:
    """Bounded FIFO store of the last ``capacity`` queries (variable H).

    The two operations of Algorithm 1 are supported: uniform random
    sampling of past queries (``H[random(m)]``) and appending the current
    query after obfuscation (``H ← Q``).
    """

    def __init__(self, capacity: int, *, enclave_memory=None,
                 memory_namespace: str = _DEFAULT_NAMESPACE):
        if capacity <= 0:
            raise EnclaveError("history capacity must be positive")
        self.capacity = capacity
        self._namespace = memory_namespace
        self._entries = deque()
        self._bytes = 0
        # Sim-aware: the critical sections below contain cooperative
        # step points, so under simulation a blocked acquirer must yield
        # to the scheduler instead of wedging the run token.
        self._lock = hooks.SimAwareLock("history")
        self._memory = enclave_memory
        # Absolute entry counters: segment of absolute index a is
        # a // SEGMENT_ENTRIES.
        self._total_added = 0
        self._total_evicted = 0
        # segment number -> byte size of its live entries
        self._segment_bytes = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, query_text: str) -> None:
        """Append a query, evicting the oldest when the window is full."""
        if not isinstance(query_text, str) or not query_text:
            raise EnclaveError("history entries must be non-empty strings")
        with self._lock:
            size = self._entry_size(query_text)
            self._entries.append(query_text)
            # Read-then-publish byte accounting with a step point in
            # between: under the simulation the scheduler may hand
            # control to another appender exactly here, which is what
            # lets the mutation gate prove a dropped lock tears the
            # accounting.
            new_bytes = self._bytes + size
            hooks.step("history.append", bytes=new_bytes,
                       entries=len(self._entries))
            self._bytes = new_bytes
            self._charge_segment_locked(self._total_added, size)
            self._total_added += 1
            while len(self._entries) > self.capacity:
                evicted = self._entries.popleft()
                evicted_size = self._entry_size(evicted)
                self._bytes -= evicted_size
                self._charge_segment_locked(self._total_evicted, -evicted_size)
                self._total_evicted += 1

    def extend(self, query_texts) -> None:
        """Bulk-append (used to warm the proxy with real traffic)."""
        for text in query_texts:
            self.add(text)

    # ------------------------------------------------------------------
    # Sampling (Algorithm 1, line 7)
    # ------------------------------------------------------------------
    def sample(self, count: int, rng: random.Random) -> list:
        """Draw ``count`` past queries uniformly at random with replacement.

        Faithful to Algorithm 1, which evaluates ``H[random(m)]``
        independently per fake query (duplicates are possible).  Returns
        fewer than ``count`` entries only when the history is empty.

        With an attached enclave memory, sampling *touches* the EPC
        segment holding each drawn entry: cold (swapped) segments fault
        back in with their cryptographic cost.
        """
        if count < 0:
            raise EnclaveError("cannot sample a negative number of queries")
        with self._lock:
            if not self._entries:
                return []
            out = []
            for _ in range(count):
                position = rng.randrange(len(self._entries))
                self._touch_segment_locked(self._total_evicted + position)
                out.append(self._entries[position])
            return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def byte_size(self) -> int:
        """Metered footprint of the table (Figure 6's y-axis)."""
        with self._lock:
            return self._bytes

    def snapshot(self) -> list:
        """A copy of the window, oldest first (test/debug use only —
        nothing outside the enclave may call this in a deployment)."""
        with self._lock:
            return list(self._entries)

    def integrity_report(self) -> dict:
        """Audit the byte/counter accounting against the entries.

        Recomputes the footprint from first principles and compares it
        with the incrementally-maintained counters; the simulation's
        history-integrity oracle calls this (through an ecall) after
        every run — torn updates from a racing appender show up as an
        inconsistent report.  Sizes and counts only: no entry text.
        """
        with self._lock:
            recomputed = sum(self._entry_size(text)
                             for text in self._entries)
            segment_total = sum(self._segment_bytes.values())
            live = self._total_added - self._total_evicted
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "recomputed_bytes": recomputed,
                "segment_bytes": segment_total,
                "total_added": self._total_added,
                "total_evicted": self._total_evicted,
                "consistent": (
                    self._bytes == recomputed
                    and segment_total == recomputed
                    and live == len(self._entries)
                    and len(self._entries) <= self.capacity
                ),
            }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _entry_size(text: str) -> int:
        return len(text.encode("utf-8")) + ENTRY_OVERHEAD_BYTES

    def _segment_key(self, number: int) -> str:
        return f"{self._namespace}.seg{number}"

    def _charge_segment_locked(self, absolute_index: int, delta: int) -> None:
        number = absolute_index // SEGMENT_ENTRIES
        new_size = self._segment_bytes.get(number, 0) + delta
        if new_size < 0:
            raise EnclaveError("segment accounting underflow")  # defensive
        if new_size == 0:
            self._segment_bytes.pop(number, None)
            if self._memory is not None:
                key = self._segment_key(number)
                if key in self._memory:
                    self._memory.delete(key)
            return
        self._segment_bytes[number] = new_size
        if self._memory is not None:
            self._memory.store(self._segment_key(number), number,
                               nbytes=new_size)

    def _touch_segment_locked(self, absolute_index: int) -> None:
        if self._memory is None:
            return
        key = self._segment_key(absolute_index // SEGMENT_ENTRIES)
        if key in self._memory:
            self._memory.load(key)  # faults the segment in if swapped
