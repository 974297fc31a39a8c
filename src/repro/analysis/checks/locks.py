"""Lock-discipline checker: shared mutable state only under its lock.

The proxy serves sessions from multiple TCS threads (paper §4.1), so
the pooled/shared objects — connection pool, descriptor table, degraded
cache, history, trace recorder, metrics — all guard their state with a
lock.  The discipline is declarative: :data:`LOCK_MAP` names, per
class, which attributes each lock guards, and this checker proves every
lexical access happens inside a ``with self.<lock>:`` block.  Methods
whose name ends in ``_locked`` (the repo's caller-holds-the-lock
convention) and ``__init__`` (object not yet shared) are exempt.

A second rule orders acquisitions: :data:`LOCK_ORDER` is the sanctioned
outermost-to-innermost order, and lexically nesting a ``with`` on an
earlier-ranked lock inside a later-ranked one is flagged — the classic
AB/BA deadlock shape, caught before a scheduler ever interleaves it.
"""

from __future__ import annotations

import ast

from repro.analysis.lint import Checker, register_checker

#: module -> class -> lock attribute -> guarded attributes.
LOCK_MAP = {
    "repro.core.cluster": {
        "SessionRouter": {
            "_ring_lock": ("_ring", "_pins", "_displaced", "_replicas"),
            "_health_lock": ("_states", "_losses"),
        },
    },
    "repro.core.proxy": {
        "XSearchEnclaveCode": {
            "_session_lock": ("_sessions",),
            "_pool_lock": ("_pool",),
            "_perf_lock": ("_perf",),
        },
        "XSearchProxyHost": {
            "_enclave_lock": ("enclave", "_closed"),
            "_checkpoint_lock": ("_requests_since_checkpoint",
                                 "_history_checkpoint"),
        },
    },
    "repro.core.scheduler": {
        "RequestScheduler": {
            "_queue_lock": ("_queue", "_active_sessions", "_closed"),
        },
    },
    "repro.core.gateway": {
        "EngineGateway": {
            "_fd_lock": ("_connections", "_next_fd"),
        },
    },
    "repro.core.history": {
        "QueryHistory": {
            "_lock": ("_entries", "_bytes", "_segment_bytes",
                      "_total_added", "_total_evicted"),
        },
    },
    "repro.core.result_cache": {
        "ResultCache": {
            "_lock": ("_entries", "_bytes"),
        },
    },
    "repro.netserve.server": {
        "XSearchServer": {
            "_state_lock": ("_state", "_connections", "_inflight"),
        },
    },
    "repro.netserve.client": {
        "RemoteTransport": {
            "_io_lock": ("_sock", "_server_info"),
        },
    },
    "repro.obs.tracing": {
        "TraceRecorder": {
            "_lock": ("_traces", "_orphan_events", "_dropped"),
        },
    },
    "repro.obs.metrics": {
        "Counter": {"_lock": ("_value",)},
        "Histogram": {"_lock": ("_recorder",)},
        "MetricsRegistry": {"_lock": ("_instruments",)},
    },
    "repro.sgx.runtime": {
        "Enclave": {
            "_concurrency_lock": ("_threads_inside", "_boundary_log"),
        },
        "CycleCounter": {
            "_lock": ("_ecall_named", "_ocall_named"),
        },
    },
}

#: Sanctioned acquisition order, outermost first.  Acquiring a lock
#: whose rank is *earlier* than one already held inverts the order.
LOCK_ORDER = (
    "_io_lock",         # client transport: never held into the server
    "_state_lock",      # server admission: leaf on the serving side —
                        # dispatch into the deployment runs outside it
    "_ring_lock",
    "_health_lock",
    "_queue_lock",
    "_enclave_lock",
    "_checkpoint_lock",
    "_session_lock",
    "_fd_lock",
    "_pool_lock",
    "_concurrency_lock",
    "_perf_lock",
    "_lock",
)

#: Methods exempt from the guarded-access rule: construction (the
#: object is not yet shared) and the caller-holds-the-lock convention.
_EXEMPT_METHODS = ("__init__", "__post_init__")
_HELD_SUFFIX = "_locked"


@register_checker
class LockDisciplineChecker(Checker):
    id = "locks"
    description = (
        "attributes shared across TCS/worker threads are touched only "
        "under their declared lock, acquired in the sanctioned order"
    )
    rules = {
        "XL001": "guarded attribute accessed outside its lock",
        "XL002": "lock acquired against the declared order",
    }

    def __init__(self, lock_map: dict = None, lock_order=None):
        self.lock_map = LOCK_MAP if lock_map is None else lock_map
        self.lock_order = (
            LOCK_ORDER if lock_order is None else tuple(lock_order)
        )

    def check(self, module, context):
        class_maps = self.lock_map.get(module.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            locks = (class_maps or {}).get(node.name)
            guard_of = {}
            if locks:
                guard_of = {
                    attr: lock
                    for lock, attrs in locks.items()
                    for attr in attrs
                }
            known_locks = set(locks or ())
            # The order rule also applies to classes outside the map:
            # any `with self.<something ending in _lock>` participates.
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                exempt = (
                    method.name in _EXEMPT_METHODS
                    or method.name.endswith(_HELD_SUFFIX)
                )
                yield from self._walk(
                    module, method.body, held=(),
                    guard_of=({} if exempt else guard_of),
                    known_locks=known_locks,
                )

    # ------------------------------------------------------------------
    # Recursive walk tracking lexically held locks
    # ------------------------------------------------------------------
    def _walk(self, module, body, *, held, guard_of, known_locks):
        for node in body:
            yield from self._visit(
                module, node, held=held, guard_of=guard_of,
                known_locks=known_locks,
            )

    def _visit(self, module, node, *, held, guard_of, known_locks):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # A nested function may run after the lock is released;
            # analysing its body with the current held-set would be
            # unsound in both directions, so skip it.
            return
        if isinstance(node, ast.With):
            acquired = []
            for item in node.items:
                lock = self._self_lock(item.context_expr, known_locks)
                if lock is None:
                    continue
                yield from self._check_order(module, node, held, lock)
                acquired.append(lock)
            yield from self._walk(
                module, node.body, held=held + tuple(acquired),
                guard_of=guard_of, known_locks=known_locks,
            )
            return
        if isinstance(node, ast.Attribute):
            lock = guard_of.get(node.attr)
            if (lock is not None and lock not in held
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                yield self.finding(
                    "XL001", module, node,
                    f"self.{node.attr} accessed without holding "
                    f"self.{lock}",
                    hint=f"wrap the access in `with self.{lock}:` or "
                         f"move it into a *{_HELD_SUFFIX} method the "
                         f"lock holder calls",
                )
        for child in ast.iter_child_nodes(node):
            yield from self._visit(
                module, child, held=held, guard_of=guard_of,
                known_locks=known_locks,
            )

    def _check_order(self, module, node, held, lock):
        if lock not in self.lock_order:
            return
        rank = self.lock_order.index(lock)
        for prior in held:
            if prior in self.lock_order and rank < self.lock_order.index(prior):
                yield self.finding(
                    "XL002", module, node,
                    f"acquires self.{lock} while holding self.{prior} "
                    f"(declared order: {' > '.join(self.lock_order)})",
                    hint="take the outer lock first, or hoist the "
                         "inner acquisition out of the critical "
                         "section",
                )

    @staticmethod
    def _self_lock(expr, known_locks):
        """``self.<lock>`` when expr acquires a lock attribute."""
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"):
            if expr.attr in known_locks or expr.attr.endswith("_lock") \
                    or expr.attr == "_lock":
                return expr.attr
        return None
