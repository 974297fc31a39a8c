"""Deterministic simulation testing (DST) for the X-Search reproduction.

FoundationDB-style: a seeded :class:`~repro.sim.scheduler.SimScheduler`
owns every task switch at the cooperative step points the core layers
expose through :mod:`repro.sim.hooks`, so a whole deployment — replica
cluster, failover, checkpoint/absorb, client traffic, fault schedules —
runs through randomized but *fully reproducible* interleavings.  Any
failing seed replays byte-identically (same trace digest), and the
:mod:`~repro.sim.invariants` oracles turn the paper's claims into
pass/fail checks over each run.

Import layering: the core modules import :mod:`repro.sim.hooks` (a
dependency-free leaf whose step function is a no-op outside
simulation), so this package eagerly exposes only the leaf modules and
lazy-loads everything that imports the core back (``world``,
``invariants``, ``explore``, ``mutation``) via PEP 562.
"""

from repro.sim import hooks
from repro.sim.hooks import SimAwareLock, step
from repro.sim.scheduler import SimDeadlockError, SimError, SimScheduler
from repro.sim.trace import SimTrace

__all__ = [
    "hooks",
    "step",
    "SimAwareLock",
    "SimScheduler",
    "SimError",
    "SimDeadlockError",
    "SimTrace",
    # Lazy (import the core, so they load on first use only):
    "invariants",
    "world",
    "explore",
    "mutation",
    "WorldSpec",
    "SimReport",
    "run_sim",
    "chaos_schedule",
    "shared_infrastructure",
    "ExploreResult",
    "shrink",
    "INVARIANTS",
    "MUTATIONS",
    "apply_mutation",
]

#: attribute -> (module, attribute-or-None) resolved on first access.
_LAZY = {
    "invariants": ("repro.sim.invariants", None),
    "world": ("repro.sim.world", None),
    "explore": ("repro.sim.explore", None),
    "mutation": ("repro.sim.mutation", None),
    "WorldSpec": ("repro.sim.world", "WorldSpec"),
    "SimReport": ("repro.sim.world", "SimReport"),
    "run_sim": ("repro.sim.world", "run_sim"),
    "chaos_schedule": ("repro.sim.world", "chaos_schedule"),
    "shared_infrastructure": ("repro.sim.world", "shared_infrastructure"),
    "ExploreResult": ("repro.sim.explore", "ExploreResult"),
    "shrink": ("repro.sim.explore", "shrink"),
    "INVARIANTS": ("repro.sim.invariants", "INVARIANTS"),
    "MUTATIONS": ("repro.sim.mutation", "MUTATIONS"),
    "apply_mutation": ("repro.sim.mutation", "apply_mutation"),
}


def __getattr__(name):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.sim' has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(module_name)
    value = module if attribute is None else getattr(module, attribute)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
