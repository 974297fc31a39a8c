"""Cooperative step points for deterministic simulation.

The simulation harness (:mod:`repro.sim.scheduler`) needs to control
*when* each concurrent actor in the deployment makes progress.  Rather
than patching the interpreter, the core modules call :func:`step` at
their interesting interleaving points — batch dispatch, cache insert,
history append, checkpoint, failover, heal — and this module routes the
call to whatever controller is installed.

Outside a simulation the fast path is a single global ``is None`` test,
mirroring how :func:`repro.faults.plan.decide` tolerates a missing
plan: production code pays essentially nothing for being simulable.

Threads the controller does not manage (say a background worker the
test did not spawn through the sim) fall through to native behaviour,
so a partially-simulated deployment still makes progress.
"""

from __future__ import annotations

import threading

__all__ = [
    "step",
    "install",
    "uninstall",
    "current_controller",
    "SimAwareLock",
]

#: The installed controller, or None outside a simulation.  Reads are
#: racy by design: a torn read can only see None (native behaviour) or
#: a fully-constructed controller, both of which are safe.
_CONTROLLER = None

_install_lock = threading.Lock()


def step(site: str, **info) -> None:
    """Announce a cooperative yield point named ``site``.

    No-op unless a simulation controller is installed *and* it manages
    the calling thread.  ``info`` carries small, deterministic details
    (sizes, replica ids) that the controller folds into its trace.
    """
    controller = _CONTROLLER
    if controller is None:
        return
    controller.on_step(site, info)


def install(controller) -> None:
    """Install ``controller`` as the process-wide simulation controller.

    Only one controller may be active at a time; nesting simulations
    would make the recorded schedules ambiguous.
    """
    global _CONTROLLER
    with _install_lock:
        if _CONTROLLER is not None:
            raise RuntimeError("a simulation controller is already installed")
        _CONTROLLER = controller


def uninstall(controller) -> None:
    """Remove ``controller``; tolerant of a prior uninstall."""
    global _CONTROLLER
    with _install_lock:
        if _CONTROLLER is controller:
            _CONTROLLER = None


def current_controller():
    """The active controller, or None (for probes and tests)."""
    return _CONTROLLER


class SimAwareLock:
    """A mutex that yields to the simulation instead of blocking.

    Drop-in replacement for ``threading.Lock`` on locks whose critical
    sections *contain* step points (history, degraded cache): a managed
    thread that finds the lock held parks at a ``lock.wait:<name>``
    step so the scheduler can run the holder forward.  Unmanaged
    threads block natively, exactly like a plain lock.
    """

    def __init__(self, name: str = "lock"):
        self._inner = threading.Lock()
        self._name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        controller = _CONTROLLER
        if controller is None or not controller.manages_current():
            if timeout == -1:
                return self._inner.acquire(blocking)
            return self._inner.acquire(blocking, timeout)
        if not blocking:
            return self._inner.acquire(False)
        while not self._inner.acquire(blocking=False):
            controller.on_step(f"lock.wait:{self._name}", {})
        return True

    def release(self) -> None:
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False
