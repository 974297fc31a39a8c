"""Seeded cooperative scheduler: the heart of deterministic simulation.

FoundationDB-style DST rests on one idea: if a single authority decides
every scheduling choice from a seeded RNG, then any failure reproduces
exactly by replaying the same seed.  :class:`SimScheduler` is that
authority.  Tasks are ordinary threads, but each one is gated on a
private event and only ever runs while it holds the (conceptual) run
token; at every :func:`repro.sim.hooks.step` call the task hands the
token back and the scheduler picks — seeded-randomly or from a replay
schedule — who runs next.

The handoff protocol is deliberately simple and race-free:

* task, inside ``on_step``: set the control event, wait on its own
  gate, clear the gate;
* scheduler: wait for control, clear it, choose a ready task, set that
  task's gate.

Exactly one thread is runnable at any instant, so the interleaving is
a pure function of (seed, interleaving index) — or of an explicit
``schedule`` when replaying a shrunk failure.
"""

from __future__ import annotations

import random
import threading

from repro.errors import ReproError

__all__ = [
    "SimError",
    "SimDeadlockError",
    "SimTask",
    "SimScheduler",
]

#: Consecutive all-blocked rounds before declaring deadlock.  Lock
#: spinners re-enter ``lock.wait:*`` sites on every grant, so a genuine
#: deadlock shows up as an unbroken run of wait-site steps.
_DEADLOCK_PATIENCE = 64


class SimError(ReproError):
    """A simulation-harness failure (distinct from failures *found*)."""


class SimDeadlockError(SimError):
    """Every ready task is parked on a lock wait site."""


_WAIT_PREFIX = "lock.wait:"


class SimTask:
    """One scheduled actor: a real thread gated by the scheduler."""

    def __init__(self, name: str, fn, scheduler: "SimScheduler"):
        self.name = name
        self.gate = threading.Event()
        self.done = False
        self.error = None
        self.result = None
        self.last_site = "spawn"
        self._scheduler = scheduler
        self.thread = threading.Thread(
            target=self._run, args=(fn,), name=f"sim:{name}", daemon=True
        )

    def _run(self, fn):
        # Wait for the first grant before touching any shared state.
        self.gate.wait()
        self.gate.clear()
        try:
            self.result = fn()
        except BaseException as exc:  # noqa: BLE001 - reported, not hidden
            self.error = exc
        finally:
            self.done = True
            self._scheduler._control.set()


class SimScheduler:
    """Runs spawned tasks one step at a time under a seeded RNG.

    ``schedule`` replays an explicit decision sequence (task names);
    once it is exhausted the seeded RNG takes over, so a recorded
    prefix composes with fresh exploration during shrinking.
    """

    def __init__(
        self,
        seed: int,
        interleaving: int = 0,
        *,
        schedule=(),
        max_steps: int = 50_000,
    ):
        self.seed = seed
        self.interleaving = interleaving
        self.max_steps = max_steps
        self._rng = random.Random(f"sim:{seed}:{interleaving}")
        self._replay = list(schedule)
        self._tasks = []
        self._by_ident = {}
        self._control = threading.Event()
        self._current = None
        #: Chosen task name per scheduling round — the replayable schedule.
        self.schedule = []
        #: (task, site, info) per step — the interleaving trace.
        self.events = []
        self._started = False
        self._draining = False

    # ------------------------------------------------------------------
    # Task management
    # ------------------------------------------------------------------
    def spawn(self, name: str, fn) -> SimTask:
        if self._started:
            raise SimError("spawn after run() is not supported")
        task = SimTask(name, fn, self)
        self._tasks.append(task)
        return task

    def manages_current(self) -> bool:
        return threading.get_ident() in self._by_ident

    # ------------------------------------------------------------------
    # Controller protocol (called from task threads via hooks.step)
    # ------------------------------------------------------------------
    def on_step(self, site: str, info: dict) -> None:
        task = self._by_ident.get(threading.get_ident())
        if task is None:
            return  # unmanaged thread: native behaviour
        if self._draining:
            return  # post-run drain: free-run to completion, unrecorded
        task.last_site = site
        self.events.append((task.name, site, dict(info)))
        self._control.set()
        task.gate.wait()
        task.gate.clear()

    # ------------------------------------------------------------------
    # Main loop (called from the test thread)
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Drive every task to completion; raises the first task error."""
        if self._started:
            raise SimError("SimScheduler.run() may only be called once")
        self._started = True
        for task in self._tasks:
            task.thread.start()
            self._by_ident[task.thread.ident] = task

        steps = 0
        blocked_rounds = 0
        try:
            while True:
                ready = [t for t in self._tasks if not t.done]
                if not ready:
                    break
                if steps >= self.max_steps:
                    raise SimError(
                        f"exceeded max_steps={self.max_steps}; "
                        f"likely livelock at "
                        f"{[(t.name, t.last_site) for t in ready]}"
                    )
                if all(
                    t.last_site.startswith(_WAIT_PREFIX) for t in ready
                ):
                    blocked_rounds += 1
                    if blocked_rounds > _DEADLOCK_PATIENCE:
                        raise SimDeadlockError(
                            "all tasks parked on wait sites: "
                            + ", ".join(
                                f"{t.name}@{t.last_site}" for t in ready
                            )
                        )
                else:
                    blocked_rounds = 0
                chosen = self._choose(ready)
                self.schedule.append(chosen.name)
                self._control.clear()
                chosen.gate.set()
                self._control.wait()
                steps += 1
        finally:
            # Release any still-parked tasks so their threads can exit
            # even when we raise (deadlock, max_steps, task error).
            self._release_stragglers()

        for task in self._tasks:
            if task.error is not None:
                raise task.error

    def _choose(self, ready):
        while self._replay:
            name = self._replay.pop(0)
            for task in ready:
                if task.name == name:
                    return task
            # Replayed task already finished (schedule was shrunk);
            # fall through to the next replay entry or the RNG.
        return ready[self._rng.randrange(len(ready))]

    def _release_stragglers(self):
        self._draining = True
        for task in self._tasks:
            task.gate.set()
        for task in self._tasks:
            task.thread.join(timeout=5.0)
