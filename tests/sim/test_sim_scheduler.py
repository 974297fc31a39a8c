"""Unit tests for the seeded cooperative scheduler itself.

These test the harness, not the system under test: the scheduler's
whole value is that (seed, interleaving) fully determines the run, so
every property here — identical schedules on identical seeds, replay
from a recorded decision list, lock-yield instead of native blocking,
deadlock detection — is load-bearing for the higher-level sim tests.
"""

from __future__ import annotations

import threading

import pytest

from repro.sim import (
    SimAwareLock,
    SimDeadlockError,
    SimError,
    SimScheduler,
    hooks,
)


def _run_counter_tasks(seed, *, interleaving=0, schedule=()):
    """Three tasks interleaving appends to a shared log."""
    sim = SimScheduler(seed, interleaving, schedule=schedule)
    log = []

    def worker(name, steps=4):
        def fn():
            for index in range(steps):
                hooks.step("tick", index=index)
                log.append((name, index))
        return fn

    for name in ("a", "b", "c"):
        sim.spawn(name, worker(name))
    hooks.install(sim)
    try:
        sim.run()
    finally:
        hooks.uninstall(sim)
    return sim, log


def test_same_seed_same_interleaving():
    sim1, log1 = _run_counter_tasks(seed=7)
    sim2, log2 = _run_counter_tasks(seed=7)
    assert sim1.schedule == sim2.schedule
    assert sim1.events == sim2.events
    assert log1 == log2


def test_different_seeds_differ():
    # Not guaranteed for any single pair, so scan a few: at least one
    # other seed must produce a different interleaving than seed 7.
    _, log7 = _run_counter_tasks(seed=7)
    assert any(
        _run_counter_tasks(seed=other)[1] != log7
        for other in (8, 9, 10, 11)
    )


def test_interleaving_index_varies_schedule():
    _, log0 = _run_counter_tasks(seed=7, interleaving=0)
    assert any(
        _run_counter_tasks(seed=7, interleaving=i)[1] != log0
        for i in (1, 2, 3)
    )


def test_replay_schedule_reproduces_run():
    sim1, log1 = _run_counter_tasks(seed=7)
    sim2, log2 = _run_counter_tasks(seed=999,  # RNG would differ...
                                    schedule=sim1.schedule)
    # ...but the explicit schedule overrides every decision.
    assert sim2.schedule == sim1.schedule
    assert log2 == log1


def test_partial_replay_composes_with_rng():
    sim1, _ = _run_counter_tasks(seed=7)
    prefix = sim1.schedule[:5]
    sim2, _ = _run_counter_tasks(seed=7, schedule=prefix)
    assert sim2.schedule[:5] == prefix
    # The run still completes: the RNG takes over after the prefix.
    assert len(sim2.schedule) >= len(prefix)


def test_task_error_propagates():
    sim = SimScheduler(seed=1)

    def boom():
        hooks.step("pre")
        raise ValueError("injected task failure")

    sim.spawn("boom", boom)
    hooks.install(sim)
    try:
        with pytest.raises(ValueError, match="injected task failure"):
            sim.run()
    finally:
        hooks.uninstall(sim)


def test_sim_aware_lock_yields_and_serialises():
    sim = SimScheduler(seed=3)
    lock = SimAwareLock("shared")
    inside = []

    def worker(name):
        def fn():
            for _ in range(3):
                with lock:
                    inside.append(name)
                    hooks.step("critical", who=name)
                    # No other task may have entered while we yielded.
                    assert inside[-1] == name
                    inside.pop()
        return fn

    for name in ("x", "y"):
        sim.spawn(name, worker(name))
    hooks.install(sim)
    try:
        sim.run()
    finally:
        hooks.uninstall(sim)
    assert inside == []


def test_deadlock_detected():
    sim = SimScheduler(seed=5)
    lock_a = SimAwareLock("a")
    lock_b = SimAwareLock("b")

    def grab(first, second):
        def fn():
            with first:
                hooks.step("held-one")
                with second:
                    hooks.step("held-both")
        return fn

    sim.spawn("ab", grab(lock_a, lock_b))
    sim.spawn("ba", grab(lock_b, lock_a))
    hooks.install(sim)
    try:
        # Classic lock-order inversion: some interleavings deadlock,
        # others slip through.  Whatever happens must be *detected*
        # (SimDeadlockError), never a native hang.
        try:
            sim.run()
        except SimDeadlockError:
            pass
    finally:
        hooks.uninstall(sim)


def test_unmanaged_threads_fall_through():
    sim = SimScheduler(seed=1)
    sim.spawn("only", lambda: hooks.step("noop"))
    hooks.install(sim)
    try:
        # The (unmanaged) test thread steps natively: no-op, no record.
        hooks.step("from-test-thread")
        assert not sim.events
        lock = SimAwareLock("native")
        with lock:
            assert lock.locked()
        sim.run()
    finally:
        hooks.uninstall(sim)
    assert [site for _, site, _ in sim.events] == ["noop"]


def test_single_controller_enforced():
    sim = SimScheduler(seed=1)
    hooks.install(sim)
    try:
        with pytest.raises(RuntimeError):
            hooks.install(SimScheduler(seed=2))
    finally:
        hooks.uninstall(sim)
    assert hooks.current_controller() is None


def test_step_is_a_noop_without_a_controller():
    assert hooks.current_controller() is None
    hooks.step("outside-a-run")  # a no-op: must not raise


def test_run_is_single_shot():
    sim = SimScheduler(seed=1)
    sim.spawn("t", lambda: None)
    hooks.install(sim)
    try:
        sim.run()
        with pytest.raises(SimError):
            sim.run()
        with pytest.raises(SimError):
            sim.spawn("late", lambda: None)
    finally:
        hooks.uninstall(sim)


def test_max_steps_bounds_livelock():
    sim = SimScheduler(seed=1, max_steps=20)
    stop = threading.Event()

    def spinner():
        while not stop.is_set():
            hooks.step("spin")

    sim.spawn("spinner", spinner)
    hooks.install(sim)
    try:
        with pytest.raises(SimError, match="max_steps"):
            sim.run()
    finally:
        stop.set()
        hooks.uninstall(sim)
