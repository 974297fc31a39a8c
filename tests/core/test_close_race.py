"""Regression: concurrent ``XSearchDeployment.close()`` vs. a dispatch.

The latent race: two threads call ``close()`` while a submitter sits
between taking a batch and issuing its ecall.  A closer that did not
wait for that crossing would tear the proxy down under it, failing an
in-flight request the drain had promised to finish.  The sim step hook
at ``scheduler.batch`` parks the submitter exactly in that window so
the race is driven deterministically.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.sim import hooks


#: The thread that submits the search, and so makes its crossing.
SEARCHER = "searcher"


class _ParkAtBatch:
    """A step controller that parks the searcher at the dispatch hook
    until released.  ``step()`` routes every thread's yields here, so
    the controller filters to the thread it means to hold."""

    def __init__(self):
        self.parked = threading.Event()
        self.release = threading.Event()

    def manages_current(self) -> bool:
        # No thread is sim-managed: lock waits stay native, only the
        # step hook below parks anything.
        return False

    def on_step(self, site, info):
        if site != "scheduler.batch":
            return
        if threading.current_thread().name != SEARCHER:
            return
        self.parked.set()
        assert self.release.wait(timeout=30), "controller never released"


@pytest.fixture()
def parked_controller():
    controller = _ParkAtBatch()
    hooks.install(controller)
    yield controller
    controller.release.set()
    hooks.uninstall(controller)


def _poll(predicate, *, steps=50, tick=0.02) -> bool:
    gate = threading.Event()
    for _ in range(steps):
        if predicate():
            return True
        gate.wait(tick)
    return predicate()


def test_concurrent_close_waits_for_inflight_dispatch(parked_controller):
    controller = parked_controller
    config = DeploymentConfig(seed=3, k=2, max_workers=1, connect=True)
    deployment = XSearchDeployment.create(config=config)
    outcome = {}

    def do_search():
        try:
            outcome["results"] = deployment.client.search(
                "cheap hotel rome", limit=3
            )
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            outcome["error"] = exc

    searcher = threading.Thread(target=do_search, name=SEARCHER,
                                daemon=True)
    searcher.start()
    assert controller.parked.wait(timeout=30), (
        "searcher never reached batch")

    closers = [threading.Thread(target=deployment.close, daemon=True)
               for _ in range(2)]
    for thread in closers:
        thread.start()
    # Both closers must wait for the parked crossing — neither may finish
    # while the dispatch is still in flight.
    assert not _poll(lambda: any(not t.is_alive() for t in closers))

    controller.release.set()
    searcher.join(timeout=30)
    for thread in closers:
        thread.join(timeout=30)
    assert not searcher.is_alive()
    assert not any(thread.is_alive() for thread in closers)

    # The drain kept its promise: the in-flight search succeeded.
    assert "error" not in outcome, f"in-flight search failed: {outcome}"
    assert outcome["results"]

    # And close stays idempotent after the concurrent pile-up.
    deployment.close()


def test_scheduler_close_from_many_threads_is_safe():
    config = DeploymentConfig(seed=4, k=2, max_workers=2, connect=True)
    deployment = XSearchDeployment.create(config=config)
    assert deployment.client.search("nfl playoffs", limit=2)
    closers = [threading.Thread(target=deployment.close, daemon=True)
               for _ in range(4)]
    for thread in closers:
        thread.start()
    for thread in closers:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in closers)
