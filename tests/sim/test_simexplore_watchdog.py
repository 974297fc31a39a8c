"""The sweep's per-world watchdog: a hung world is a reported failure.

A deadlocked world used to stall ``tools/simexplore.py`` with nothing
printed (its per-run lines sat in a block buffer).  The explorer now
runs every world under a time limit; past it, the world's seed and
interleaving are printed as a failure and the process exits 1.
"""

from __future__ import annotations

import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)

#: Runs the real CLI with ``run_sim`` replaced by a world that never
#: finishes and the limit cut to half a second.
HANGING_SWEEP = """
import sys
import threading

import simexplore
import repro.sim.explore as explore_module

def hang(spec):
    threading.Event().wait()

explore_module.run_sim = hang
simexplore.WORLD_TIME_LIMIT = 0.5
sys.exit(simexplore.main(["--seeds", "1", "--first-seed", "7"]))
"""


def test_a_hung_world_is_reported_and_fails_the_sweep():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tools")]
    )
    # stdout is a pipe here, as in a redirected nightly run.
    done = subprocess.run(
        [sys.executable, "-c", HANGING_SWEEP],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        timeout=60,
    )
    assert done.returncode == 1, done.stderr
    assert "FAIL seed=7 interleaving=0" in done.stdout
    assert "hung: still running after 0.5 s" in done.stdout
    assert "in hang" in done.stdout     # the stuck thread's stack
