"""The Figure 5 load harness: virtual determinism, knee scaling and
coalescing, wall-clock bookkeeping for every topology, the replica-kill
availability run, and the bench gates.

The virtual mode is the tier-1 pin: a single-threaded discrete-event
sweep whose every simulated batch executes the real pipeline, so two
runs with the same seed must produce byte-identical digests (trace
digest included).  The scaling/coalescing assertions mirror the bench
gates: 4 workers sustain ≥ 2× the 1-worker knee, and past the knee the
mean ecalls-per-request drops below 1.0.  Wall-clock runs here are
deliberately tiny: they check the harness's bookkeeping, not the
performance numbers (``xsearch-experiments bench`` gates those).
"""

from __future__ import annotations

import json

import pytest

from repro.core.cluster import HashRing
from repro.experiments import fig5_availability, load, runner
from repro.experiments.load import Cluster, InProcess, Server

RATES = (100, 300, 1200)
KW = dict(duration_seconds=0.2, seed=7, k=2, limit=1, rates=RATES)
SERVER_KW = dict(rates=(40, 160), duration_seconds=0.25, seed=5, k=2)


@pytest.fixture(scope="module")
def four_workers():
    return load.run_virtual(InProcess(4), **KW)


@pytest.fixture(scope="module")
def one_worker():
    return load.run_virtual(InProcess(1), **KW)


@pytest.fixture(scope="module")
def server_virtual():
    return load.run_virtual(Server(2), **SERVER_KW)


VIRTUAL_CASES = {
    "in-process": ("four_workers", InProcess(4), KW, "virtual"),
    "server": ("server_virtual", Server(2), SERVER_KW, "server-virtual"),
}


@pytest.mark.parametrize("case", sorted(VIRTUAL_CASES))
def test_virtual_mode_same_seed_is_byte_identical(case, request):
    fixture, topology, kwargs, _ = VIRTUAL_CASES[case]
    first = request.getfixturevalue(fixture)
    again = load.run_virtual(topology, **kwargs)
    assert first.digest() == again.digest()
    assert first.summary() == again.summary()
    assert first.trace_digest == again.trace_digest


@pytest.mark.parametrize("case", sorted(VIRTUAL_CASES))
def test_virtual_summary_shape_and_invariants(case, request):
    fixture, topology, kwargs, mode = VIRTUAL_CASES[case]
    result = request.getfixturevalue(fixture)
    summary = result.summary()
    assert summary["mode"] == mode
    assert summary["max_workers"] == topology.workers
    assert [p["offered_rps"] for p in summary["points"]] == \
        list(kwargs["rates"])
    for point in summary["points"]:
        assert set(point) >= {
            "offered_rps", "achieved_rps", "p50_latency", "p99_latency",
            "ecalls_per_request", "mean_batch_size", "batch_histogram",
            "errors", "sheds",
        }
    assert all(point.requests > 0 and point.ecalls > 0
               and point.errors == 0 and point.sheds == 0
               for point in result.points)
    # The trace oracles (balanced boundaries, host-plaintext,
    # single-outcome) hold, with the wire in the pipeline for Server.
    assert result.trace_digest["invariants_ok"]
    assert summary["traces"]["invariants_ok"] is True
    assert mode in load.format_table(result)


def test_server_virtual_traces_cover_the_wire(server_virtual):
    span_counts = server_virtual.trace_digest["span_counts"]
    assert span_counts.get("server.dispatch")
    assert span_counts.get("client.call")


def test_different_seed_changes_digest(server_virtual):
    other = load.run_virtual(Server(2), **{**SERVER_KW, "seed": 6})
    assert server_virtual.digest() != other.digest()


def test_four_workers_at_least_double_the_knee(four_workers, one_worker):
    assert one_worker.saturation_rps > 0
    assert four_workers.saturation_rps >= 2 * one_worker.saturation_rps


def test_coalescing_amortises_ecalls_under_saturation(one_worker):
    saturated = one_worker.saturated_points()
    assert saturated, "ladder never crossed the knee"
    mean = sum(p.ecalls_per_request for p in saturated) / len(saturated)
    assert mean < 1.0
    # And batches really grew: the histogram is not all size-1.
    assert any(size > 1
               for point in saturated
               for size in point.batch_histogram)


def test_latency_rises_past_the_knee(one_worker):
    first, last = one_worker.points[0], one_worker.points[-1]
    assert last.p50_latency > first.p50_latency


@pytest.mark.parametrize("topology,mode", [
    (InProcess(2), "wall"),
    (Cluster(1), "wall"),
    (Cluster(2), "wall"),
    (Server(2), "server-wall"),
], ids=["in-process", "cluster-1", "cluster-2", "server"])
def test_wall_sweep_bookkeeping(topology, mode):
    result = load.run_wall(topology, rates=(20,), duration_seconds=0.2,
                           lanes=4, engine_latency=0.005)
    assert result.mode == mode
    (point,) = result.points
    assert point.requests > 0
    assert point.errors == 0
    assert point.sheds == 0
    assert result.peak_rps > 0
    # Request ecalls are read once per deployment: replicas share the
    # registry that backs every replica's boundary counter.
    assert point.ecalls_per_request <= 1.0 + 1e-9
    # Every topology measures its scheduler's batches.
    assert point.mean_batch_size >= 1.0
    assert load.format_table(result)
    if isinstance(topology, Cluster):
        summary = result.summary()
        assert summary["replicas"] == topology.replicas
        assert sum(summary["sessions_per_replica"].values()) == 4
        assert len(set(summary["sessions_per_replica"].values())) == 1
        assert f"replicas {topology.replicas}" in load.format_table(result)


def test_lane_failures_are_counted_not_dropped(monkeypatch):
    def unreachable(self, *args):
        raise ConnectionRefusedError("engine down")

    monkeypatch.setattr(load.PacedEngine, "search", unreachable)
    monkeypatch.setattr(load.PacedEngine, "search_or", unreachable)
    result = load.run_wall(InProcess(1), rates=(20,), duration_seconds=0.2,
                           lanes=2, engine_latency=0.005)
    (point,) = result.points
    assert point.requests == 0
    assert point.errors == len(load._arrivals(20, 0.2, load.WALL_SEED))
    assert result.summary()["points"][0]["errors"] == point.errors


def test_server_points_count_sheds(monkeypatch):
    class OneInFlight(load.XSearchServer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **{**kwargs, "max_inflight": 1})

    monkeypatch.setattr(load, "XSearchServer", OneInFlight)
    result = load.run_wall(Server(2), rates=(400,), duration_seconds=0.2,
                           lanes=4, engine_latency=0.005)
    (point,) = result.points
    assert point.sheds > 0
    assert result.summary()["points"][0]["sheds"] == point.sheds
    assert "sheds" in load.format_table(result)


def test_balanced_session_ids_spread_lanes_evenly():
    for replicas in (1, 2, 4):
        ids = Cluster(replicas)._balanced_session_ids(16)
        assert len(ids) == len(set(ids)) == 16
        ring = HashRing([f"replica-{i}" for i in range(replicas)],
                        vnodes=64)
        counts = {}
        for session_id in ids:
            owner = ring.route(session_id)
            counts[owner] = counts.get(owner, 0) + 1
        assert set(counts.values()) == {16 // replicas}


def test_kill_one_is_deterministic_and_survives_the_kill():
    result = fig5_availability.run_kill_one(clients=4, total_requests=20)
    again = fig5_availability.run_kill_one(clients=4, total_requests=20)
    assert result.summary() == again.summary()
    assert result.availability == 1.0
    assert result.killed_replica is not None
    assert len(result.survivors) == 1
    assert result.reconnects == result.moved_sessions >= 1
    assert "killed" in fig5_availability.format_kill_one(result)


def test_bench_fails_and_names_a_gate_out_of_reach(monkeypatch, tmp_path,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(load, "BENCH", (
        load.Sweep("scheduler.tiny", InProcess(1), mode="virtual",
                   rates=(50,), duration_seconds=0.05),
    ))
    monkeypatch.setattr(load, "GATES", (
        load.Gate("scheduler.within_reach",
                  lambda r: r["scheduler.tiny"].saturation_rps, ">=", 50),
        load.Gate("scheduler.out_of_reach",
                  lambda r: r["scheduler.tiny"].saturation_rps, ">=", 1e9),
    ))
    assert runner.main(["bench"]) == 1
    err = capsys.readouterr().err
    assert "out_of_reach" in err
    assert "within_reach" not in err
    with open(load.FIG5_PATH) as handle:
        gates = json.load(handle)["scheduler"]["gates"]
    assert gates["within_reach"]["ok"] is True
    assert gates["out_of_reach"] == {
        "value": 50, "threshold": ">= 1000000000.0", "ok": False,
    }
