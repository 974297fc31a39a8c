"""The xsearch-experiments CLI."""

import pytest

from repro.experiments import runner


def test_runner_lists_all_figures():
    assert set(runner.EXPERIMENTS) == {
        "fig1", "fig3", "fig4", "fig5", "fig5a", "fig6", "fig7"
    }


def test_runner_executes_one_figure(capsys):
    assert runner.main(["fig7", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert "X-Search" in out


def test_runner_executes_fig6(capsys):
    assert runner.main(["fig6", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "EPC" in out


def test_runner_rejects_unknown(capsys):
    with pytest.raises(SystemExit):
        runner.main(["fig2"])  # the architecture diagram is not a benchmark


def test_format_tables_render():
    from repro.experiments import fig5_throughput_latency, fig7_round_trip

    fig5 = fig5_throughput_latency.run(duration_seconds=0.3)
    assert "req/s" in fig5_throughput_latency.format_table(fig5)
    fig7 = fig7_round_trip.run(n_queries=20)
    assert "median" in fig7_round_trip.format_table(fig7)
