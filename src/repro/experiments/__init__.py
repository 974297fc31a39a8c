"""Experiment harness: one module per figure of the paper's evaluation.

* :mod:`~repro.experiments.fig1_fake_queries` — CCDF of fake-query
  similarity (PEAS, TrackMeNot, and X-Search as an extension);
* :mod:`~repro.experiments.fig3_reidentification` — SimAttack
  re-identification rate vs k (X-Search vs PEAS);
* :mod:`~repro.experiments.fig4_accuracy` — precision/recall of the
  filtered results vs k;
* :mod:`~repro.experiments.fig5_throughput_latency` — open-loop saturation
  sweeps (X-Search, PEAS, Tor);
* :mod:`~repro.experiments.fig5_availability` — availability under a
  seeded fault schedule (enclave kill + engine outages, ``fig5a``) and
  through a deterministic replica kill;
* :mod:`~repro.experiments.load` — Figure 5 measured on the real
  deployment: one open-loop harness over three topologies (in-process
  scheduler, replica cluster, loopback server), a deterministic
  virtual-clock sweep and a wall-clock sweep, and the benchmark smoke
  run with its gates as data (``bench``);
* :mod:`~repro.experiments.fig6_memory` — enclave memory vs stored
  queries against the EPC limit;
* :mod:`~repro.experiments.fig7_round_trip` — end-to-end RTT CDFs
  (Direct, X-Search, Tor).

All experiments flow from :class:`~repro.experiments.context.ExperimentContext`
(seeded dataset + adversary + engine) and are runnable via the
``xsearch-experiments`` CLI (:mod:`~repro.experiments.runner`).
"""

from repro.experiments.context import ContextConfig, ExperimentContext

__all__ = ["ExperimentContext", "ContextConfig"]
