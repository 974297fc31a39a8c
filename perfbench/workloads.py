"""The benchmark's workloads and the inputs each one is driven with.

A workload fixes the deployment shape (k, result limit, history size,
in-process or over loopback TCP), the traffic mix and the open-loop
rate.  Inputs come only from ``generate_log(seed=...)``: the first
``WARM_QUERIES`` logged queries model past traffic and warm the history,
the rest, shuffled by the seed, are what the clients search for and
ingest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.proxy import DEFAULT_HISTORY_CAPACITY
from repro.datasets.generator import generate_log

#: Logged queries ingested during set-up, before the first timed request.
WARM_QUERIES = 2000
#: Queries per ``Broker.ingest`` call in the ingest phases.
INGEST_BATCH = 100
#: Client threads (or TCP connections) driving each workload: ``nproc``
#: of the reference box, so clients never outnumber cores.
CLIENTS = 2
#: Scheduler worker threads of every deployment.
MAX_WORKERS = 2
#: Request kinds a workload's clients send.
SEARCH = "search"
INGEST = "ingest"


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one deployment shape.

    ``open_rate`` is the fixed Poisson arrival rate (searches/s) of the
    open-loop phase, about a quarter of the closed-loop ``tput_rps``
    measured on the reference box: loaded but far enough from
    saturation that the box's own speed drift is not amplified by
    queueing into the tail percentiles.  ``mix`` is the cycle of request kinds every
    client sends: a ``mixed`` workload alternates an ingest batch with
    each search, so writes always run beside reads in a fixed ratio.
    """

    name: str
    why: str
    k: int
    limit: int
    open_rate: float
    remote: bool = False
    mixed: bool = False
    history_capacity: int = DEFAULT_HISTORY_CAPACITY

    @property
    def mix(self) -> tuple:
        return (INGEST, SEARCH) if self.mixed else (SEARCH,)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="search-page20",
            why=("in-process, k=3, 20-result pages: the largest sealed "
                 "replies, so crypto, protocol and filtering dominate"),
            k=3, limit=20, open_rate=9.5,
        ),
        Workload(
            name="remote-k7",
            why=("loopback TCP through XSearchServer, k=7, 3 results: 8 "
                 "engine sub-queries per search and the only wire crossing"),
            k=7, limit=3, open_rate=16.0, remote=True,
        ),
        Workload(
            name="ingest-mix",
            why=("ingest batches into an evicting 2000-entry history "
                 "alternate with k=3, 10-result searches on every client"),
            k=3, limit=10, open_rate=7.0, mixed=True,
            history_capacity=WARM_QUERIES,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything the program receives, derived from one seed."""

    warm: tuple
    stream: tuple

    def searches(self):
        """Search queries from the start of the stream, cycling when a
        run outlasts them."""
        return _cycle(self.stream)

    def ingest_batches(self):
        """``INGEST_BATCH``-query batches from the second half of the
        stream, so ingests and searches draw on different queries."""
        middle = len(self.stream) // 2
        queries = _cycle(self.stream[middle:] + self.stream[:middle])
        while True:
            yield tuple(next(queries) for _ in range(INGEST_BATCH))


def make_inputs(seed: int) -> Inputs:
    """The query log for ``seed``: its chronological head warms the
    history as past traffic; the rest, shuffled with the same seed, is
    what the clients send, so every run samples the whole log rather
    than the few users active in one stretch of it."""
    texts = [query.text for query in generate_log(seed=seed)]
    stream = texts[WARM_QUERIES:]
    random.Random(seed).shuffle(stream)
    return Inputs(warm=tuple(texts[:WARM_QUERIES]), stream=tuple(stream))


def _cycle(items):
    while True:
        yield from items
