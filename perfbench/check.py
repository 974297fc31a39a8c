"""Output check: a fixed-seed prefix of each workload must reproduce the
results digest recorded in ``expected_digests.json``.

The check stands up a fresh deployment with fixed seeds (log, enclave
RNG) sharing the measured run's engine and attestation keys, warms it,
and replays a short prefix of the workload's query stream from one
client, sequentially, so every obfuscation draw is reproducible.
Every reply must decode, be non-degraded and hold at most ``limit``
results; every ingest ``Ack`` must count the queries sent.

When a change alters results on purpose, re-record with::

    python3 perfbench/check.py --record
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    import run

    run.pin_hash_seed()
    run.add_source_path()

from workloads import WORKLOADS, make_inputs

CHECK_SEED = 0
#: Searches (and, on mixed workloads, ingest batches) in the prefix.
PREFIX = 6
DIGEST_FILE = Path(__file__).resolve().parent / "expected_digests.json"


class OutputMismatch(Exception):
    """The program answered something other than what it must."""


def output_digest(workload, *, engine, attestation) -> tuple:
    """Replay the fixed-seed prefix; returns ``(sha256 hex, problems)``."""
    import harness

    inputs = make_inputs(CHECK_SEED)
    stack = harness.deploy(workload, CHECK_SEED, engine=engine,
                           attestation=attestation)
    problems = []
    records = []
    try:
        harness.connect_clients(stack, workload, 1)
        acked = stack.deployment.warm_history(inputs.warm)
        if acked != len(inputs.warm):
            problems.append(f"warm-up acknowledged {acked} of "
                            f"{len(inputs.warm)}")
        client = stack.clients[0]
        batches = inputs.ingest_batches()
        for query in inputs.stream[:PREFIX]:
            if workload.mixed:
                batch = next(batches)
                acked = client.broker.ingest(batch)
                if acked != len(batch):
                    problems.append(f"ingest of {len(batch)} acknowledged "
                                    f"as {acked}")
                records.append(["ingest", acked])
            results = client.client.search(query, limit=workload.limit)
            if len(results) > workload.limit:
                problems.append(f"{len(results)} results for limit "
                                f"{workload.limit}")
            if client.client.last_degraded:
                problems.append(f"degraded reply to {query!r}")
            records.append(["search", query, [
                [r.rank, r.url, r.title, r.snippet, r.score]
                for r in results
            ]])
    finally:
        stack.close()
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest(), problems


def expected_digest(name: str) -> str:
    return json.loads(DIGEST_FILE.read_text())[name]


def record(names) -> dict:
    """Recompute the digests of ``names`` (any problem aborts)."""
    import harness

    engine = harness.SearchEngine.with_synthetic_corpus(
        seed=harness.CORPUS_SEED)
    attestation = harness.attestation_pair(CHECK_SEED)
    digests = {}
    for name in names:
        digest, problems = output_digest(WORKLOADS[name], engine=engine,
                                         attestation=attestation)
        if problems:
            raise OutputMismatch(f"{name}: {problems}")
        digests[name] = digest
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected_digests.json")
    args = parser.parse_args(argv)
    digests = record(sorted(WORKLOADS))
    for name, digest in digests.items():
        print(f"{name}: {digest}")
    if args.record:
        DIGEST_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True)
                               + "\n")
        return 0
    recorded = json.loads(DIGEST_FILE.read_text())
    return 0 if recorded == digests else 1


if __name__ == "__main__":
    sys.exit(main())
