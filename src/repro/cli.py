"""``xsearch-demo``: a one-shot private web search from the command line.

Stands up a full deployment, runs the query, prints the results and the
privacy ledger (what every party observed).  The paper points out that
X-Search works "with third-party clients issuing regular HTTP requests,
such as wget or curl" — this is the curl of the reproduction.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.deployment import DeploymentConfig, XSearchDeployment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one private web search through X-Search "
                    "(simulated SGX deployment)."
    )
    parser.add_argument("query", nargs="+", help="the search query")
    parser.add_argument("-k", type=int, default=3,
                        help="number of fake queries (default 3)")
    parser.add_argument("--limit", type=int, default=10,
                        help="number of results (default 10)")
    parser.add_argument("--seed", type=int, default=7,
                        help="deployment seed (default 7)")
    parser.add_argument("--ledger", action="store_true",
                        help="also print what each party observed")
    args = parser.parse_args(argv)
    query = " ".join(args.query)

    deployment = XSearchDeployment.create(
        config=DeploymentConfig(k=args.k, seed=args.seed))
    deployment.warm_history(
        [f"ambient traffic {i} term{i % 31}" for i in range(50)]
    )
    results = deployment.client.search(query, limit=args.limit)

    print(f"# {len(results)} results for {query!r} (k={args.k})\n")
    for result in results:
        print(f"{result.rank:>3}. {result.title}")
        print(f"     {result.url}")
    if not results:
        print("(no results — try vocabulary from the synthetic corpus, "
              "e.g. 'cheap hotel rome')")

    if args.ledger:
        observation = deployment.tracking.observations[-1]
        print("\n# privacy ledger")
        print(f"enclave measurement : {deployment.proxy.measurement}")
        print(f"broker attested     : {deployment.broker.attested}")
        print(f"engine saw source   : {observation.source}")
        print(f"engine saw query    : {observation.text}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
