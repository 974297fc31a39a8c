#!/usr/bin/env python3
"""Quickstart: a private web search through X-Search in ~20 lines.

Stands up the whole Figure 2 pipeline — attestation service, SGX enclave
proxy, client-side broker — runs one private search and shows both what
the *user* received and what the *search engine* was able to observe.

Run:  python examples/quickstart.py
"""

from repro.core import DeploymentConfig, XSearchDeployment


def main():
    # One call wires client <-> broker <-> enclave proxy <-> search engine,
    # performs remote attestation and establishes the encrypted tunnel.
    deployment = XSearchDeployment.create(config=DeploymentConfig(k=3, seed=7))

    # Model other users' traffic so the proxy has real past queries to use
    # as fakes (a production proxy accumulates these naturally).
    deployment.warm_history([
        "diabetes symptoms", "nba playoffs schedule", "mortgage refinance",
        "wedding venue flowers", "gardening roses pruning", "nfl draft",
        "laptop reviews cheap", "rome weather forecast", "puppy adoption",
        "recipe chicken casserole",
    ])

    query = "cheap hotel rome flight"
    results = deployment.client.search(query, limit=10)

    print(f"Private search for: {query!r}")
    print(f"Enclave measurement: {deployment.proxy.measurement}")
    print(f"Broker attested the enclave: {deployment.broker.attested}\n")

    print("What the user received (filtered, tracking-free):")
    for result in results[:5]:
        print(f"  {result.rank:>2}. {result.title:<40} {result.url}")

    observation = deployment.tracking.observations[-1]
    print("\nWhat the search engine observed:")
    print(f"  source:  {observation.source}  (the proxy, not the user)")
    print(f"  query:   {observation.text}")
    print("\nThe real query hides among real past queries of other users —")
    print("the engine cannot tell which of the OR'd sub-queries is yours.")


if __name__ == "__main__":
    main()
