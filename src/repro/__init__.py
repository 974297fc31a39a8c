"""X-Search reproduction: private web search on (simulated) Intel SGX.

A full, from-scratch Python reproduction of *X-Search: Revisiting Private
Web Search using Intel SGX* (Ben Mokhtar et al., Middleware 2017):

* :mod:`repro.core` — the X-Search proxy, broker and client (the paper's
  contribution: Algorithms 1 and 2 inside an attested enclave);
* :mod:`repro.sgx` — a software model of SGX (enclaves, EPC, attestation);
* :mod:`repro.crypto` — ChaCha20-Poly1305, DH, HKDF, RSA from scratch;
* :mod:`repro.search` — a BM25 search engine with Bing-style OR semantics;
* :mod:`repro.datasets` — a synthetic AOL-style query-log generator;
* :mod:`repro.attacks` — the SimAttack re-identification adversary;
* :mod:`repro.baselines` — Tor, PEAS, TrackMeNot, GooPIR, QueryScrambler,
  RAC, Dissent and Direct;
* :mod:`repro.pir` — the §2.1.3 alternative: two-server XOR PIR search;
* :mod:`repro.net` — discrete-event network / queueing simulation;
* :mod:`repro.analysis` — the analytical adversary-model comparison;
* :mod:`repro.experiments` — one module per paper figure (1, 3-7).

Quickstart::

    from repro.core import DeploymentConfig, XSearchDeployment

    deployment = XSearchDeployment.create(config=DeploymentConfig(k=3, seed=7))
    results = deployment.client.search("hotel rome cheap flights")
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
