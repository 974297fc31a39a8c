#!/usr/bin/env python3
"""Extensions tour: HTTPS to the engine + sealed history across restarts.

Two features beyond the paper's prototype (both anticipated in its text):

1. footnote 2 — the enclave speaks HTTPS to the search engine, pinning a
   CA and authenticating the engine's certificate *inside* the TEE;
2. sealing — the proxy seals its past-query table to its own measurement
   so a redeployed proxy resumes warm instead of going through the
   cold-start window where queries get fewer fakes.

Run:  python examples/warm_restart_https.py
"""

from repro.core.broker import Broker
from repro.core.gateway import TlsServerConfig
from repro.core.proxy import XSearchProxyHost
from repro.crypto.https import CertificateAuthority
from repro.crypto.rsa import RsaKeyPair
from repro.search import SearchEngine, TrackingSearchEngine
from repro.sgx.attestation import AttestationService, QuotingEnclave
from repro.sgx.sealing import SealingPlatform


def build_proxy(engine, *, sealing_platform, ca, tls_config,
                attestation_service, quoting_enclave):
    return XSearchProxyHost(
        TrackingSearchEngine(engine),
        k=3,
        history_capacity=10_000,
        rng_seed=5,
        quoting_enclave=quoting_enclave,
        attestation_service=attestation_service,
        sealing_platform=sealing_platform,
        engine_ca_key=ca.public_key,
        engine_tls_config=tls_config,
    )


def attested_broker(proxy, attestation_service, session_id):
    broker = Broker(
        proxy,
        service_public_key=attestation_service.public_key,
        expected_measurement=proxy.measurement,
        session_id=session_id,
    )
    broker.connect()
    return broker


def main():
    # --- PKI for the search engine's HTTPS endpoint -------------------
    ca = CertificateAuthority(1024)
    engine_key = RsaKeyPair(1024)
    certificate = ca.issue("engine.example.com", engine_key.public)
    tls_config = TlsServerConfig(certificate=certificate, key=engine_key)
    print("Engine certificate issued by the CA the enclave pins:")
    print(f"  subject: {certificate.subject}")

    # --- Attestation + sealing infrastructure -------------------------
    attestation_service = AttestationService(1024)
    quoting_enclave = QuotingEnclave(1024)
    attestation_service.provision_platform(quoting_enclave)
    platform = SealingPlatform()  # the physical CPU's sealing root

    engine = SearchEngine.with_synthetic_corpus(seed=2)
    common = dict(
        sealing_platform=platform, ca=ca, tls_config=tls_config,
        attestation_service=attestation_service,
        quoting_enclave=quoting_enclave,
    )

    # --- First deployment: accumulate history over HTTPS --------------
    proxy = build_proxy(engine, **common)
    broker = attested_broker(proxy, attestation_service, "gen-1")
    broker.ingest([f"organic traffic {i} hotel rome" for i in range(50)])
    results = broker.search("cheap hotel rome", limit=10)
    print(f"\nGeneration 1: {len(results)} results over HTTPS; "
          f"history holds {len(proxy.enclave._instance._history)} queries")

    proxy.checkpoint_now()
    blob = proxy.history_checkpoint
    print(f"History sealed: {len(blob)} opaque bytes handed to the host")

    # --- 'Restart': a fresh enclave, same code, same platform ---------
    proxy2 = build_proxy(engine, **common)
    restored = proxy2.absorb_history(blob)
    print(f"\nGeneration 2 (after restart): restored {restored} queries")
    broker2 = attested_broker(proxy2, attestation_service, "gen-2")
    broker2.search("diabetes symptoms", limit=10)
    observed = proxy2.gateway._engine.observations[-1]
    print("First post-restart query already fully obfuscated:")
    print(f"  engine saw: {observed.text}")

    # --- The sealing guarantee -----------------------------------------
    foreign_platform = SealingPlatform()
    proxy3 = build_proxy(engine, **{**common,
                                    "sealing_platform": foreign_platform})
    try:
        proxy3.absorb_history(blob)
    except Exception as exc:
        print(f"\nRestore on a different physical platform: rejected\n"
              f"  ({exc})")


if __name__ == "__main__":
    main()
