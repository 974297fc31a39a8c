"""``repro.faults`` — the deterministic fault-injection plane.

The availability story of the reproduction: a seedable
:class:`~repro.faults.plan.FaultPlan` injects engine connection drops,
timeouts and garbled frames, enclave crash-and-restart, attestation
transients and EPC pressure spikes into the live stack
(:class:`~repro.core.gateway.EngineGateway`,
:class:`~repro.sgx.runtime.Enclave`,
:class:`~repro.core.proxy.XSearchProxyHost`), exercising the recovery
machinery — retry policies, automatic enclave respawn with sealed
history restore, and cache-backed degraded mode.

Fault injection is off by default: nothing consults a plan unless one is
explicitly installed, and the no-plan path adds zero boundary crossings.
See ``docs/API.md`` for a quickstart and
:mod:`repro.experiments.fig5_availability` for the robustness benchmark
built on top.
"""

from repro.faults.plan import (
    ENGINE_SITES,
    KIND_BUG,
    KIND_CRASH,
    KIND_DROP,
    KIND_GARBLE,
    KIND_PRESSURE,
    KIND_REFUSE,
    KIND_SLOWLORIS,
    KIND_TIMEOUT,
    KIND_TRANSIENT,
    SERVER_SITES,
    SITE_ATTESTATION,
    SITE_ECALL,
    SITE_ENGINE_CONNECT,
    SITE_ENGINE_RECV,
    SITE_ENGINE_SEND,
    SITE_EPC,
    SITE_SERVER_ACCEPT,
    SITE_SERVER_RECV,
    SITE_SERVER_SEND,
    FaultPlan,
    InjectedFault,
)

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "SITE_ENGINE_CONNECT",
    "SITE_ENGINE_SEND",
    "SITE_ENGINE_RECV",
    "SITE_ECALL",
    "SITE_EPC",
    "SITE_ATTESTATION",
    "SITE_SERVER_ACCEPT",
    "SITE_SERVER_RECV",
    "SITE_SERVER_SEND",
    "ENGINE_SITES",
    "SERVER_SITES",
    "KIND_REFUSE",
    "KIND_DROP",
    "KIND_TIMEOUT",
    "KIND_GARBLE",
    "KIND_CRASH",
    "KIND_PRESSURE",
    "KIND_TRANSIENT",
    "KIND_SLOWLORIS",
    "KIND_BUG",
]
