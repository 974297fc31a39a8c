"""Builders shared by the netserve test modules."""

from __future__ import annotations

import random
import socket

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.netserve.client import RemoteClient


def make_deployment(engine=None, **overrides):
    params = dict(seed=7, k=2)
    params.update(overrides)
    return XSearchDeployment.create(
        config=DeploymentConfig(**params), engine=engine
    )


def make_client(deployment, server, **kwargs):
    kwargs.setdefault("user_id", "netserve-test")
    return RemoteClient(
        server.address,
        service_public_key=deployment.attestation_service.public_key,
        expected_measurement=deployment.proxy.measurement,
        **kwargs,
    )


def raw_connect(server, timeout=5.0):
    """A bare socket to the server, for protocol-level tests."""
    return socket.create_connection(server.address, timeout=timeout)


class ChunkedSocket:
    """A fake socket whose ``recv`` hands out ``data`` in chunks of
    1..``max_chunk`` bytes (seeded), then EOF — the short reads a real
    TCP stream may deliver."""

    def __init__(self, data: bytes, *, max_chunk: int = 7, seed: int = 0):
        self._data = memoryview(bytes(data))
        self._max_chunk = max_chunk
        self._rng = random.Random(seed)

    def recv(self, count: int) -> bytes:
        size = min(count, self._rng.randint(1, self._max_chunk))
        chunk, self._data = self._data[:size], self._data[size:]
        return bytes(chunk)

    @property
    def pending_bytes(self) -> int:
        return len(self._data)
