"""The end-user web client.

A deliberately thin layer: the paper notes that "X-Search can be used with
third-party clients issuing regular HTTP requests, such as wget or curl" —
all the protection lives in the broker and the proxy.  The client just
forwards queries to the local broker and renders results.
"""

from __future__ import annotations

from repro.core.broker import DEFAULT_LIMIT, Broker
from repro.core.retry import RetryPolicy
from repro.errors import ProtocolError


class XSearchClient:
    """What the user's browser talks to.

    ``search`` and ``search_batch`` share the broker's uniform call
    surface: keyword-only ``limit``, ``timeout`` (total, including
    retries) and ``retry_policy`` (overrides the broker's enclave-loss
    recovery policy for one call).
    """

    def __init__(self, broker: Broker, *, user_id: str = "local-user"):
        self._broker = broker
        self.user_id = user_id
        self.queries_sent = 0

    @property
    def last_degraded(self) -> bool:
        """Whether the most recent response was served in degraded mode."""
        return self._broker.last_degraded

    def search(self, query: str, *, limit: int = DEFAULT_LIMIT,
               timeout: float = None,
               retry_policy: RetryPolicy = None) -> list:
        """Execute a private web search through the local broker."""
        if not query or not query.strip():
            raise ProtocolError("cannot search an empty query")
        if not self._broker.is_connected:
            self._broker.connect()
        self.queries_sent += 1
        return self._broker.search(
            query.strip(), limit=limit, timeout=timeout,
            retry_policy=retry_policy,
        )

    def search_batch(self, queries, *, limit: int = DEFAULT_LIMIT,
                     timeout: float = None,
                     retry_policy: RetryPolicy = None) -> list:
        """Execute several private searches in one proxy round trip.

        An empty batch is a no-op: it returns ``[]`` without connecting,
        encrypting or paying an enclave transition.
        """
        queries = [query.strip() for query in queries]
        if not queries:
            return []
        if any(not query for query in queries):
            raise ProtocolError("cannot search empty queries")
        if not self._broker.is_connected:
            self._broker.connect()
        self.queries_sent += len(queries)
        return self._broker.search_batch(
            queries, limit=limit, timeout=timeout,
            retry_policy=retry_policy,
        )
