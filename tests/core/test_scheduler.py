"""RequestScheduler: coalescing without a timed wait, per-session FIFO,
failure isolation (untyped failures included), replayed records, worker
survival and shutdown semantics.

The policy tests run against a scripted fake proxy (deterministic, no
threads inside), the integration tests against a real deployment in
concurrent mode.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.deployment import DeploymentConfig, XSearchDeployment
from repro.core.protocol import SearchRequest, SearchResponse
from repro.core.proxy import XSearchEnclaveCode, XSearchProxyHost
from repro.core.scheduler import RequestScheduler
from repro.crypto.channel import HandshakeInitiator
from repro.errors import (
    AuthenticationError,
    EnclaveError,
    EngineUnavailableError,
    ReproError,
)
from repro.obs import MetricsRegistry


class FakeProxy:
    """Scripted proxy: records every call, optional gate to hold the
    first call open so a backlog builds behind it, optional per-record
    failures keyed by session id."""

    def __init__(self, *, fail_sessions=(), gate=None):
        self.calls = []
        self.called = threading.Event()     # set by the first call
        self.fail_sessions = set(fail_sessions)
        self.gate = gate            # threading.Event the first call waits on
        self._gated_once = False
        self._lock = threading.Lock()
        self.closed = False

    def _maybe_wait(self):
        with self._lock:
            first = not self._gated_once
            self._gated_once = True
        if first and self.gate is not None:
            assert self.gate.wait(timeout=5.0)

    def request_many(self, batch):
        batch = tuple(batch)
        with self._lock:
            self.calls.append(("request_many", batch))
        self.called.set()
        self._maybe_wait()
        entries = []
        for session_id, record in batch:
            if session_id in self.fail_sessions:
                entries.append(
                    ("err",
                     EngineUnavailableError(
                         f"scripted failure: {session_id}"))
                )
            else:
                entries.append(("ok", b"reply:" + record))
        return tuple(entries)

    def close(self):
        self.closed = True

    def measurement(self):
        return b"fake-measurement"


class ExplodingProxy(FakeProxy):
    """Fails its first call with an untyped error quoting a secret."""

    SECRET = "plaintext query cheap hotel rome"

    def __init__(self):
        super().__init__()
        self.exploded = False

    def request_many(self, batch):
        if not self.exploded:
            self.exploded = True
            raise RuntimeError(self.SECRET)
        return super().request_many(batch)


class RecordingCondition(threading.Condition):
    """A condition that records the waiting thread's name and the
    timeout of every ``wait``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.timeouts = []

    def wait(self, timeout=None):
        self.timeouts.append((threading.current_thread().name, timeout))
        return super().wait(timeout)


def wait_for_call(proxy):
    """Block until the fake proxy has been called; fail after 5 s."""
    assert proxy.called.wait(timeout=5.0), "the proxy was never called"


def wait_for_queue(scheduler, length):
    """Block until ``length`` tickets are queued; fail after 5 s."""
    with scheduler._queue_lock:
        assert scheduler._queue_lock.wait_for(
            lambda: len(scheduler._queue) >= length, timeout=5.0
        ), f"the queue never reached {length} tickets"


def records_of(proxy, method):
    return [call for name, call in proxy.calls if name == method]


def cross_behind_a_held_worker(scheduler, proxy, gate, sessions):
    """Hold the only worker inside a gated proxy call, queue one record
    per session behind it (in ``sessions`` order), then open the gate.
    Returns the replies by session."""
    replies = {}

    def submit(sid):
        replies[sid] = scheduler.request(sid, sid.encode())

    threads = [threading.Thread(target=submit, args=("head",))]
    threads[0].start()
    wait_for_call(proxy)            # head request is inside the proxy
    for queued, sid in enumerate(sessions, start=1):
        threads.append(threading.Thread(target=submit, args=(sid,)))
        threads[-1].start()
        wait_for_queue(scheduler, queued)
    gate.set()
    for thread in threads:
        thread.join(timeout=5.0)
    return replies


def test_light_load_is_a_plain_request_ecall():
    """A lone request crosses at once, as a ``request_many`` of one."""
    proxy = FakeProxy()
    with RequestScheduler(proxy, max_workers=2) as scheduler:
        reply = scheduler.request("s1", b"r1")
    assert reply == b"reply:r1"
    assert proxy.calls == [("request_many", (("s1", b"r1"),))]


def test_backlog_coalesces_into_one_request_many_ecall():
    gate = threading.Event()
    proxy = FakeProxy(gate=gate)
    scheduler = RequestScheduler(proxy, max_workers=1)
    results = {}

    def submit(sid, record):
        results[sid] = scheduler.request(sid, record)

    threads = [threading.Thread(target=submit, args=("s0", b"head"))]
    threads[0].start()
    wait_for_call(proxy)            # head request is inside the proxy
    for i in range(1, 5):
        thread = threading.Thread(target=submit,
                                  args=(f"s{i}", b"record%d" % i))
        thread.start()
        threads.append(thread)
    wait_for_queue(scheduler, 4)
    gate.set()
    for thread in threads:
        thread.join(timeout=5.0)
    scheduler.close()
    assert results["s0"] == b"reply:head"
    assert all(results[f"s{i}"] == b"reply:record%d" % i
               for i in range(1, 5))
    many = records_of(proxy, "request_many")
    assert [len(call) for call in many] == [1, 4]


def test_queued_records_cross_as_one_request_many_once_the_gate_opens():
    gate = threading.Event()
    proxy = FakeProxy(gate=gate)
    with RequestScheduler(proxy, max_workers=1) as scheduler:
        replies = cross_behind_a_held_worker(scheduler, proxy, gate,
                                             ("a", "b", "c"))
    assert replies == {sid: b"reply:" + sid.encode()
                       for sid in ("head", "a", "b", "c")}
    assert proxy.calls == [
        ("request_many", (("head", b"head"),)),
        ("request_many", (("a", b"a"), ("b", b"b"), ("c", b"c"))),
    ]


def test_one_session_never_has_two_tickets_in_one_crossing():
    """A failed record fails its whole session in a crossing, so a
    session's second queued ticket waits for the next one; another
    session's ticket behind it still joins the first."""
    gate = threading.Event()
    proxy = FakeProxy(gate=gate)
    with RequestScheduler(proxy, max_workers=1) as scheduler:
        cross_behind_a_held_worker(scheduler, proxy, gate, ("a", "a", "b"))
    assert proxy.calls == [
        ("request_many", (("head", b"head"),)),
        ("request_many", (("a", b"a"), ("b", b"b"))),
        ("request_many", (("a", b"a"),)),
    ]


def test_collect_never_waits_with_a_timeout(monkeypatch):
    """A worker that finds a backlog crosses at once: the only wait in
    the scheduler is for work to exist, never a timed linger."""
    gate = threading.Event()
    proxy = FakeProxy(gate=gate)
    with monkeypatch.context() as patch:
        patch.setattr(threading, "Condition", RecordingCondition)
        scheduler = RequestScheduler(proxy, max_workers=1)
    with scheduler:
        cross_behind_a_held_worker(scheduler, proxy, gate, ("a", "b", "c"))
    condition = scheduler._queue_lock
    assert isinstance(condition, RecordingCondition)
    worker_waits = [timeout for name, timeout in condition.timeouts
                    if name.startswith("xsearch-scheduler-")]
    assert worker_waits                 # the worker did wait for work
    assert all(timeout is None for timeout in worker_waits)
    assert [len(call) for call in records_of(proxy, "request_many")] == [1, 3]


def test_per_record_failure_hits_only_the_failing_session():
    gate = threading.Event()
    proxy = FakeProxy(gate=gate, fail_sessions=("bad",))
    scheduler = RequestScheduler(proxy, max_workers=1)
    outcomes = {}

    def submit(sid, record):
        try:
            outcomes[sid] = scheduler.request(sid, record)
        except ReproError as exc:
            outcomes[sid] = exc

    head = threading.Thread(target=submit, args=("head", b"h"))
    head.start()
    wait_for_call(proxy)
    threads = [threading.Thread(target=submit, args=(sid, b"x"))
               for sid in ("good-1", "bad", "good-2")]
    for thread in threads:
        thread.start()
    wait_for_queue(scheduler, 3)
    gate.set()
    for thread in [head] + threads:
        thread.join(timeout=5.0)
    scheduler.close()
    assert outcomes["good-1"] == b"reply:x"
    assert outcomes["good-2"] == b"reply:x"
    assert isinstance(outcomes["bad"], EngineUnavailableError)


def test_per_session_fifo_keeps_submission_order():
    gate = threading.Event()
    proxy = FakeProxy(gate=gate)
    scheduler = RequestScheduler(proxy, max_workers=4)
    order = []
    lock = threading.Lock()

    def submit(record):
        reply = scheduler.request("one-session", record)
        with lock:
            order.append(reply)

    head = threading.Thread(target=submit, args=(b"first",))
    head.start()
    wait_for_call(proxy)
    rest = [threading.Thread(target=submit, args=(b"second",)),
            ]
    rest[0].start()
    wait_for_queue(scheduler, 1)
    gate.set()
    for thread in [head] + rest:
        thread.join(timeout=5.0)
    scheduler.close()
    crossed = [record for _, call in proxy.calls for _, record in
               (call if isinstance(call[0], tuple) else ())]
    assert crossed == [b"first", b"second"]


def test_untyped_proxy_failure_is_typed_and_keeps_the_worker():
    proxy = ExplodingProxy()
    registry = MetricsRegistry()
    with RequestScheduler(proxy, max_workers=1,
                          registry=registry) as scheduler:
        with pytest.raises(EnclaveError) as caught:
            scheduler.request("s", b"first")
        assert "RuntimeError" in str(caught.value)
        assert ExplodingProxy.SECRET not in str(caught.value)
        assert registry.counter("scheduler.errors").value == 1
        # The only worker survived: the next request is served.
        replies = []
        second = threading.Thread(
            target=lambda: replies.append(scheduler.request("s", b"next")),
            daemon=True,
        )
        second.start()
        second.join(timeout=5.0)
        assert not second.is_alive()
        assert replies == [b"reply:next"]


def test_close_rejects_new_work():
    proxy = FakeProxy()
    scheduler = RequestScheduler(proxy, max_workers=1)
    scheduler.close()
    with pytest.raises(EnclaveError):
        scheduler.request("s", b"r")
    scheduler.close()               # idempotent
    assert not proxy.closed
    scheduler.close(close_proxy=True)
    assert proxy.closed


def test_non_queue_calls_forward_to_the_proxy():
    proxy = FakeProxy()
    with RequestScheduler(proxy, max_workers=1) as scheduler:
        assert scheduler.measurement() == b"fake-measurement"


def test_parameter_validation():
    proxy = FakeProxy()
    with pytest.raises(ValueError):
        RequestScheduler(proxy, max_workers=0)
    with pytest.raises(ValueError):
        RequestScheduler(proxy, max_batch=0)
    with pytest.raises(ValueError):
        RequestScheduler(proxy, queue_capacity=0)


# ----------------------------------------------------------------------
# Integration: the real pipeline in concurrent mode
# ----------------------------------------------------------------------
def test_concurrent_deployment_serves_many_clients():
    config = DeploymentConfig(seed=5, k=2, max_workers=3, max_batch=4)
    with XSearchDeployment.create(config=config) as deployment:
        assert deployment.scheduler is not None
        assert deployment.frontend is deployment.scheduler
        clients = [deployment.client(user_id=f"user-{i}")
                   for i in range(6)]
        results = {}
        errors = []

        def go(index, client):
            try:
                results[index] = client.search(
                    f"measured query {index}", limit=3
                )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=go, args=(i, client))
                   for i, client in enumerate(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert len(results) == 6


HOLD_QUERY = "hotel rome"
POISON_QUERY = "cheap flights paris"
POISON_SECRET = "secret plaintext cheap flights paris"


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("stage", ["engine", "obfuscation"])
def test_untyped_failure_fails_only_its_own_record(
        small_engine, monkeypatch, stage, k):
    """An untyped exception in one record's engine leg (or obfuscation)
    becomes that record's scrubbed ``EnclaveError``; its batch-mates in
    the same ``request_many`` ecall are served, and every channel stays
    in step."""
    entered, gate = threading.Event(), threading.Event()
    complete_search = XSearchEnclaveCode._complete_search
    obfuscate = XSearchEnclaveCode._obfuscate

    def engine_leg(self, request, obfuscated):
        if request.query == HOLD_QUERY and not gate.is_set():
            entered.set()
            assert gate.wait(timeout=5.0)
        if stage == "engine" and request.query == POISON_QUERY:
            raise RuntimeError(POISON_SECRET)
        return complete_search(self, request, obfuscated)

    def obfuscation(self, request):
        if stage == "obfuscation" and request.query == POISON_QUERY:
            raise RuntimeError(POISON_SECRET)
        return obfuscate(self, request)

    monkeypatch.setattr(XSearchEnclaveCode, "_complete_search", engine_leg)
    monkeypatch.setattr(XSearchEnclaveCode, "_obfuscate", obfuscation)
    proxy = XSearchProxyHost(small_engine, k=k, history_capacity=100,
                             rng_seed=3)
    queries = {"head": HOLD_QUERY, "s0": "diabetes symptoms",
               "s1": POISON_QUERY, "s2": "nfl playoffs",
               "s3": "mortgage rates"}
    endpoints = {}
    for sid in queries:
        initiator = HandshakeInitiator()
        proxy.begin_session(sid, initiator.hello())
        endpoints[sid] = initiator.finish(proxy.channel_public())
    outcomes = {}

    def submit(sid, query):
        record = endpoints[sid].encrypt(SearchRequest(query, 3).encode())
        try:
            outcomes[sid] = scheduler.request(sid, record)
        except ReproError as exc:
            outcomes[sid] = exc

    def ecalls(name):
        counts = proxy.enclave.boundary_snapshot().ecall_counts
        return counts.get(name, 0)

    with RequestScheduler(proxy, max_workers=1) as scheduler:
        threads = [threading.Thread(target=submit,
                                    args=("head", HOLD_QUERY))]
        threads[0].start()
        assert entered.wait(timeout=5.0)
        before = ecalls("request_many")
        for queued, sid in enumerate(("s0", "s1", "s2", "s3"), start=1):
            threads.append(threading.Thread(target=submit,
                                            args=(sid, queries[sid])))
            threads[-1].start()
            wait_for_queue(scheduler, queued)
        gate.set()
        for thread in threads:
            thread.join(timeout=30.0)
        assert ecalls("request_many") == before + 1

        errors = [o for o in outcomes.values() if not isinstance(o, bytes)]
        assert errors == [outcomes["s1"]]
        assert isinstance(outcomes["s1"], EnclaveError)
        assert "RuntimeError" in str(outcomes["s1"])
        assert all(POISON_SECRET not in str(error)
                   and POISON_SECRET not in repr(error) for error in errors)
        for sid in ("head", "s0", "s2", "s3"):
            SearchResponse.decode(endpoints[sid].decrypt(outcomes[sid]))

        # Every session's channel is still in step with its client.
        for sid, endpoint in endpoints.items():
            record = endpoint.encrypt(SearchRequest("hotel paris", 3).encode())
            reply = scheduler.request(sid, record)
            assert SearchResponse.decode(endpoint.decrypt(reply)).results
    proxy.close()


@pytest.mark.parametrize("k", [1, 4])
def test_ready_made_batch_shares_a_crossing_and_fails_as_one(
        small_engine, monkeypatch, k):
    """A one-session batch of three with a failing engine leg shares one
    ``request_many`` crossing with another session's single record: the
    single is served, the batch fails as one unit with no reply sealed,
    and the batch's session carries on."""
    entered, gate = threading.Event(), threading.Event()
    complete_search = XSearchEnclaveCode._complete_search

    def engine_leg(self, request, obfuscated):
        if request.query == HOLD_QUERY and not gate.is_set():
            entered.set()
            assert gate.wait(timeout=5.0)
        if request.query == POISON_QUERY:
            raise EngineUnavailableError("scripted engine failure")
        return complete_search(self, request, obfuscated)

    monkeypatch.setattr(XSearchEnclaveCode, "_complete_search", engine_leg)
    proxy = XSearchProxyHost(small_engine, k=k, history_capacity=100,
                             rng_seed=3)
    endpoints = {}
    for sid in ("head", "tenant", "other"):
        initiator = HandshakeInitiator()
        proxy.begin_session(sid, initiator.hello())
        endpoints[sid] = initiator.finish(proxy.channel_public())

    def sealed(sid, query):
        return endpoints[sid].encrypt(SearchRequest(query, 3).encode())

    batch = [("tenant", sealed("tenant", query)) for query in
             ("diabetes symptoms", POISON_QUERY, "mortgage rates")]
    calls = {
        "head": lambda: scheduler.request("head",
                                          sealed("head", HOLD_QUERY)),
        "batch": lambda: scheduler.request_batch(batch),
        "other": lambda: scheduler.request("other",
                                           sealed("other", "nfl playoffs")),
    }
    outcomes = {}

    def submit(name):
        try:
            outcomes[name] = calls[name]()
        except ReproError as exc:
            outcomes[name] = exc

    def ecalls():
        counts = proxy.enclave.boundary_snapshot().ecall_counts
        return counts.get("request_many", 0)

    with RequestScheduler(proxy, max_workers=1) as scheduler:
        threads = [threading.Thread(target=submit, args=("head",))]
        threads[0].start()
        assert entered.wait(timeout=5.0)
        before = ecalls()
        for queued, name in enumerate(("batch", "other"), start=1):
            threads.append(threading.Thread(target=submit, args=(name,)))
            threads[-1].start()
            wait_for_queue(scheduler, queued)
        gate.set()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert ecalls() == before + 1
        assert isinstance(outcomes["batch"], EngineUnavailableError)
        for sid in ("head", "other"):
            SearchResponse.decode(endpoints[sid].decrypt(outcomes[sid]))

        # All three records were opened and none of their replies was
        # sealed: the tenant's channel is still in step.
        reply = scheduler.request("tenant", sealed("tenant", "hotel paris"))
        assert SearchResponse.decode(
            endpoints["tenant"].decrypt(reply)).results
    proxy.close()


def test_duplicate_record_ends_in_the_replay_error(small_engine):
    """Nothing deduplicates a re-submitted record: the channel's counter
    nonce rejects the copy, and the session carries on."""
    proxy = XSearchProxyHost(small_engine, k=1, history_capacity=100,
                             rng_seed=3)
    initiator = HandshakeInitiator()
    proxy.begin_session("dup", initiator.hello())
    endpoint = initiator.finish(proxy.channel_public())
    record = endpoint.encrypt(SearchRequest("hotel rome", 3).encode())
    outcomes = []

    def submit():
        try:
            outcomes.append(scheduler.request("dup", record))
        except ReproError as exc:
            outcomes.append(exc)

    with RequestScheduler(proxy, max_workers=2) as scheduler:
        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        replies = [o for o in outcomes if isinstance(o, bytes)]
        errors = [o for o in outcomes if not isinstance(o, bytes)]
        assert len(replies) == 1
        assert [type(error) for error in errors] == [AuthenticationError]
        assert SearchResponse.decode(endpoint.decrypt(replies[0])).results

        following = endpoint.encrypt(SearchRequest("hotel paris", 3).encode())
        reply = scheduler.request("dup", following)
        assert SearchResponse.decode(endpoint.decrypt(reply)).results
    proxy.close()


def test_default_deployment_has_no_scheduler():
    with XSearchDeployment.create(
            config=DeploymentConfig(seed=5, k=2)) as deployment:
        assert deployment.scheduler is None
        assert deployment.frontend is deployment.proxy
