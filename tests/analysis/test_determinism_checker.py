"""Determinism checker: wall clock and unseeded randomness in scope."""

from __future__ import annotations

from repro.analysis import run_checks
from repro.analysis.checks import DeterminismChecker


def codes(findings):
    return [f.code for f in findings]


def test_wall_clock_in_enclave_code_is_flagged(lint):
    findings = lint("repro.core.history", """
        import time

        def stamp():
            return time.time()
    """, DeterminismChecker())
    assert codes(findings) == ["XD001"]


def test_aliased_and_from_imports_are_still_caught(lint):
    findings = lint("repro.faults.plan", """
        import time as t
        from time import monotonic

        def bad():
            return t.time() + monotonic()
    """, DeterminismChecker())
    assert codes(findings) == ["XD001", "XD001"]


def test_cpu_clocks_are_flagged(lint):
    findings = lint("repro.core.history", """
        import time
        from time import thread_time_ns

        def cpu():
            return (time.thread_time(), thread_time_ns(),
                    time.process_time_ns())
    """, DeterminismChecker())
    assert codes(findings) == ["XD001", "XD001", "XD001"]


def test_cpu_clocks_in_the_clock_module_are_fine(lint):
    findings = lint("repro.net.clock", """
        import time

        def cpu():
            return (time.thread_time(), time.thread_time_ns(),
                    time.process_time_ns())
    """, DeterminismChecker())
    assert findings == []


def test_datetime_now_family_is_flagged(lint):
    findings = lint("repro.experiments.runner", """
        import datetime
        from datetime import datetime as dt

        def bad():
            return datetime.datetime.now(), dt.utcnow()
    """, DeterminismChecker())
    assert codes(findings) == ["XD002", "XD002"]


def test_plain_datetime_constructor_is_fine(lint):
    findings = lint("repro.experiments.runner", """
        from datetime import datetime

        def ok():
            return datetime(2017, 12, 11)
    """, DeterminismChecker())
    assert findings == []


def test_unseeded_random_and_module_level_random_are_flagged(lint):
    findings = lint("repro.faults.plan", """
        import random

        def bad():
            return random.Random(), random.random()
    """, DeterminismChecker())
    assert codes(findings) == ["XD003", "XD003"]


def test_seeded_random_stream_is_fine(lint):
    findings = lint("repro.faults.plan", """
        import random

        def ok(seed):
            return random.Random(seed)
    """, DeterminismChecker())
    assert findings == []


def test_os_entropy_outside_crypto_is_flagged(lint):
    findings = lint("repro.faults.plan", """
        import os
        import secrets

        def bad():
            return secrets.token_bytes(16) + os.urandom(8)
    """, DeterminismChecker())
    assert codes(findings) == ["XD004", "XD004"]


def test_crypto_modules_may_draw_os_entropy(lint):
    findings = lint("repro.crypto.dh", """
        import secrets

        def keygen():
            return secrets.randbits(256)
    """, DeterminismChecker())
    assert findings == []


def test_clock_module_is_the_sanctioned_custodian(lint):
    # repro.net.clock is out of deterministic scope (it IS the clock);
    # a deterministic-scope module with the same code would be flagged.
    source = """
        import time as _time

        def now():
            return _time.monotonic()
    """
    assert lint("repro.net.clock", source, DeterminismChecker()) == []
    flagged = lint("repro.faults.clock", source, DeterminismChecker())
    assert codes(flagged) == ["XD001"]


def test_out_of_scope_client_code_is_not_checked(lint):
    findings = lint("repro.baselines.peas", """
        import random

        def ok():
            return random.random()
    """, DeterminismChecker())
    assert findings == []


def test_real_tree_has_no_determinism_violations(repo_graph):
    result = run_checks(repo_graph, checkers=[DeterminismChecker()])
    assert result.findings == []
