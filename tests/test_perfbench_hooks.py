"""perfbench's ledger patches the program by name: keep those names.

``perfbench/ledger.py`` wraps each layer's functions where callers look
them up (a class ``__dict__`` entry, a module attribute) and counts the
request ecalls by name.  A rename in ``src/`` breaks nothing there
loudly: the ledger's ``_ecall`` returns ``()`` for an unknown ecall and
``sgx.ecall_ms`` reads 0.  These checks fail instead, in seconds.  The
ledger is imported read-only, with ``perfbench/`` on ``sys.path``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro.core.proxy import XSearchEnclaveCode
from repro.experiments import load

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def ledger():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("ledger")
    finally:
        sys.path.remove(str(PERFBENCH))


def _resolves(owner, name) -> bool:
    if isinstance(owner, type):
        return name in owner.__dict__
    return hasattr(owner, name)


def test_every_ledger_target_resolves_where_it_is_patched(ledger):
    missing = [
        f"{getattr(owner, '__qualname__', owner.__name__)}.{name}"
        for owner, name, _layer, _measure in ledger._targets()
        if not _resolves(owner, name)
    ]
    assert missing == []


def test_every_request_ecall_is_counted_by_the_ledger(ledger):
    request_ecalls = {
        name for name, member in vars(XSearchEnclaveCode).items()
        if getattr(member, "__sgx_ecall__", False)
        and name.startswith("request")
    }
    assert request_ecalls == {load.REQUEST_ECALL}
    assert request_ecalls <= ledger.REQUEST_ECALLS
