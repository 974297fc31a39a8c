"""The public surface, pinned as a generated snapshot.

``public_surface.json`` holds every ``__all__`` name of the packages
other code programs against, the ``inspect.signature`` of each public
callable and public method, and the ids pinned outside the process
(wire frame types, version and magic, the finding JSON schema, xlint
checker ids, XT rule ids).  After an intended change, regenerate it::

    PYTHONPATH=src python tests/test_public_surface.py
"""

from __future__ import annotations

import difflib
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

SNAPSHOT = Path(__file__).with_name("public_surface.json")
PACKAGES = ("repro.core", "repro.obs", "repro.analysis",
            "repro.analysis.dataflow", "repro.netserve", "repro.sim")
#: Dunders that are part of a class's contract, kept like public methods.
PROTOCOL = {"__call__", "__contains__", "__enter__", "__exit__",
            "__iter__", "__len__"}


def _signature(obj):
    try:
        text = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return None
    # Object defaults render with a file path or an address; drop both.
    return re.sub(r" from '[^']*'| at 0x[0-9a-f]+", "", text)


def _member(cls, name):
    raw = inspect.getattr_static(cls, name)
    if isinstance(raw, property):
        return "property"
    if isinstance(raw, (staticmethod, classmethod)) or callable(raw):
        return _signature(getattr(cls, name))
    return "attribute"


def _describe(value):
    if inspect.ismodule(value):
        return "module"
    if inspect.isclass(value):
        names = {name for klass in value.__mro__
                 if klass.__module__.startswith("repro.")
                 for name in vars(klass)
                 if not name.startswith("_") or name in PROTOCOL}
        return {"signature": _signature(value),
                "members": {name: _member(value, name) for name in names}}
    return _signature(value) if callable(value) else type(value).__name__


def _pinned_ids() -> dict:
    from repro.analysis import (FINDING_SCHEMA_VERSION, Finding,
                                all_checkers, get_checker)
    from repro.netserve import wire

    sample = Finding(checker="boundary", code="XB001", path="x.py",
                     line=1, message="m")
    return {
        "wire.frame_types": {name: value for name, value in vars(wire).items()
                             if name.startswith("T_")},
        "wire.WIRE_VERSION": wire.WIRE_VERSION,
        "wire.MAGIC": wire.MAGIC.decode("ascii"),
        "FINDING_SCHEMA_VERSION": FINDING_SCHEMA_VERSION,
        "finding.fields": sorted(sample.to_dict()),
        "checker.ids": sorted(checker.id for checker in all_checkers()),
        "dataflow.rules": sorted(get_checker("dataflow").rules),
    }


def render_surface() -> str:
    surface = {"pinned": _pinned_ids()}
    for package in PACKAGES:
        module = importlib.import_module(package)
        surface[package] = {name: _describe(getattr(module, name))
                            for name in module.__all__}
    return json.dumps(surface, indent=2, sort_keys=True) + "\n"


def test_public_surface_matches_the_snapshot():
    expected, actual = SNAPSHOT.read_text(), render_surface()
    diff = "".join(difflib.unified_diff(
        expected.splitlines(keepends=True), actual.splitlines(keepends=True),
        "tests/public_surface.json", "this tree"))
    if diff:
        pytest.fail("the public surface changed; if intended, regenerate "
                    "with `PYTHONPATH=src python tests/test_public_surface.py`"
                    "\n" + diff, pytrace=False)


if __name__ == "__main__":
    SNAPSHOT.write_text(render_surface())
    print(f"wrote {SNAPSHOT}")
