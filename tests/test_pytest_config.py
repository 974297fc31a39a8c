"""The repo's pytest configuration reports a failing Hypothesis test as a
plain failure with its falsifying example.

On failure Hypothesis's pytest plugin imports ``libcst`` (to offer a
patch adding the example), and ``libcst`` defines a
``mypy_extensions.TypedDict``, which warns with a ``DeprecationWarning``.
Under ``filterwarnings = ["error::DeprecationWarning"]`` alone that
warning became an ``INTERNALERROR`` and the example was lost.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers(min_value=0, max_value=10))
def test_below_five(x):
    assert x < 5
'''


def test_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
