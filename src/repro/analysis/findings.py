"""The finding model shared by every ``xlint`` checker.

A :class:`Finding` is one violation at one source location: which
checker produced it, a stable per-rule code (``XB001`` …), the file and
line, a human message and a fix hint.  The JSON form (``to_dict`` /
``from_dict``) is the machine-readable output contract of
``tools/xlint.py`` — CI parses it, and ``tests/public_surface.json`` pins
its field set so downstream tooling can rely on it.

Baselines: a committed baseline file lists the *fingerprints* of
grandfathered findings.  Fingerprints deliberately exclude the line
number (and column), so unrelated edits that shift a grandfathered
violation up or down the file do not churn the baseline; they include
the checker code, the module (or path) and the message, so a *new*
violation of the same rule elsewhere is never masked.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

#: Bumped whenever the JSON finding schema changes shape.
FINDING_SCHEMA_VERSION = 1

#: Ordered severity levels (informational use; every finding fails CI).
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    checker: str                  # checker id, e.g. "boundary"
    code: str                     # rule code, e.g. "XB001"
    path: str                     # file path as scanned
    line: int                     # 1-based line number (0 = whole file)
    message: str
    hint: str = ""                # how to fix it
    module: str = ""              # dotted module name, when known
    column: int = 0               # 0-based column offset
    severity: str = SEVERITY_ERROR

    def fingerprint(self) -> str:
        """Line-insensitive identity used for baseline matching."""
        where = self.module or self.path
        return f"{self.code}:{where}:{self.message}"

    def location(self) -> str:
        """``path:line`` (editor-clickable)."""
        return f"{self.path}:{self.line}"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(**data)

    def render(self) -> str:
        """One human-readable report line."""
        text = f"{self.location()}: {self.code} [{self.checker}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


def sort_findings(findings) -> list:
    """Stable report order: by path, line, column, code."""
    return sorted(findings,
                  key=lambda f: (f.path, f.line, f.column, f.code))


@dataclass
class Baseline:
    """Grandfathered findings: fingerprints the tree is allowed to keep.

    The workflow (docs/STATIC_ANALYSIS.md) is fix-first: the baseline
    exists so a new checker can land with CI failing only on *new*
    violations, and it is expected to shrink to empty as the
    grandfathered ones are fixed.
    """

    fingerprints: set = field(default_factory=set)

    def __contains__(self, finding: Finding) -> bool:
        return finding.fingerprint() in self.fingerprints

    def split(self, findings):
        """Partition into ``(new, grandfathered)`` finding lists."""
        new, old = [], []
        for finding in findings:
            (old if finding in self else new).append(finding)
        return new, old

    def to_dict(self) -> dict:
        return {
            "version": FINDING_SCHEMA_VERSION,
            "fingerprints": sorted(self.fingerprints),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Baseline":
        return cls(fingerprints=set(data.get("fingerprints", ())))


def load_baseline(path) -> Baseline:
    """Read a baseline file; a missing file is an empty baseline."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return Baseline.from_dict(json.load(handle))
    except FileNotFoundError:
        return Baseline()


def save_baseline(path, findings) -> Baseline:
    """Write the fingerprints of ``findings`` as the new baseline."""
    baseline = Baseline({finding.fingerprint() for finding in findings})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(baseline.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return baseline
