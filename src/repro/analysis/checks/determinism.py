"""Determinism checker: no wall clock, no unseeded randomness in scope.

Golden-trace regression (``tests/obs/golden_traces.json``) and seeded
fault replay (:class:`repro.faults.FaultPlan`) both depend on a hard
discipline: enclave code, fault code and experiment code take time from
an injectable clock (:mod:`repro.net.clock`) and randomness from a
seeded ``random.Random`` stream.  This checker proves the discipline at
the source level:

* direct ``time.*`` / ``datetime.now()``-family calls are confined to
  the clock module (the one sanctioned wall-clock custodian);
* the module-level ``random`` functions (process-global, unseedable per
  stream) and zero-argument ``random.Random()`` are banned in scope;
* OS entropy (``secrets``, ``os.urandom``) is allowed only on the
  crypto entropy allowlist — key material must be unpredictable, but a
  fault schedule must not be.
"""

from __future__ import annotations

import ast

from repro.analysis.lint import Checker, register_checker
from repro.analysis import placement as P

#: ``time`` module functions that read or block on the wall clock, or
#: read a CPU clock (as nondeterministic as the wall clock).
_WALL_CLOCK_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "thread_time",
    "thread_time_ns", "localtime", "gmtime", "sleep",
})

#: ``datetime``-family constructors that capture "now".
_NOW_FUNCS = frozenset({"now", "utcnow", "today"})

#: ``random`` module-level names that are NOT the seedable class.
_SEEDED_FACTORIES = frozenset({"Random", "SystemRandom"})


@register_checker
class DeterminismChecker(Checker):
    id = "determinism"
    description = (
        "enclave/faults/experiments code must use the injectable clock "
        "and seeded RNG streams, never the wall clock or global random"
    )
    rules = {
        "XD001": "wall-clock access outside the clock module",
        "XD002": "datetime.now()-family call captures the wall clock",
        "XD003": "process-global or unseeded randomness",
        "XD004": "OS entropy outside the crypto allowlist",
    }

    def check(self, module, context):
        # Test modules get the wall-clock rules only (XD001/XD002): the
        # suite must be virtual-time deterministic, but tests may draw
        # entropy or global randomness for throwaway fixtures.
        test_scope = P.in_test_scope(module.name)
        if not test_scope and not P.in_deterministic_scope(module.name):
            return
        aliases = self._alias_map(module)
        clock_custodian = module.name in P.WALL_CLOCK_CUSTODIANS
        entropy_ok = P.entropy_allowed(module.name)

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = self._call_origin(node.func, aliases)
            if origin is None:
                continue
            source_module, func = origin
            if source_module == "time" and func in _WALL_CLOCK_FUNCS:
                if not clock_custodian:
                    yield self.finding(
                        "XD001", module, node,
                        f"direct wall-clock call time.{func}()",
                        hint="take a clock parameter (repro.net.clock."
                             "SystemClock / VirtualClock) instead",
                    )
            elif source_module == "datetime" and func in _NOW_FUNCS:
                if not clock_custodian:
                    yield self.finding(
                        "XD002", module, node,
                        f"datetime {func}() captures the wall clock",
                        hint="pass timestamps in, or derive them from "
                             "the injectable clock",
                    )
            elif source_module == "random":
                if test_scope:
                    continue
                if func == "Random":
                    if not node.args and not node.keywords:
                        yield self.finding(
                            "XD003", module, node,
                            "random.Random() constructed without a seed",
                            hint="seed it (random.Random(seed)) or "
                                 "accept an rng parameter",
                        )
                elif func not in _SEEDED_FACTORIES:
                    yield self.finding(
                        "XD003", module, node,
                        f"process-global random.{func}() call",
                        hint="draw from a seeded random.Random stream "
                             "passed in by the caller",
                    )
            elif source_module in ("secrets", "os.urandom"):
                if not entropy_ok and not test_scope:
                    where = ("os.urandom" if source_module == "os.urandom"
                             else f"secrets.{func}")
                    yield self.finding(
                        "XD004", module, node,
                        f"OS entropy via {where} in deterministic scope",
                        hint="only key/session material may be "
                             "unpredictable; extend the entropy "
                             "allowlist only for crypto",
                    )

    # ------------------------------------------------------------------
    # Alias resolution
    # ------------------------------------------------------------------
    _TRACKED = ("time", "datetime", "random", "secrets", "os")

    def _alias_map(self, module):
        """Local name -> (module, function-or-None) for tracked imports."""
        aliases = {}
        for _node, target, names in module.import_statements():
            root = target.split(".")[0]
            if root not in self._TRACKED:
                continue
            for alias, attribute in names.items():
                if attribute == "":
                    aliases[alias] = (target, None)       # import time as t
                else:
                    aliases[alias] = (target, attribute)  # from time import time
        return aliases

    def _call_origin(self, func, aliases):
        """Map a call's function expression to ``(module, name)``.

        ``datetime.datetime.now()``, ``dt.now()`` (via ``from datetime
        import datetime as dt``) and ``now()`` (via ``from datetime
        import ...``) all resolve to ``("datetime", "now")``.
        """
        if isinstance(func, ast.Name):
            entry = aliases.get(func.id)
            if entry is None:
                return None
            target, attribute = entry
            if attribute is None:
                return None  # bare module reference, not a call
            root = target.split(".")[0]
            if root == "os" and attribute == "urandom":
                return ("os.urandom", "urandom")
            if root == "datetime":
                # `from datetime import datetime` then `datetime(...)`:
                # a plain constructor, not a now() capture.
                return None
            return (root, attribute)
        if isinstance(func, ast.Attribute):
            base = func.value
            # one level: time.time(), rng.random() — resolve the base.
            if isinstance(base, ast.Name):
                entry = aliases.get(base.id)
                if entry is None:
                    return None
                target, attribute = entry
                root = target.split(".")[0]
                if attribute is None:
                    if root == "os" and func.attr == "urandom":
                        return ("os.urandom", "urandom")
                    return (root, func.attr)
                if root == "datetime" and attribute in ("datetime", "date"):
                    return ("datetime", func.attr)
                return None
            # two levels: datetime.datetime.now()
            if (isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)):
                entry = aliases.get(base.value.id)
                if entry is None:
                    return None
                target, attribute = entry
                if (target.split(".")[0] == "datetime"
                        and attribute is None
                        and base.attr in ("datetime", "date")):
                    return ("datetime", func.attr)
        return None
