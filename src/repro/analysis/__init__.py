"""Repo-invariant static analysis and dynamic race detection.

Generic linters cannot check *this* repository's invariants — that hot
kernels never allocate, that every fault-site literal is registered, that
every metric name actually exports, that 15+ locks keep a consistent
acquisition order.  This package can:

* :mod:`repro.analysis.engine` — an AST lint engine running the rule set in
  :mod:`repro.analysis.rules` (REPRO101–REPRO107), with structured findings
  and ``# repro: noqa[RULE]`` suppressions, surfaced as ``repro.cli lint``
  and gated in CI.  See ``docs/lint-rules.md`` for the catalog.
* :mod:`repro.analysis.lockorder` — ``TrackedLock``: a zero-cost-when-idle
  lock wrapper (``REPRO_LOCKCHECK=1`` arms it) recording per-thread
  acquisition order into a global graph and reporting cycles — potential
  deadlocks — with both acquisition stacks, via ``repro.cli lint --locks``
  and at process exit.

Import discipline: ``lockorder`` is imported by the serving tier at module
load, so this ``__init__`` must stay light — the lint engine (which consults
the fault-site and metric registries) is re-exported lazily.
"""

from __future__ import annotations

from .findings import Finding, LintReport
from .lockorder import TrackedLock, tracked_lock, tracked_rlock

__all__ = [
    "Finding",
    "LintConfig",
    "LintEngine",
    "LintReport",
    "TrackedLock",
    "default_config",
    "lint_tree",
    "tracked_lock",
    "tracked_rlock",
]

_LAZY = {"LintEngine", "LintConfig", "default_config", "lint_tree"}


def __getattr__(name: str):
    if name in _LAZY:
        from . import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
