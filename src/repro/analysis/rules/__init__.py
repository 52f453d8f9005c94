"""Repo-invariant lint rules.

Each rule is a class with a ``rule_id``, a ``severity``, and a
``check(tree, path, config) -> list[Finding]`` method walking one module's
AST.  Rules encode invariants *of this repository* — the things a generic
linter cannot know:

==========  ===============================================================
REPRO101    no allocation calls or list-building loops in hot-kernel
            functions (``@hot_path`` or the config allowlist)
REPRO102    ``threading.Lock`` attributes acquired only via ``with`` —
            no bare ``.acquire()`` / ``.release()``
REPRO103    no mixing of ``time.time()`` and ``time.perf_counter()``
            readings inside one function (outside ``timing.py``)
REPRO104    every ``REPRO_*`` environment read routed through
            ``repro.envflags``
REPRO105    every fault-site literal armed at a ``faults.check(...)`` call
            exists in ``repro.service.faults.SITES``
REPRO106    every ``repro_*`` metric-series literal is declared in
            ``repro.obs.metrics.CATALOG``
==========  ===============================================================

See ``docs/lint-rules.md`` for the catalog with rationale and suppression
syntax (``# repro: noqa[RULE]``).
"""

from __future__ import annotations

import ast


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def literal_str(node: ast.AST) -> str | None:
    """The value of a string-constant node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def iter_functions(tree: ast.Module):
    """Every function definition in the module, at any nesting depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


from .bare_acquire import BareAcquireRule
from .hotpath_alloc import HotPathAllocRule
from .raw_envflag import RawEnvFlagRule
from .registration import FaultSiteRule, MetricNameRule
from .timing_mix import TimingMixRule

#: Every rule the engine runs by default, in rule-id order.
ALL_RULES = (
    HotPathAllocRule,
    BareAcquireRule,
    TimingMixRule,
    RawEnvFlagRule,
    FaultSiteRule,
    MetricNameRule,
)

__all__ = [
    "ALL_RULES",
    "BareAcquireRule",
    "FaultSiteRule",
    "HotPathAllocRule",
    "MetricNameRule",
    "RawEnvFlagRule",
    "TimingMixRule",
    "dotted_name",
    "iter_functions",
    "literal_str",
]
