"""REPRO107 — no private counters beside the ledger.

The serving stack keeps one ledger: every count is written once, into a
catalog-declared series of the :class:`~repro.obs.metrics.MetricsRegistry`
the component is handed, and every report is a read of it.  A private tally
next to it is a second copy that drifts (or a count no report ever sees).

REPRO107
    In the scoped modules (:attr:`LintConfig.counter_scopes`: the serving
    layer, the observability layer and the engine arena), an instance
    attribute that ``__init__`` sets to a numeric zero and that the class
    otherwise only ever increases with ``+=`` is a private monotone tally.
    Anything that also goes down or is reset (``-=``, a later plain
    assignment) is state, not a count, and is not flagged.
"""

from __future__ import annotations

import ast
from pathlib import PurePath

from ..findings import Finding


def _self_attr(node: ast.AST) -> str | None:
    """``X`` for a ``self.X`` target, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_zero(node: ast.AST | None) -> bool:
    return (
        isinstance(node, ast.Constant)
        and type(node.value) in (int, float)
        and node.value == 0
    )


def _targets(node: ast.AST) -> list[ast.AST]:
    """Every assignment target of ``node``, tuple/list targets flattened."""
    if isinstance(node, ast.Assign):
        pending = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        pending = [node.target]
    elif isinstance(node, ast.Delete):
        pending = list(node.targets)
    else:
        return []
    flat: list[ast.AST] = []
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending.extend(target.elts)
        else:
            flat.append(target)
    return flat


class PrivateCounterRule:
    rule_id = "REPRO107"
    severity = "error"
    hint = (
        "count into a series declared in repro.obs.metrics.CATALOG, on the "
        "ledger the component is handed (`metrics=`), and read it back in "
        "stats(); or suppress with the reason it is not a count"
    )

    def check(self, tree: ast.Module, path: str, config) -> list[Finding]:
        posix = PurePath(path).as_posix()
        if not any(scope in posix for scope in config.counter_scopes):
            return []
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(node, path))
        return findings

    def _check_class(self, cls: ast.ClassDef, path: str) -> list[Finding]:
        init = next(
            (
                item
                for item in cls.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            ),
            None,
        )
        if init is None:
            return []
        zeroed: dict[str, ast.AST] = {}
        for node in ast.walk(init):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_zero(node.value):
                for target in _targets(node):
                    name = _self_attr(target)
                    if name is not None:
                        zeroed.setdefault(name, node)
        increased: set[str] = set()
        other: set[str] = set()
        for node in ast.walk(cls):
            for target in _targets(node):
                name = _self_attr(target)
                if name not in zeroed or node is zeroed[name]:
                    continue
                if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                    increased.add(name)
                else:
                    other.add(name)
        return [
            Finding(
                rule=self.rule_id,
                path=path,
                line=zeroed[name].lineno,
                severity=self.severity,
                message=(
                    f"{cls.name}.{name} is a private counter: set to 0 in "
                    "__init__ and only ever increased with +="
                ),
                hint=self.hint,
            )
            for name in sorted(increased - other, key=lambda n: zeroed[n].lineno)
        ]
