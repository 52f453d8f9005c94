"""REPRO105 / REPRO106 — cross-cutting registries stay consistent.

Fault sites and metric names are stringly-typed registries spread across the
tree: a typo'd site never fires its fault, and a typo'd metric silently
exports nothing.  These rules close the loop statically.

REPRO105
    Every string literal passed as the first argument of a fault-site check —
    ``faults.check("...")``, a ``check("...")`` imported from the faults
    module, or ``_check_fault("...")`` — must exist in
    :data:`repro.service.faults.SITES`.

REPRO106
    Every string literal spelled like a metric series — ``repro_`` followed
    by lowercase letters, digits and underscores — must be declared in
    :data:`repro.obs.metrics.CATALOG`, wherever it appears: the subscript of
    an instrumentation call site (``metrics["repro_..."].inc()``), an
    argument, a dict key.
"""

from __future__ import annotations

import ast
import re

from ..findings import Finding
from . import dotted_name, literal_str


class FaultSiteRule:
    rule_id = "REPRO105"
    severity = "error"
    hint = (
        "add the site to repro.service.faults.SITES (and document it in the "
        "module docstring) or fix the typo"
    )

    def check(self, tree: ast.Module, path: str, config) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            tail = name.split(".")[-1]
            qualified = "." in name
            is_check = (qualified and tail == "check" and name.endswith("faults.check")) or (
                not qualified and tail in config.fault_check_names
            )
            if not is_check:
                continue
            site = literal_str(node.args[0])
            if site is not None and site not in config.fault_sites:
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        path=path,
                        line=node.lineno,
                        severity=self.severity,
                        message=(
                            f"fault site {site!r} is not registered in "
                            "repro.service.faults.SITES — this check can "
                            "never be armed"
                        ),
                        hint=self.hint,
                    )
                )
        return findings


class MetricNameRule:
    rule_id = "REPRO106"
    severity = "error"
    hint = (
        "declare the series in repro.obs.metrics.CATALOG or fix the typo — "
        "an undeclared name is a KeyError at the call site"
    )

    def check(self, tree: ast.Module, path: str, config) -> list[Finding]:
        series = re.compile(re.escape(config.metric_prefix) + r"[a-z0-9_]+")
        findings: list[Finding] = []
        for node in ast.walk(tree):
            name = literal_str(node)
            if (
                name is not None
                and series.fullmatch(name)
                and name not in config.metric_names
            ):
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        path=path,
                        line=node.lineno,
                        severity=self.severity,
                        message=(
                            f"metric name {name!r} is not declared in "
                            "repro.obs.metrics.CATALOG"
                        ),
                        hint=self.hint,
                    )
                )
        return findings
