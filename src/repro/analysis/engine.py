"""AST lint engine: walks the tree, runs the repo-invariant rules.

The engine is deliberately small: parse each file once with :mod:`ast`, hand
the tree to every rule, and filter the findings through ``# repro:
noqa[RULE]`` line suppressions.  Configuration (:class:`LintConfig`) carries
the repo's registries — hot-function allowlist, fault sites, metric catalog —
so the rules themselves stay pure AST walkers and tests can lint seeded
snippets against synthetic configs.

Suppression syntax, checked per finding line::

    something_flagged()  # repro: noqa[REPRO101] — bounded by the 64-lane word
    anything_flagged()   # repro: noqa         (suppresses every rule)
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .findings import Finding, LintReport
from .rules import ALL_RULES

#: ``# repro: noqa`` / ``# repro: noqa[REPRO101,REPRO104]`` with free-form
#: justification text allowed after the bracket.
_NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)

#: Default hot-function allowlist: per module basename, the kernels whose
#: allocation discipline REPRO101 enforces even without a ``@hot_path`` mark.
DEFAULT_HOT_FUNCTIONS = {
    "relax.py": ("relax_lanes", "active_lane_mask", "expand_lane_pairs"),
    "multisource.py": (
        "_bfs_word",
        "_bfs_sweep_numpy",
        "_sssp_word",
        "_scatter_or",
        "_lane_mask",
    ),
    "streaming.py": ("run_streaming_batch",),
    "frontier.py": (
        "frontier_offsets",
        "gather_frontier_edges",
        "gather_frontier_destinations",
    ),
}

#: numpy callables REPRO101 treats as allocations when called in a hot path.
DEFAULT_ALLOCATION_CALLS = frozenset(
    {
        "zeros",
        "ones",
        "empty",
        "full",
        "zeros_like",
        "ones_like",
        "empty_like",
        "full_like",
        "unique",
        "concatenate",
        "hstack",
        "vstack",
        "stack",
        "tile",
        "array",
    }
)


@dataclass(frozen=True)
class LintConfig:
    """Everything the rules need to know about this repository."""

    #: Decorator name marking hot-kernel functions (REPRO101).
    hot_path_decorator: str = "hot_path"
    #: module basename -> function names additionally treated as hot.
    hot_functions: dict = field(default_factory=lambda: dict(DEFAULT_HOT_FUNCTIONS))
    allocation_calls: frozenset = DEFAULT_ALLOCATION_CALLS
    #: Files whose whole job is time bookkeeping (REPRO103 exemption).
    timing_exempt_files: tuple = ("timing.py",)
    #: The one module allowed to touch REPRO_* environment variables.
    envflag_module: str = "envflags.py"
    envflag_prefix: str = "REPRO_"
    #: Registered fault sites (REPRO105); resolved from the live registry.
    fault_sites: tuple = ()
    #: Bare call names treated as fault-site checks alongside faults.check.
    fault_check_names: tuple = ("check", "_check_fault")
    #: Declared metric series (REPRO106); resolved from the live catalog.
    metric_names: frozenset = frozenset()
    metric_prefix: str = "repro_"


def default_config() -> LintConfig:
    """A config bound to the repo's live registries.

    Imported lazily so that importing :mod:`repro.analysis` (e.g. for
    :mod:`~repro.analysis.lockorder`) never drags the whole serving layer in.
    """
    from ..obs.metrics import CATALOG
    from ..service.faults import SITES

    return LintConfig(
        fault_sites=tuple(SITES),
        metric_names=frozenset(CATALOG),
    )


class LintEngine:
    """Runs the rule set over source text, files, or directory trees."""

    def __init__(self, config: LintConfig | None = None, rules=None) -> None:
        self.config = config if config is not None else default_config()
        self.rules = [rule() for rule in (ALL_RULES if rules is None else rules)]

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def lint_source(self, source: str, path: str = "<string>") -> list[Finding]:
        """Findings for one module's source text (suppressions applied)."""
        findings, _ = self._lint_source_counted(source, path)
        return findings

    def lint_file(self, path: str | Path) -> list[Finding]:
        return self.lint_source(Path(path).read_text(encoding="utf-8"), str(path))

    def lint_paths(self, paths: Iterable[str | Path]) -> LintReport:
        """Lint every ``.py`` file under the given files/directories."""
        report = LintReport()
        for file_path in self._expand(paths):
            try:
                source = file_path.read_text(encoding="utf-8")
            except OSError as exc:
                report.findings.append(
                    Finding(
                        rule="REPRO000",
                        path=str(file_path),
                        line=1,
                        severity="error",
                        message=f"cannot read file: {exc}",
                    )
                )
                continue
            findings, suppressed = self._lint_source_counted(source, str(file_path))
            report.findings.extend(findings)
            report.suppressed += suppressed
            report.files_checked += 1
        report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return report

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _expand(paths: Iterable[str | Path]) -> list[Path]:
        files: list[Path] = []
        for path in paths:
            path = Path(path)
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            else:
                files.append(path)
        return files

    def _lint_source_counted(
        self, source: str, path: str
    ) -> tuple[list[Finding], int]:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return (
                [
                    Finding(
                        rule="REPRO000",
                        path=path,
                        line=exc.lineno or 1,
                        severity="error",
                        message=f"syntax error: {exc.msg}",
                    )
                ],
                0,
            )
        raw: list[Finding] = []
        for rule in self.rules:
            raw.extend(rule.check(tree, path, self.config))
        suppressions = self._suppressions(source.splitlines())
        kept: list[Finding] = []
        suppressed = 0
        for finding in raw:
            allowed = suppressions.get(finding.line)
            if allowed is not None and (allowed == () or finding.rule in allowed):
                suppressed += 1
            else:
                kept.append(finding)
        kept.sort(key=lambda f: (f.line, f.rule))
        return kept, suppressed

    @staticmethod
    def _suppressions(lines: Sequence[str]) -> dict[int, tuple[str, ...]]:
        """line number -> suppressed rule ids (empty tuple = all rules)."""
        table: dict[int, tuple[str, ...]] = {}
        for number, line in enumerate(lines, 1):
            match = _NOQA_PATTERN.search(line)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                table[number] = ()
            else:
                table[number] = tuple(
                    rule.strip().upper() for rule in rules.split(",") if rule.strip()
                )
        return table


def lint_tree(root: str | Path | None = None) -> LintReport:
    """Lint the installed ``repro`` package (or ``root``) with defaults."""
    if root is None:
        root = Path(__file__).resolve().parents[1]
    return LintEngine().lint_paths([root])
