"""Hashable, normalized traversal requests.

A :class:`TraversalRequest` is the unit of work the serving layer accepts: it
names a registered graph instead of carrying one, and every field is
canonicalized on construction (strings coerced to enums, CC sources collapsed
to ``None``, numpy integers converted to plain ``int``).  Because two requests
for the same work always compare and hash equal, deduplication and result
caching fall out of ordinary dict/set membership.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SystemConfig, system_key as _platform_key
from ..traversal.api import (
    normalize_application,
    normalize_deadline,
    normalize_source,
    normalize_strategy,
    normalize_tenant,
)
from ..types import AccessStrategy, Application, EMOGI_STRATEGY


@dataclass(frozen=True)
class TraversalRequest:
    """One traversal to serve: application + graph name + source + config."""

    application: Application
    graph: str
    source: int | None = None
    strategy: AccessStrategy = EMOGI_STRATEGY
    system: SystemConfig | None = None
    #: Latency budget in seconds from submission; ``None`` means "whenever".
    #: Purely a scheduling hint: the EDF policy orders by it, and jobs whose
    #: budget lapses while queued are failed before execution.
    deadline: float | None = None
    #: Owning tenant for per-tenant admission quotas; ``None`` is anonymous.
    tenant: str | None = None

    def __post_init__(self) -> None:
        application = normalize_application(self.application)
        object.__setattr__(self, "application", application)
        object.__setattr__(self, "strategy", normalize_strategy(self.strategy))
        object.__setattr__(self, "source", normalize_source(application, self.source))
        object.__setattr__(self, "deadline", normalize_deadline(self.deadline))
        object.__setattr__(self, "tenant", normalize_tenant(self.tenant))
        if not isinstance(self.graph, str) or not self.graph:
            raise ValueError(f"graph must be a non-empty name, got {self.graph!r}")

    @property
    def system_key(self) -> str:
        """Stable fingerprint of the requested platform (or ``"default"``)."""
        return _platform_key(self.system)

    @property
    def cache_key(self) -> tuple:
        """Identity of this request's *result*: same key, same answer.

        ``deadline`` and ``tenant`` are deliberately excluded: they change
        *when* and *whether* the work runs, never what the answer is, so two
        requests differing only in urgency or ownership still deduplicate
        onto one execution and share cached results.
        """
        return (
            self.graph,
            self.application.value,
            self.source,
            self.strategy.value,
            self.system_key,
        )

    @property
    def batch_key(self) -> tuple:
        """Identity of this request's *configuration*, ignoring the source.

        Requests sharing a batch key differ only in their source vertex, so
        the scheduler can execute them back to back against one resident graph
        — the same amortization ``run_average`` performs for the paper's
        64-source experiments.
        """
        return (self.graph, self.application.value, self.strategy.value, self.system_key)

    def with_system(self, system: SystemConfig) -> "TraversalRequest":
        """Pin an unpinned request to a concrete platform.

        Equal to ``dataclasses.replace(self, system=system)``, without running
        the normalizers again: every other field of an existing request is
        already canonical, and ``system`` is the one field they do not touch.
        """
        pinned = object.__new__(type(self))
        pinned.__dict__.update(self.__dict__, system=system)
        return pinned

    def describe(self) -> str:
        source = "-" if self.source is None else str(self.source)
        extras = ""
        if self.deadline is not None:
            extras += f", deadline={self.deadline:g}s"
        if self.tenant is not None:
            extras += f", tenant={self.tenant}"
        return (
            f"{self.application.value}({self.graph}, source={source}, "
            f"strategy={self.strategy.value}, system={self.system_key}{extras})"
        )
