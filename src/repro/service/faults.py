"""Deterministic fault injection for the serving tier.

A :class:`FaultPlan` arms named *injection sites* — fixed choke points the
serving and traversal code already passes through — with transient, permanent
or latency faults that fire probabilistically (seeded PRNG) or on exact call
counts.  Production code calls the module-level :func:`check` at each site;
with no plan activated that is a single global read, so the substrate costs
nothing when chaos is off.

Sites
-----
``registry.load``
    Inside :meth:`GraphRegistry.get`, immediately before the elected loader
    runs (context: ``graph``).
``engine.sweep``
    Once per sweep of every run loop: each sweep of a BFS/SSSP word (solo,
    multisource or packed) and each CC / PageRank iteration, however many
    engines price it (no context).
``native.compile`` / ``native.invoke``
    In :mod:`repro.traversal._native`, before compiling the C kernels and at
    each invocation of any of them (BFS word, SSSP relaxation, CC sweep,
    PageRank step, and after a word's sweeps its lane-row pass and UVM
    replays).  A compile fault leaves the kernels unavailable, so every run
    takes the numpy paths; an invoke fault surfaces as
    ``NativeBackendError``, and the service re-runs that sweep on numpy.
``cache.get`` / ``cache.put``
    In :class:`ResultCache`; the service absorbs these (a failing read is a
    miss, a failing write is dropped) so cache faults never fail requests.
``worker.task``
    Per job at the start of every attempt of the sweep that runs it, lone
    or fused, so a retry re-arms it (context: ``graph``, ``app``,
    ``source``, ``tenant``) — the lever for poisoning one lane of a fused
    group.
``store.open`` / ``store.read`` / ``store.write`` / ``store.checkpoint``
    In :class:`~repro.service.store.ServingStore`: opening (and re-opening)
    the database (context: ``path``), every persistent-cache / cost-rate read
    (context: ``table``), each write transaction (context: ``path``),
    and the WAL checkpoint at close (context: ``path``).  The store absorbs
    all of them — its circuit breaker degrades serving to in-memory-only
    behavior, so store faults never fail requests.

Spec format (``REPRO_FAULTS`` / ``ServiceConfig(fault_plan=...)``)
------------------------------------------------------------------
Semicolon-separated entries; an optional ``seed=N`` entry seeds the PRNG::

    seed=7;registry.load:transient:n=2:limit=2;worker.task:permanent:source=13

Each entry is ``site:mode[:key=value...]`` with reserved keys

- ``p`` — fire probability per check (seeded, deterministic),
- ``n`` — fire on every n-th matching check (deterministic counter),
- ``limit`` — maximum number of fires,
- ``delay`` — sleep seconds (``latency`` mode only).

Any other ``key=value`` is a context matcher compared (as strings) against
the keyword context the site passes to :func:`check` — e.g. ``source=13``
arms ``worker.task`` only for jobs whose source is 13.  Omitting both ``p``
and ``n`` fires on every matching check.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..analysis.lockorder import tracked_lock
from ..envflags import env_str
from ..errors import ConfigurationError, PermanentFaultError, TransientFaultError

#: Environment variable holding a fault-plan spec (see module docstring).
ENV_SPEC = "REPRO_FAULTS"

#: The injection sites production code is instrumented with.
SITES = (
    "registry.load",
    "engine.sweep",
    "native.compile",
    "native.invoke",
    "cache.get",
    "cache.put",
    "worker.task",
    "store.open",
    "store.read",
    "store.write",
    "store.checkpoint",
)

MODES = ("transient", "permanent", "latency")


@dataclass(frozen=True)
class FaultSpec:
    """One armed site: where, what kind of fault, and when it fires."""

    site: str
    mode: str
    probability: float | None = None
    nth: int | None = None
    limit: int | None = None
    delay_seconds: float = 0.0
    #: Context matchers: every (key, value) must equal ``str(context[key])``.
    match: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; available: {', '.join(SITES)}"
            )
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown fault mode {self.mode!r}; available: {', '.join(MODES)}"
            )
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.nth is not None and self.nth < 1:
            raise ConfigurationError(f"fault n must be >= 1, got {self.nth}")
        if self.limit is not None and self.limit < 1:
            raise ConfigurationError(f"fault limit must be >= 1, got {self.limit}")
        if self.delay_seconds < 0:
            raise ConfigurationError(
                f"fault delay must be >= 0, got {self.delay_seconds}"
            )

    def matches(self, context: dict[str, Any]) -> bool:
        return all(str(context.get(key)) == value for key, value in self.match)


@dataclass
class _SpecState:
    """Mutable per-spec firing state (guarded by the plan's lock)."""

    spec: FaultSpec
    calls: int = 0
    fires: int = 0


class FaultPlan:
    """A seeded, thread-safe set of armed fault specs.

    Identity-hashed on purpose: plans live inside the frozen
    ``ServiceConfig`` dataclass, whose generated ``__hash__`` only needs the
    field to be hashable, not value-comparable.
    """

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0) -> None:
        self.seed = int(seed)
        self._states = [_SpecState(spec) for spec in specs]
        self._rng = random.Random(self.seed)
        self._lock = tracked_lock("service.FaultPlan._lock")
        self._listeners: list[Callable[[str], None]] = []

    @property
    def specs(self) -> tuple[FaultSpec, ...]:
        return tuple(state.spec for state in self._states)

    def add_listener(self, callback: Callable[[str], None]) -> None:
        """Register a callback invoked with the site name on every fire."""
        with self._lock:
            self._listeners.append(callback)

    def check(self, site: str, **context: Any) -> None:
        """Fire any armed fault for ``site``; no-op when none matches.

        Raises :class:`TransientFaultError` / :class:`PermanentFaultError`
        or sleeps (``latency`` mode).  At most one spec fires per check so a
        latency fault cannot mask an error fault armed behind it.
        """
        fired: FaultSpec | None = None
        listeners: tuple[Callable[[str], None], ...] = ()
        with self._lock:
            for state in self._states:
                spec = state.spec
                if spec.site != site or not spec.matches(context):
                    continue
                state.calls += 1
                if spec.limit is not None and state.fires >= spec.limit:
                    continue
                if spec.nth is not None:
                    should_fire = state.calls % spec.nth == 0
                elif spec.probability is not None:
                    should_fire = self._rng.random() < spec.probability
                else:
                    should_fire = True
                if not should_fire:
                    continue
                state.fires += 1
                fired = spec
                listeners = tuple(self._listeners)
                break
        if fired is None:
            return
        for callback in listeners:
            callback(site)
        if fired.mode == "latency":
            time.sleep(fired.delay_seconds)
            return
        detail = f"injected {fired.mode} fault at {site}"
        if fired.match:
            detail += f" ({', '.join(f'{k}={v}' for k, v in fired.match)})"
        if fired.mode == "transient":
            raise TransientFaultError(detail, site=site)
        raise PermanentFaultError(detail, site=site)

    def counts(self) -> dict[str, int]:
        """Fires per site (only sites that fired at least once)."""
        with self._lock:
            totals: dict[str, int] = {}
            for state in self._states:
                if state.fires:
                    totals[state.spec.site] = (
                        totals.get(state.spec.site, 0) + state.fires
                    )
            return totals

    def total_fired(self) -> int:
        with self._lock:
            return sum(state.fires for state in self._states)

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for state in self._states:
            spec = state.spec
            knobs = []
            if spec.probability is not None:
                knobs.append(f"p={spec.probability:g}")
            if spec.nth is not None:
                knobs.append(f"n={spec.nth}")
            if spec.limit is not None:
                knobs.append(f"limit={spec.limit}")
            if spec.mode == "latency":
                knobs.append(f"delay={spec.delay_seconds:g}")
            knobs.extend(f"{k}={v}" for k, v in spec.match)
            suffix = ":" + ":".join(knobs) if knobs else ""
            parts.append(f"{spec.site}:{spec.mode}{suffix} (fired {state.fires})")
        return "; ".join(parts)

    @classmethod
    def from_spec(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` spec format (see module docstring)."""
        seed = 0
        specs: list[FaultSpec] = []
        for raw_entry in str(text).split(";"):
            entry = raw_entry.strip()
            if not entry:
                continue
            if entry.startswith("seed="):
                try:
                    seed = int(entry[len("seed="):])
                except ValueError:
                    raise ConfigurationError(
                        f"fault plan seed must be an integer, got {entry!r}"
                    ) from None
                continue
            fields = entry.split(":")
            if len(fields) < 2:
                raise ConfigurationError(
                    f"fault entry needs at least site:mode, got {entry!r}"
                )
            site, mode = fields[0].strip(), fields[1].strip()
            kwargs: dict[str, Any] = {}
            match: list[tuple[str, str]] = []
            for option in fields[2:]:
                key, separator, value = option.partition("=")
                key, value = key.strip(), value.strip()
                if not separator or not key:
                    raise ConfigurationError(
                        f"fault option must be key=value, got {option!r} in {entry!r}"
                    )
                try:
                    if key == "p":
                        kwargs["probability"] = float(value)
                    elif key == "n":
                        kwargs["nth"] = int(value)
                    elif key == "limit":
                        kwargs["limit"] = int(value)
                    elif key == "delay":
                        kwargs["delay_seconds"] = float(value)
                    else:
                        match.append((key, value))
                except ValueError:
                    raise ConfigurationError(
                        f"fault option {key}={value!r} is not a number in {entry!r}"
                    ) from None
            specs.append(FaultSpec(site=site, mode=mode, match=tuple(match), **kwargs))
        if not specs:
            raise ConfigurationError(f"fault plan spec armed no sites: {text!r}")
        return cls(specs, seed=seed)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """Plan from ``REPRO_FAULTS``, or ``None`` when unset/empty."""
        raw = env_str(ENV_SPEC)
        if raw is None:
            return None
        return cls.from_spec(raw)


# --- module-level activation -------------------------------------------------
#
# Injection sites live in modules (registry, cache, _native, engine) that know
# nothing about the service instance, so the active plan is a process global.
# The service activates its plan on construction and deactivates it on close;
# tests may also use activate()/deactivate() directly.

_active_plan: FaultPlan | None = None
_activation_lock = tracked_lock("service.faults._activation_lock")


def activate(plan: FaultPlan) -> None:
    global _active_plan
    with _activation_lock:
        _active_plan = plan


def deactivate(plan: FaultPlan | None = None) -> None:
    """Disarm ``plan`` (or whatever is active when ``None``).

    Passing the plan makes deactivation idempotent across overlapping
    services: closing a service whose plan was already replaced is a no-op.
    """
    global _active_plan
    with _activation_lock:
        if plan is None or _active_plan is plan:
            _active_plan = None


def active_plan() -> FaultPlan | None:
    return _active_plan


def check(site: str, **context: Any) -> None:
    """Hot-path site check: one global read when no plan is armed."""
    plan = _active_plan
    if plan is not None:
        plan.check(site, **context)
