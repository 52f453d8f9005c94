"""Online cost model: engine seconds predicted from the work a sweep does.

WFQ charges, infeasible-deadline admission and the sweep watchdog need to
know *how long work will take before running it*; what fuses with what never
does (:mod:`repro.service.planner` decides that by shape alone).

A traversal's time is set by how much edge list it sweeps, not by which
dataset ran before it, so the only learned state is one **rate per
application**: seconds per *edge-word*.  A group of ``n`` jobs on graph ``G``
rides ``ceil(n / 64)`` lane words, each costing about one sweep of ``G``'s
edges whatever its occupancy, and is priced
``rate[application] * G.num_edges * ceil(n / 64)``.

A fused sweep is priced as the sum of its groups, and every engine invocation
feeds back one observation, ``seconds / sum(work)``, folded into the
application's rate as an EWMA.  Strategy and platform are pooled on purpose:
they change the *simulated* time, while the host seconds priced here follow
the edges swept — so a rate learned on one graph prices every other graph in
proportion to its edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from ..analysis.lockorder import tracked_lock
from ..traversal.multisource import WORD_BITS

#: EWMA weight of the newest observation.
EWMA_WEIGHT = 0.25
#: Rate of an application never observed: the order of magnitude of the
#: pure-python simulated engines on the repo's scaled-down graphs.
PRIOR_SECONDS_PER_EDGE = 1e-7
#: Flat price of one word on a graph that is registered but not resident: it
#: has no edge count to read, and an estimate must never force a load.
UNSIZED_WORD_SECONDS = 2e-3
#: One batch group of a sweep, ``(batch_key, jobs)``; of the key only the
#: graph name and the application are read.
Group = tuple[tuple, int]


@dataclass(frozen=True)
class CostModelStats:
    """Snapshot of the cost model's coverage and accuracy."""

    #: Applications with a learned rate.
    applications: int = 0
    #: Observations folded into the rates (one per engine invocation).
    samples: int = 0
    #: Mean absolute error of the prediction made *before* each observation
    #: (prior-priced first contacts included), in seconds.
    mean_abs_error_seconds: float = 0.0

    def describe(self) -> str:
        return (
            f"{self.applications} applications / {self.samples} samples, "
            f"mean abs estimate error {self.mean_abs_error_seconds * 1e3:.2f} ms"
        )


class CostModel:
    """Thread-safe estimator: one seconds-per-edge-word rate per application.

    ``edge_lookup`` resolves a graph name to the ``num_edges`` of a *resident*
    graph, or None (it must be cheap and never force a load — see
    :meth:`GraphRegistry.peek`); it is never called with the model lock held.
    """

    def __init__(self, edge_lookup: Callable[[str], int | None] | None = None) -> None:
        self._edge_lookup = edge_lookup or (lambda name: None)
        self._lock = tracked_lock("service.CostModel._lock")
        self._rates: dict[str, float] = {}
        self._samples = 0
        self._error_sum = 0.0

    def _work(self, groups: Iterable[Group]) -> list[tuple[str, int, int | None]]:
        """``(application, words, num_edges or None)`` per group; takes no lock."""
        return [
            (key[1], max(0, -(-jobs // WORD_BITS)), self._edge_lookup(key[0]))
            for key, jobs in groups
        ]

    def _price_locked(self, work) -> float:
        return sum(
            UNSIZED_WORD_SECONDS * words
            if edges is None
            else self._rates.get(application, PRIOR_SECONDS_PER_EDGE) * edges * words
            for application, words, edges in work
        )

    def estimate_sweep(self, groups: Iterable[Group]) -> float:
        """Predicted engine seconds of one sweep: the sum over its groups."""
        work = self._work(groups)
        with self._lock:
            return self._price_locked(work)

    def estimate_group(self, batch_key: tuple, jobs: int) -> float:
        """Predicted engine seconds to drain one group of ``jobs`` jobs."""
        return self.estimate_sweep(((batch_key, jobs),))

    def rate(self, application: str) -> float | None:
        """The application's learned seconds per edge-word; None before any."""
        with self._lock:
            return self._rates.get(application)

    def observe(
        self, groups: Iterable[Group], seconds: float, predicted: float | None = None
    ) -> float | None:
        """Fold one engine invocation into its application's rate.

        ``groups`` (one application — a sweep never mixes them) were swept in
        ``seconds``.  The sample is scored against ``predicted``, the estimate
        made before running it (made here, before the update, when not given).
        Returns the absolute error, or None for a discarded sample: a clock
        glitch, an empty group or an unsized sweep must never poison a rate.
        """
        work = self._work(groups)
        edge_words = sum(words * (edges or 0) for _, words, edges in work)
        if edge_words <= 0 or not 0 <= seconds < math.inf:
            return None
        application = work[0][0]
        observed = seconds / edge_words
        with self._lock:
            if predicted is None:
                predicted = self._price_locked(work)
            rate = self._rates.get(application)
            self._rates[application] = (
                observed if rate is None else rate + EWMA_WEIGHT * (observed - rate)
            )
            error = abs(predicted - seconds)
            self._samples += 1
            self._error_sum += error
        return error

    def seed(self, rates: dict[str, float]) -> int:
        """Seed sane persisted rates where no live one exists; returns how many."""
        with self._lock:
            before = len(self._rates)
            for application, rate in rates.items():
                if 0 <= rate < math.inf:
                    self._rates.setdefault(application, float(rate))
            return len(self._rates) - before

    def stats(self) -> CostModelStats:
        with self._lock:
            mean_error = self._error_sum / max(1, self._samples)
            return CostModelStats(len(self._rates), self._samples, mean_error)
