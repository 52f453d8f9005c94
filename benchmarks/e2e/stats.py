"""Robust statistics and digests shared by the worker, the runner and selfcheck.

Pure Python on purpose: the parent process and ``selfcheck`` import this
module without importing numpy or :mod:`repro`.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from typing import Iterable, Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile that rounds *up* to the next sample.

    The same convention as :class:`repro.service.stats.LatencyStats` (ceil
    over the ``n - 1`` gaps), so the benchmark's p50/p90 and the service's
    own latency summary agree on what a percentile is.  The value is always
    one of the samples, never an interpolation between two op classes.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
    ordered = sorted(samples)
    index = min(len(ordered) - 1, math.ceil(fraction * (len(ordered) - 1)))
    return ordered[index]


def median_throughput(rounds: Sequence[tuple[int, float]]) -> float:
    """Median over rounds of ops succeeded / the round's timed seconds.

    With no failed op this is ops per round / the median round's seconds.  A
    failed op leaves the numerator and keeps whatever time it took in the
    denominator, so breaking an op never reads as a gain.
    """
    if not rounds:
        raise ValueError("no rounds")
    return statistics.median(succeeded / seconds for succeeded, seconds in rounds)


def best_of_replicas(rounds: Sequence[Sequence[float | None]]) -> list[float | None]:
    """Each op's minimum latency over its replicas, one row per round.

    Rounds are exact replicas, so column ``i`` holds repeated measurements of
    one and the same op.  Interference on the shared machine only ever adds
    time, and it comes in bursts shorter than a run: the minimum over some
    tens of replicas is the op's undisturbed latency, and it repeats from run
    to run where medians follow the machine's mood (``NOISE.md``).  ``None``
    marks a failed replica; an op that failed every time stays ``None``.
    """
    if not rounds:
        raise ValueError("no rounds")
    best: list[float | None] = []
    for replicas in zip(*rounds, strict=True):
        kept = [latency for latency in replicas if latency is not None]
        best.append(min(kept) if kept else None)
    return best


def best_completions(waves: Sequence[Sequence[float]]) -> list[float]:
    """Undisturbed completion times of a wave's ops, by finish rank.

    Each row holds one replica wave's completion times (seconds since the
    wave arrived).  A wave served by one worker is a chain: the ``k``-th
    completion comes one link after the ``(k-1)``-th, and a replica repeats
    the same links.  Each link takes its minimum over the replicas and the
    chain is summed up again, so a burst that hit one batch of one replica
    does not move anything — the wave-level counterpart of
    :func:`best_of_replicas`.  The last entry is the undisturbed wave.
    """
    if not waves:
        raise ValueError("no waves")
    ordered = [sorted(wave) for wave in waves]
    links = [
        min(wave[rank] - (wave[rank - 1] if rank else 0.0) for wave in ordered)
        for rank in range(len(ordered[0]))
    ]
    completions, elapsed = [], 0.0
    for link in links:
        elapsed += link
        completions.append(elapsed)
    return completions


def best_round(
    replicas: Sequence[Sequence[float | None]], sequential: bool
) -> tuple[float, list[float]]:
    """Undisturbed ops per second and op latencies (seconds) of a round.

    ``sequential``: the ops ran one after another, so the round lasts the sum
    of their best latencies, and the rate is the ops that ever succeeded over
    the time *they* took — an op that failed in every replica leaves both.
    Otherwise the ops overlapped in a wave and the rows are completion times:
    only waves in which every op succeeded count, and the round lasts until
    the last link of their completion chain.  With nothing to count the rate
    is 0 and there are no latencies.
    """
    if sequential:
        best = [latency for latency in best_of_replicas(replicas) if latency is not None]
        seconds = sum(best)
    else:
        waves = [wave for wave in replicas if None not in wave]
        best = best_completions(waves) if waves else []
        seconds = best[-1] if best else 0.0
    return (len(best) / seconds if seconds else 0.0), best


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile range over the median, as the driver computes it.

    ``statistics.quantiles(values, n=4)`` gives the first and third quartile;
    their distance as a share of the median is the run-to-run spread a
    metric's bound is judged against.
    """
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(third - first) / abs(middle) if middle else math.inf


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative = better)."""
    if first == 0:
        return 0.0 if second == 0 else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def digest_bytes(chunks: Iterable[bytes]) -> str:
    """Short stable digest of a byte stream (16 hex digits)."""
    hasher = hashlib.blake2b(digest_size=8)
    for chunk in chunks:
        hasher.update(chunk)
    return hasher.hexdigest()


def digest_text(parts: Iterable[str]) -> str:
    """Short stable digest of a sequence of strings."""
    return digest_bytes(part.encode() + b"\x00" for part in parts)
