"""Span recording for the traced run, kept entirely in the benchmark's files.

The traced run assigns timing wrappers around public callables of the program
(class methods on the class, module functions on the name the caller looks
up), records one :class:`Span` per call in memory, and removes every wrapper
when the run ends.  Untraced runs never construct a :class:`SpanRecorder`, so
the end-to-end metrics are measured with nothing installed.

A span carries its name, layer, start, end, the span that caused it (the top
of a thread-local stack), the round and the op or wave the load generator was
issuing.  A layer's *self* time is its duration minus the part of that
interval its child spans cover; self times of different spans never overlap
on one thread, so their shares of a round add up.  Rounds are replicas, so a
layer's seconds per round are its minimum over the traced rounds, like every
other time of this benchmark.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from pathlib import Path
from time import perf_counter
from typing import Iterable, NamedTuple, Sequence


class Span(NamedTuple):
    """One timed call into a layer (times are ``perf_counter`` seconds)."""

    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float
    op: str | None = None
    thread: str = "main"
    round: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span sink plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Round and op (or wave) the load generator is issuing; copied onto
        #: every span that starts meanwhile (worker threads see the wave id).
        self.round = 0
        self.op: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: object, attribute: str, name: str, layer: str) -> None:
        """Replace ``owner.attribute`` by a timing wrapper until :meth:`uninstall`.

        The wrapper is written out flat (no context manager, locals bound
        once): it runs around calls of 0.1 ms, several deep.
        """
        original = vars(owner)[attribute]
        recorder, stack_of, next_id = self, self._stack, self._ids.__next__
        record, thread = self.spans.append, threading.current_thread

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next_id()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            op, round_ = recorder.op, recorder.round
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record(Span(span_id, parent, name, layer, start, end, op,
                            thread().name, round_))

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def install(self, targets: Iterable[tuple[str, str, str, str]]) -> None:
        """Wrap every ``(owner path, attribute, span name, layer)`` target."""
        for path, attribute, name, layer in targets:
            self.wrap(resolve(path), attribute, name, layer)

    def uninstall(self) -> None:
        """Put every original callable back, last wrapped first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @property
    def installed(self) -> int:
        return len(self._patches)


def resolve(path: str) -> object:
    """Import ``pkg.module`` or ``pkg.module:Class`` and return the object."""
    module_name, _, attribute = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attribute) if attribute else owner


def self_seconds(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of every span: duration minus what its children cover.

    Children are the spans naming this one as parent; their intervals are
    clipped to the parent's and merged, so overlapping children (possible
    only across threads) are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.seconds - covered
    return result


class LayerRow(NamedTuple):
    """One line of the per-layer table: one span name in one round."""

    name: str
    calls: int
    busy_seconds: float
    self_seconds: float


def layer_rows(spans: Sequence[Span]) -> dict[str, LayerRow]:
    """Per ``layer.name``: calls of a round, and the least busy and self
    seconds any one round spent there."""
    own = self_seconds(spans)
    per_round: dict[tuple[str, int], list[float]] = {}
    for span in spans:
        row = per_round.setdefault((f"{span.layer}.{span.name}", span.round), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.seconds
        row[2] += own[span.id]
    rows: dict[str, LayerRow] = {}
    for (name, _), (calls, busy, self_) in per_round.items():
        seen = rows.get(name)
        rows[name] = LayerRow(
            name,
            int(calls) if seen is None else max(seen.calls, int(calls)),
            busy if seen is None else min(seen.busy_seconds, busy),
            self_ if seen is None else min(seen.self_seconds, self_),
        )
    return rows


def format_table(rows: dict[str, LayerRow], round_seconds: float) -> str:
    """The per-layer table: calls, busy s, self s and share of one round."""
    lines = [
        f"{'layer':<28}{'calls':>10}{'busy s':>11}{'self s':>11}{'share':>9}",
    ]
    accounted = 0.0
    for row in sorted(rows.values(), key=lambda r: -r.self_seconds):
        accounted += row.self_seconds
        lines.append(
            f"{row.name:<28}{row.calls:>10d}{row.busy_seconds:>11.4f}"
            f"{row.self_seconds:>11.4f}{row.self_seconds / round_seconds:>8.1%}"
        )
    rest = round_seconds - accounted
    lines.append(
        f"{'(outside every span)':<28}{'':>10}{'':>11}{rest:>11.4f}"
        f"{rest / round_seconds:>8.1%}"
    )
    return "\n".join(lines)


def write_jsonl(spans: Iterable[Span], path: Path, epoch: float = 0.0) -> int:
    """Write one JSON object per span; times are seconds since ``epoch``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w") as handle:
        for span in spans:
            record = span._asdict()
            record["start"] = span.start - epoch
            record["end"] = span.end - epoch
            handle.write(json.dumps(record) + "\n")
            count += 1
    return count
