"""A fixed piece of work that tells how fast the machine let a run go.

The shared VM this benchmark was built on does not only slow down in bursts,
which an op's minimum over its replicas removes: for minutes at a time *every*
minimum of a run is 1.2-1.4 times what it is in the next run (``NOISE.md``).
No statistic of the program's own timings can tell such a phase from a slower
program.  A second, fixed program timed in the same moments can.

One **pass** runs a hundred small pieces of work (0.15 ms each, 16 ms in all
at best): object-heavy Python under a lock, SQLite reads with unpickling, and
numpy gathers, scatters and scans over arrays the size of the benchmark's
graphs - the three kinds of work the program under test does, a third each.  The worker makes one pass
after every timed round, outside its window, and treats the passes like the
rounds: every piece takes its minimum over the passes, and the minima are
summed.  :func:`machine_speed` is ``NOMINAL_SECONDS`` over that sum, 1.0 when
the machine let the run go as fast as the benchmark's VM does at its best.

Nothing here imports :mod:`repro` or depends on ``--seed``: the reference is
the same work on every commit and for every seed.
"""

from __future__ import annotations

import pickle
import sqlite3
import threading
from time import perf_counter
from typing import NamedTuple, Sequence

import numpy as np

#: What the sum of the pieces' minima reads on the benchmark's VM in its fast
#: mode (15.6-16.5 ms over 25 passes); the speed every ``best_*`` metric is
#: stated at.  A constant of the benchmark: changing it rescales every number.
NOMINAL_SECONDS = 0.0160

_ELEMENTS = 25_000
_ROWS = 256


class _Record(NamedTuple):
    key: tuple
    total: int


class Reference:
    """The pieces and the state they work on, built once per process."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0xE2E)
        self._values = rng.random(_ELEMENTS)
        self._index = rng.integers(0, _ELEMENTS, size=_ELEMENTS)
        self._bits = rng.integers(0, 1 << 62, size=_ELEMENTS, dtype=np.uint64)
        self._least = np.ones(_ELEMENTS)
        self._seen = np.zeros(_ELEMENTS, dtype=np.uint64)
        self._keys = [("bfs", "GK", int(k), "uvm") for k in rng.integers(0, 512, size=250)]
        self._table: dict = {}
        self._lock = threading.Lock()
        self._db = sqlite3.connect(":memory:")
        self._db.execute("CREATE TABLE result (key INTEGER PRIMARY KEY, value BLOB)")
        self._db.executemany(
            "INSERT INTO result VALUES (?, ?)",
            [(row, pickle.dumps(rng.integers(0, 64, size=3000, dtype=np.int32)))
             for row in range(_ROWS)],
        )
        self._rows = [int(row) for row in rng.integers(0, _ROWS, size=20)]
        pieces = [self._interpreter] * 30 + [self._library] * 30 + [self._numpy] * 40
        self.pieces = [pieces[i] for i in rng.permutation(len(pieces))]

    def _interpreter(self) -> int:
        table, lock, total = self._table, self._lock, 0
        for key in self._keys:
            with lock:
                record = table.get(key)
                total += key[2] if record is None else record.total & 255
                table[key] = _Record(key, total)
        return total

    def _library(self) -> int:
        total = 0
        for row in self._rows:
            (blob,) = self._db.execute("SELECT value FROM result WHERE key = ?", (row,)).fetchone()
            total += int(pickle.loads(blob)[0])
        return total

    def _numpy(self) -> int:
        gathered = self._values[self._index]
        np.minimum.at(self._least, self._index[:1500], gathered[:1500])
        np.bitwise_or(self._seen, self._bits, out=self._seen)
        return int(np.flatnonzero(gathered > 0.5).size + np.cumsum(self._index)[-1])

    def close(self) -> None:
        self._db.close()

    def run_pass(self) -> list[float]:
        """Run every piece once; their seconds, in the fixed order."""
        seconds = []
        for piece in self.pieces:
            begin = perf_counter()
            piece()
            seconds.append(perf_counter() - begin)
        return seconds


def machine_speed(passes: Sequence[Sequence[float]]) -> float:
    """Speed the machine allowed during ``passes``, 1.0 = nominal.

    Column ``i`` of ``passes`` holds repeated timings of piece ``i``; like an
    op of a replica round, a piece takes its minimum.
    """
    if not passes:
        raise ValueError("no passes")
    return NOMINAL_SECONDS / sum(min(column) for column in zip(*passes, strict=True))
