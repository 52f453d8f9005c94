"""Durable serving state on SQLite/WAL: catalog, result cache, cost rates.

A :class:`ServingStore` makes the three pieces of serving state that used to
die with the process survive restarts:

Graph catalog
    One row per registered graph name: content fingerprint (sha1 over the
    CSR arrays and structural fields), byte size, degree statistics from
    :mod:`repro.graph.analysis`, generator parameters (``graph.meta``), and
    load/eviction accounting.  The fingerprint recorded at the *last actual
    load* is the version every cached result is validated against.

Result cache
    Two tables, no serialized objects.  ``result_values`` holds one row per
    (graph, fingerprint, application, source): the values array as its raw
    C-order bytes and its dtype.  Values depend on neither strategy nor
    platform, so every configuration asked of one source shares that row.
    ``result_cache`` holds one row per :attr:`TraversalRequest.cache_key`:
    the fingerprint of the graph object the sweep ran on and the metrics as
    columns (simulated seconds, the time components and the integer
    counters as two fixed-width blobs, the platform name, the relax
    backend, PageRank's iteration count and convergence flag).  Its foreign
    key to ``result_values`` cascades deletes.  A lookup joins both tables
    and the catalog, so a row whose fingerprint no longer matches the
    graph's last-load fingerprint is *detected as stale and treated as a
    miss*, never served; :meth:`record_load` purges mismatched values rows
    (and, by cascade, their metric rows) the moment a graph's content is
    observed to have changed.  Neither table has a foreign key to the
    catalog: the join does the validation, so a result never waits for its
    graph's catalog row.  :func:`_encode_result` / :func:`_decode_result`
    are the one codec between a result and these columns; a result they
    cannot hold exactly is not written.

Cost-model rates
    One row per application holding its learned seconds per edge-word,
    replaced (``INSERT OR REPLACE``) in every sweep's transaction — four
    rows at most.  :meth:`load_cost_rates` returns them so a restarted
    :class:`~repro.service.costmodel.CostModel` prices work from what it
    learned instead of the prior.

Older files upgrade in place at open, in one transaction.  Version 1 kept
per-family EWMA rows in ``cost_history``, which the rate model cannot read:
the table is dropped.  Versions 1 and 2 kept each result as one pickled
payload column: each row is decoded once and re-encoded into the two
tables, and a row that fails to decode is dropped (it can be recomputed).

Pragma discipline follows the Paper-Scanner schema in SNIPPETS.md:
``journal_mode=WAL``, ``foreign_keys=ON``, ``synchronous=NORMAL``,
``busy_timeout=30000`` ms, booleans as INTEGER 0/1, timestamps as TEXT UTC
ISO-8601.

Robustness model
----------------

The store must never make a request fail:

* Sweep writes are **asynchronous**: a worker queues one op per engine
  invocation (:meth:`record_sweep`; encoding deferred to the flush thread,
  so neither a client nor the next sweep waits on SQLite), and a daemon
  flush thread commits each burst of them as one transaction.  A full
  queue drops the newest op and counts it, as does :meth:`close` for ops a
  stalled flush thread never took.  Loads and evictions commit inline on
  the thread that observed them; the flush thread encodes and hashes
  before it takes the write lock, so they wait only for its inserts.
* A failed or skipped write is counted and **not retried** — every row can
  be re-derived: a result by recomputing it, a rate from the next
  observation, a catalog row from the next load.  Until a load's catalog
  row commits, its graph's cached rows are hidden from lookups, so a lost
  catalog write costs misses, never a stale hit.
* Every SQLite touch runs behind a **circuit breaker**.  Consecutive
  failures (including armed ``store.*`` faults) open it: reads answer
  ``None`` and writes are skipped immediately until the cooldown's
  half-open probe.  While open the service is exactly the old
  in-memory-only system — *degraded, not failing*.
* :meth:`open` runs ``PRAGMA integrity_check`` first.  A corrupt or torn
  database (a crash mid-write, a truncated file) is **quarantined**: the
  database and its ``-wal``/``-shm`` sidecars are renamed aside and a fresh
  store is initialized, so the service always boots.
* Chaos drills arm the ``store.open`` / ``store.read`` / ``store.write`` /
  ``store.checkpoint`` fault sites through the ordinary ``REPRO_FAULTS``
  plans (see :mod:`repro.service.faults`).

The store reports its condition as one of ``ok`` (durable), ``degraded``
(breaker open or connection lost — in-memory behavior), ``quarantined``
(durable again, but a corrupt predecessor was renamed aside this boot).
A detached service reports ``disabled``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import queue
import sqlite3
import struct
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..analysis.lockorder import tracked_lock
from ..errors import StoreError
from ..graph.analysis import degree_stats
from ..graph.csr import CSRGraph
from ..memsim.metrics import COUNTER_ROW_WIDTH, TrafficRecord
from ..obs.metrics import CATALOG, MetricsRegistry
from ..timing import TimeBreakdown
from ..traversal.pagerank import PageRankResult
from ..traversal.results import KernelCounters, TraversalMetrics, TraversalResult
from ..types import AccessStrategy, Application
from . import faults
from .resilience import CircuitBreaker

logger = logging.getLogger("repro.service")

SCHEMA_VERSION = 3

#: Numeric encoding of store states for the ``repro_store_state`` gauge.
STORE_STATE_CODES = {
    "ok": 0,
    "degraded": 1,
    "quarantined": 2,
    "disabled": 3,
}

#: Pending-write queue bound: beyond this, the newest op is dropped (and
#: counted) instead of blocking a worker.
DEFAULT_QUEUE_LIMIT = 4096

#: Max ops folded into one flush transaction.
FLUSH_BATCH_LIMIT = 256

#: Seconds the flush thread holds a batch open for the rest of its burst.
FLUSH_INTERVAL = 0.05

#: Seconds flush() and close() wait on a stalled flush thread before giving
#: up on the ops still queued.
DRAIN_TIMEOUT = 5.0

#: Longest single wait of flush() on the queue's last task_done(); it kicks
#: the flush thread again before each, so a kick lost to the thread clearing
#: the event for its coalescing wait delays a drain by one slice at most.
DRAIN_SLICE = 0.001

#: Run one statement at a time inside the open transaction, so an upgrade
#: commits with the tables it creates or not at all.
_SCHEMA = (
    """CREATE TABLE IF NOT EXISTS store_meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS graph_catalog (
        name TEXT PRIMARY KEY,
        fingerprint TEXT NOT NULL,
        num_vertices INTEGER NOT NULL,
        num_edges INTEGER NOT NULL,
        total_bytes INTEGER NOT NULL,
        average_degree REAL NOT NULL,
        median_degree REAL NOT NULL,
        max_degree INTEGER NOT NULL,
        min_degree INTEGER NOT NULL,
        std_degree REAL NOT NULL,
        params TEXT NOT NULL,
        resident INTEGER NOT NULL DEFAULT 0,
        loads INTEGER NOT NULL DEFAULT 0,
        evictions INTEGER NOT NULL DEFAULT 0,
        first_loaded_at TEXT NOT NULL,
        last_loaded_at TEXT NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS result_values (
        graph TEXT NOT NULL,
        fingerprint TEXT NOT NULL,
        application TEXT NOT NULL,
        source TEXT NOT NULL,
        dtype TEXT NOT NULL,
        data BLOB NOT NULL,
        PRIMARY KEY (graph, fingerprint, application, source)
    )""",
    # The primary key's (graph, application, source) prefix is the index
    # the cascade from result_values searches.
    """CREATE TABLE IF NOT EXISTS result_cache (
        graph TEXT NOT NULL,
        application TEXT NOT NULL,
        source TEXT NOT NULL,
        strategy TEXT NOT NULL,
        system TEXT NOT NULL,
        fingerprint TEXT NOT NULL,
        graph_name TEXT NOT NULL,
        seconds REAL NOT NULL,
        times BLOB NOT NULL,
        counts BLOB NOT NULL,
        system_name TEXT NOT NULL,
        relax_backend TEXT,
        iterations INTEGER,
        converged INTEGER,
        created_at TEXT NOT NULL,
        PRIMARY KEY (graph, application, source, strategy, system),
        FOREIGN KEY (graph, fingerprint, application, source)
            REFERENCES result_values (graph, fingerprint, application, source)
            ON DELETE CASCADE
    )""",
    """CREATE TABLE IF NOT EXISTS cost_rates (
        application TEXT PRIMARY KEY,
        seconds_per_edge_word REAL NOT NULL,
        recorded_at TEXT NOT NULL
    )""",
    # Version 1 kept per-family EWMA rows the rate model cannot read.
    "DROP TABLE IF EXISTS cost_history",
)

_INSERT_VALUES = (
    "INSERT INTO result_values"
    " (graph, fingerprint, application, source, dtype, data)"
    " VALUES (?, ?, ?, ?, ?, ?)"
    # Never OR REPLACE: replacing deletes the old row, and the cascade
    # would take every other configuration's metric row with it.
    " ON CONFLICT DO NOTHING"
)

_INSERT_RESULT = (
    "INSERT OR REPLACE INTO result_cache"
    " (graph, application, source, strategy, system, fingerprint,"
    "  graph_name, seconds, times, counts, system_name, relax_backend,"
    "  iterations, converged, created_at)"
    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)

#: The columns :func:`_decode_result` reads, after the key columns.
_RESULT_COLUMNS = (
    "r.graph_name, r.seconds, r.times, r.counts, r.system_name,"
    " r.relax_backend, r.iterations, r.converged, v.dtype, v.data"
)

_JOIN_VALUES = (
    " JOIN result_values v ON v.graph = r.graph"
    " AND v.fingerprint = r.fingerprint"
    " AND v.application = r.application AND v.source = r.source"
)

#: One key's result, validated against the catalog: the join makes
#: staleness detection part of the query.
_LOOKUP = (
    f"SELECT {_RESULT_COLUMNS} FROM result_cache r"
    " JOIN graph_catalog g ON g.name = r.graph AND g.fingerprint = r.fingerprint"
    f"{_JOIN_VALUES}"
    " WHERE r.graph = ? AND r.application = ? AND r.source = ?"
    " AND r.strategy = ? AND r.system = ?"
)

#: ``result_cache.times``: the six :meth:`TimeBreakdown.components`.
_TIMES = struct.Struct("<6d")

#: ``result_cache.counts``: :meth:`TrafficRecord.counter_row`, then the
#: five :class:`KernelCounters` ints, ``dataset_bytes`` and ``iterations``.
_COUNTS = struct.Struct(f"<{COUNTER_ROW_WIDTH + 7}q")

_APPLICATIONS = {application.value: application for application in Application}
_STRATEGIES = {strategy.value: strategy for strategy in AccessStrategy}


def _encode_result(
    columns: tuple[str, ...], fingerprint: str, result, created_at: str
) -> tuple[tuple, tuple]:
    """The ``result_values`` row and the ``result_cache`` row of ``result``
    stored under the key ``columns``; the inverse of :func:`_decode_result`.

    Raises for a result the columns cannot hold exactly: an unknown
    application, a class other than the one ``application`` decodes to, no
    kernel counters, a non-empty ``TimeBreakdown.extra``, a counter that is
    not an int64, values that are not a flat array of numbers.
    """
    graph, application, source, strategy, system = columns
    if application not in _APPLICATIONS:
        raise ValueError(f"unknown application {application!r}")
    if application == "pagerank":
        if type(result) is not PageRankResult:
            raise TypeError(f"cannot store {type(result).__name__} as pagerank")
        iterations, converged = int(result.iterations), int(bool(result.converged))
    elif type(result) is TraversalResult:
        iterations = converged = None
    else:
        raise TypeError(f"cannot store {type(result).__name__}")
    metrics = result.metrics
    counters = metrics.counters
    breakdown = metrics.breakdown
    values = result.values
    if (
        counters is None
        or breakdown.extra
        or values.ndim != 1
        or values.dtype.kind not in "biufc"
    ):
        raise ValueError("result does not fit the result_cache columns")
    values_row = (
        graph, fingerprint, application, source, values.dtype.str, values.tobytes()
    )
    return values_row, (
        graph,
        application,
        source,
        strategy,
        system,
        fingerprint,
        result.graph_name,
        float(metrics.seconds),
        _TIMES.pack(*breakdown.components()),
        _COUNTS.pack(
            *metrics.traffic.counter_row(),
            counters.iterations,
            counters.frontier_vertices,
            counters.edges_traversed,
            counters.max_frontier,
            counters.relax_candidates,
            metrics.dataset_bytes,
            metrics.iterations,
        ),
        metrics.system_name,
        counters.relax_backend,
        iterations,
        converged,
        created_at,
    )


def _decode_result(
    application: str, source: str, strategy: str, row: Sequence
) -> TraversalResult | PageRankResult:
    """Rebuild a result from its key columns and its :data:`_RESULT_COLUMNS`.

    The key supplies the application, source and strategy: a row answers
    for the request it was stored under.  Values come back as a writable
    copy.
    """
    (
        graph_name, seconds, times, counts, system_name, relax_backend,
        iterations, converged, dtype, data,
    ) = row
    counts = _COUNTS.unpack(counts)
    kind = _STRATEGIES.get(strategy, strategy)
    metrics = TraversalMetrics(
        seconds=seconds,
        breakdown=TimeBreakdown(*_TIMES.unpack(times)),
        traffic=TrafficRecord.from_counter_row(counts[:COUNTER_ROW_WIDTH]),
        iterations=counts[-1],
        dataset_bytes=counts[-2],
        strategy=kind,
        system_name=system_name,
        counters=KernelCounters(*counts[COUNTER_ROW_WIDTH:-2], relax_backend),
    )
    values = np.frombuffer(data, dtype).copy()
    if application == "pagerank":
        return PageRankResult(
            graph_name, kind, values, iterations, bool(converged), metrics
        )
    return TraversalResult(
        _APPLICATIONS[application],
        graph_name,
        kind,
        None if source == "-" else int(source),
        values,
        metrics,
    )


def _upgrade_pickled_results(conn: sqlite3.Connection) -> None:
    """Re-encode a version-1 or -2 file's ``result_cache_pickled`` rows.

    Each pickled result is decoded once and written into ``result_values``
    and ``result_cache``; a row that will not decode, or that the columns
    cannot hold, is dropped (it can be recomputed).  The old table goes.
    Runs inside :meth:`ServingStore._init_schema`'s transaction, and is the
    one place the store reads a pickle.
    """
    import pickle

    kept = dropped = 0
    # Streamed, not fetched whole: an old file may hold many results.
    rows = conn.execute(
        "SELECT graph, application, source, strategy, system, fingerprint,"
        " payload, created_at FROM result_cache_pickled"
    )
    for *key, fingerprint, payload, created_at in rows:
        try:
            values, metrics = _encode_result(
                tuple(key), fingerprint, pickle.loads(payload), created_at
            )
        except Exception:
            dropped += 1
            continue
        conn.execute(_INSERT_VALUES, values)
        conn.execute(_INSERT_RESULT, metrics)
        kept += 1
    conn.execute("DROP TABLE result_cache_pickled")
    logger.info("durable store upgraded: %d results kept, %d dropped", kept, dropped)


def _utcnow() -> str:
    """TEXT UTC ISO-8601 timestamp, the store's only wall-clock format."""
    return datetime.now(timezone.utc).isoformat()


def graph_fingerprint(graph: CSRGraph) -> str:
    """Content hash of a CSR graph: arrays plus the structural fields.

    Two graphs with identical topology, weights, direction and simulated
    element size fingerprint identically regardless of name or metadata —
    the version tag cached results are validated against.
    """
    digest = hashlib.sha1()
    digest.update(graph.offsets.tobytes())
    digest.update(graph.edges.tobytes())
    if graph.weights is not None:
        digest.update(graph.weights.tobytes())
    digest.update(
        f"|d={int(graph.directed)}|b={graph.element_bytes}".encode("ascii")
    )
    return digest.hexdigest()[:16]


def failed_operations(metrics: MetricsRegistry) -> int:
    """Store failures absorbed: ``repro_store_operations_total`` over every
    ``outcome="error"`` child (armed faults included)."""
    samples = metrics["repro_store_operations_total"].samples()
    return int(sum(n for (_, outcome), n in samples.items() if outcome == "error"))


def _key_columns(key: tuple) -> tuple[str, str, str, str, str]:
    """Flatten a request cache key into the result_cache key columns.

    ``source`` may be ``None`` (streaming applications); the primary key
    cannot hold NULL so it is stored as ``"-"``, matching how requests
    render a missing source.
    """
    graph, application, source, strategy, system = key
    return (
        str(graph),
        str(application),
        "-" if source is None else str(int(source)),
        str(strategy),
        str(system),
    )


@dataclass(frozen=True)
class StoreStats:
    """Counter snapshot for ``stats()`` and metrics exposition.

    ``hits``, ``writes`` (rows committed), ``dropped``, ``errors`` and
    ``backfilled`` are reads of the store's ``repro_store_*`` series; the
    rest are its state, queue depth and table sizes.
    """

    state: str
    path: str
    hits: int
    writes: int
    dropped: int
    errors: int
    backfilled: int
    pending: int
    quarantined: bool
    catalog_rows: int
    result_rows: int
    rate_rows: int


class ServingStore:
    """SQLite/WAL durability layer behind a circuit breaker.

    ``metrics`` is the registry the store counts into: every operation
    (``repro_store_operations_total`` by op and outcome), persistent hit,
    row written, result backfilled, dropped sweep write and breaker
    transition lands on its
    catalog-declared ``repro_store_*`` series, which is the only copy of
    those counts.  A service passes its own ledger; a standalone store
    builds one from :data:`~repro.obs.metrics.CATALOG`.
    """

    def __init__(
        self,
        path: str | Path,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        failure_threshold: int = 3,
        cooldown_seconds: float = 2.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not str(path):
            raise StoreError("store path must be a non-empty filesystem path")
        self.path = Path(path)
        self._metrics = MetricsRegistry(CATALOG) if metrics is None else metrics
        self._ops = self._metrics["repro_store_operations_total"]
        self._hit_series = self._metrics["repro_store_hits_total"]
        #: The two writes of every store hit, bound once (the only bound
        #: store series).
        self._read_ok = self._ops.bind(op="read", outcome="ok")
        self._hit = self._hit_series.bind()
        self._drop_series = self._metrics["repro_store_dropped_writes_total"]
        self._rows_written = self._metrics["repro_store_rows_written_total"]
        self._backfilled = self._metrics["repro_store_backfilled_total"]
        self._db_lock = tracked_lock("service.ServingStore._db_lock")
        #: Reads run on their own WAL connection behind their own lock, so a
        #: hot-path lookup never waits for the flush thread's write
        #: transaction — the concurrency WAL mode exists to provide.
        self._read_lock = tracked_lock("service.ServingStore._read_lock")
        self._state_lock = tracked_lock("service.ServingStore._state_lock")
        self._conn: sqlite3.Connection | None = None
        self._read_conn: sqlite3.Connection | None = None
        self._quarantined_from: str | None = None
        self._closed = False
        self._final_state = "ok"
        #: Key columns of every row in ``result_cache``, maintained by this
        #: process's writes.  A miss is decided from this set without
        #: touching SQLite at all: on a service whose workers hold the GIL
        #: in numpy kernels, even a sub-50us C call from the request thread
        #: costs a GIL handoff (~0.5ms wall per call), so the common case —
        #: cold lookups that will miss — must stay pure Python.  Accurate
        #: for a single serving process per database; the sharded tier will
        #: need cross-process invalidation here.
        self._known_keys: set[tuple[str, str, str, str, str]] = set()
        #: name -> (graph, fingerprint) of each graph's last recorded load, so
        #: a sweep over that very object is tagged without re-hashing it.
        #: Dropped at eviction, which keeps the store from pinning a graph
        #: the registry let go.
        self._loaded: dict[str, tuple[CSRGraph, str]] = {}
        self._breaker = CircuitBreaker(
            failure_threshold=failure_threshold,
            cooldown_seconds=cooldown_seconds,
            on_transition=self._note_breaker,
        )
        self._pending: queue.Queue = queue.Queue(maxsize=queue_limit)
        self._stop = threading.Event()
        # Set by flush()/close() to cut the flusher's coalescing wait
        # short; the flusher clears it after each wakeup.
        self._kick = threading.Event()
        # First open happens inline so a corrupt database is quarantined
        # before the service accepts any request; failures degrade rather
        # than raise (the breaker's half-open probe retries later).
        self._try_open(initial=True)
        self._flusher = threading.Thread(
            target=self._flush_loop, name="repro-store-flush", daemon=True
        )
        self._flusher.start()

    # ------------------------------------------------------------------ #
    # Open / recovery
    # ------------------------------------------------------------------ #
    def _try_open(self, initial: bool = False) -> bool:
        """Open (or re-open) the database; True on success.

        Runs the ``store.open`` fault site, then ``PRAGMA integrity_check``.
        A corrupt database is quarantined (renamed aside with its WAL/SHM
        sidecars) and a fresh one initialized in its place — boot always
        succeeds unless the open itself keeps failing, in which case the
        store degrades to a no-op and the breaker schedules re-probes.
        """
        try:
            with self._db_lock:
                faults.check("store.open", path=str(self.path))
                self.path.parent.mkdir(parents=True, exist_ok=True)
                try:
                    conn = self._connect()
                    healthy = self._integrity_ok(conn)
                except sqlite3.DatabaseError:
                    # A file so damaged the connection pragmas themselves
                    # fail is corruption, not an environment error.
                    conn = None
                    healthy = False
                if not healthy:
                    if conn is not None:
                        conn.close()
                    self._quarantine()
                    conn = self._connect()
                self._init_schema(conn)
                if self._conn is not None:
                    try:
                        self._conn.close()
                    except sqlite3.Error:
                        pass
                self._conn = conn
            with self._read_lock:
                if self._read_conn is not None:
                    try:
                        self._read_conn.close()
                    except sqlite3.Error:
                        pass
                self._read_conn = self._connect()
                rows = self._read_conn.execute(
                    "SELECT graph, application, source, strategy, system"
                    " FROM result_cache"
                ).fetchall()
            with self._state_lock:
                # A graph loaded while the store was unreachable has no catalog
                # row for its content yet, so its old rows stay hidden.
                self._known_keys = {
                    tuple(row) for row in rows if row[0] not in self._loaded
                }
        except Exception:
            self._breaker.record_failure()
            self._ops.inc(op="open", outcome="error")
            if initial:
                # Leave a breadcrumb in the counters; the service stays up.
                self._conn = None
            return False
        self._breaker.record_success()
        self._ops.inc(op="open", outcome="ok")
        return True

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            str(self.path), timeout=30.0, check_same_thread=False
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA foreign_keys=ON")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=30000")
        return conn

    def _integrity_ok(self, conn: sqlite3.Connection) -> bool:
        try:
            row = conn.execute("PRAGMA integrity_check").fetchone()
            if row is None or row[0] != "ok":
                return False
        except sqlite3.Error:
            return False
        try:
            version = conn.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.OperationalError:
            # Fresh (or pre-schema) database: no meta table yet is fine,
            # _init_schema will create it.
            return True
        except sqlite3.Error:
            return False
        # Versions 1 and 2 upgrade in place (_init_schema).  Anything else
        # is not ours to interpret.
        return version is None or version[0] in ("1", "2", str(SCHEMA_VERSION))

    def _quarantine(self) -> None:
        """Rename a corrupt database (and sidecars) aside, keep its name."""
        stamp = _utcnow().replace(":", "").replace("+", "Z")
        target = self.path.with_name(f"{self.path.name}.quarantined-{stamp}")
        self.path.rename(target)
        for suffix in ("-wal", "-shm"):
            sidecar = Path(str(self.path) + suffix)
            if sidecar.exists():
                sidecar.rename(Path(str(target) + suffix))
        with self._state_lock:
            self._quarantined_from = str(target)

    def _init_schema(self, conn: sqlite3.Connection) -> None:
        """Create the tables, upgrading a version-1 or -2 file, in one
        transaction."""
        conn.execute("BEGIN IMMEDIATE")
        try:
            columns = conn.execute("PRAGMA table_info(result_cache)").fetchall()
            pickled = "payload" in {column[1] for column in columns}
            if pickled:
                conn.execute("ALTER TABLE result_cache RENAME TO result_cache_pickled")
            for statement in _SCHEMA:
                conn.execute(statement)
            if pickled:
                _upgrade_pickled_results(conn)
            conn.executemany(
                "INSERT OR REPLACE INTO store_meta (key, value) VALUES (?, ?)",
                (("schema_version", str(SCHEMA_VERSION)), ("opened_at", _utcnow())),
            )
            conn.commit()
        except BaseException:
            conn.rollback()
            raise

    def _guarded_connection(self, op: str) -> sqlite3.Connection | None:
        """The live connection, gated by the breaker.

        An open breaker answers ``None`` immediately (the op is skipped, not
        attempted); a half-open breaker lets one probe through.  A lost
        connection is re-opened on the spot when the breaker allows — the
        store self-heals from transient open failures.
        """
        if self._closed:
            return None
        if not self._breaker.allow():
            self._ops.inc(op=op, outcome="skipped")
            return None
        if self._conn is None:
            self._try_open()
        return self._conn

    def _guarded_read_connection(self, op: str) -> sqlite3.Connection | None:
        """Like :meth:`_guarded_connection`, for the read-only connection."""
        if self._guarded_connection(op) is None:
            return None
        return self._read_conn

    # ------------------------------------------------------------------ #
    # State / stats
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        """``ok`` | ``degraded`` | ``quarantined`` (see module docstring)."""
        if self._closed:
            # Post-mortem reads see the condition the store closed in; a
            # clean shutdown's torn-down connection is not degradation.
            return self._final_state
        if self._conn is None or self._breaker.state != CircuitBreaker.CLOSED:
            return "degraded"
        with self._state_lock:
            if self._quarantined_from is not None:
                return "quarantined"
        return "ok"

    @property
    def quarantined_path(self) -> str | None:
        with self._state_lock:
            return self._quarantined_from

    def stats(self) -> StoreStats:
        catalog = results = rates = 0
        conn = self._read_conn
        if conn is not None and self._breaker.state == CircuitBreaker.CLOSED:
            try:
                with self._read_lock:
                    catalog = conn.execute(
                        "SELECT COUNT(*) FROM graph_catalog"
                    ).fetchone()[0]
                    results = conn.execute(
                        "SELECT COUNT(*) FROM result_cache"
                    ).fetchone()[0]
                    rates = conn.execute(
                        "SELECT COUNT(*) FROM cost_rates"
                    ).fetchone()[0]
            except sqlite3.Error:
                pass
        return StoreStats(
            state=self.state,
            path=str(self.path),
            hits=int(self._hit_series.value()),
            writes=int(self._rows_written.value()),
            dropped=int(self._drop_series.value()),
            errors=failed_operations(self._metrics),
            backfilled=int(self._backfilled.value()),
            pending=self._pending.qsize(),
            quarantined=self.quarantined_path is not None,
            catalog_rows=catalog,
            result_rows=results,
            rate_rows=rates,
        )

    def _note_breaker(self, state: str) -> None:
        self._metrics["repro_store_breaker_transitions_total"].inc(state=state)
        logger.warning("durable store circuit breaker -> %s", state)

    # ------------------------------------------------------------------ #
    # Reads (request path: fast, absorb everything)
    # ------------------------------------------------------------------ #
    def lookup(self, key: tuple) -> TraversalResult | None:
        """Persistent-cache read validated against the catalog fingerprint.

        The join makes staleness *detection* part of the query: a row whose
        fingerprint differs from the graph's last-load fingerprint can never
        be returned.  Any store trouble — armed fault, locked file, broken
        connection — is absorbed into a miss.
        """
        columns = _key_columns(key)
        # Misses are decided from the in-memory key set — no SQLite, no GIL
        # handoff to a C call — because on a loaded service the miss is the
        # common case and the request thread competes with numpy kernels.
        # Decided before the breaker is asked, so such a miss never takes a
        # half-open probe it would leave unresolved.
        with self._state_lock:
            if columns not in self._known_keys:
                return None
        conn = self._guarded_read_connection("read")
        if conn is None:
            return None
        try:
            with self._read_lock:
                faults.check("store.read", table="result_cache")
                row = conn.execute(_LOOKUP, columns).fetchone()
            if row is None:
                self._breaker.record_success()
                self._read_ok.inc()
                return None
            result = _decode_result(columns[1], columns[2], columns[3], row)
        except Exception:
            self._breaker.record_failure()
            self._ops.inc(op="read", outcome="error")
            return None
        self._breaker.record_success()
        self._read_ok.inc()
        self._hit.inc()
        return result

    def load_cost_rates(self) -> dict[str, float]:
        """The persisted cost-model rate of each application, for seeding."""
        conn = self._guarded_read_connection("read")
        if conn is None:
            return {}
        try:
            with self._read_lock:
                faults.check("store.read", table="cost_rates")
                rows = conn.execute(
                    "SELECT application, seconds_per_edge_word FROM cost_rates"
                ).fetchall()
        except Exception:
            self._breaker.record_failure()
            self._ops.inc(op="read", outcome="error")
            return {}
        self._breaker.record_success()
        self._read_ok.inc()
        return {application: float(rate) for application, rate in rows}

    # ------------------------------------------------------------------ #
    # Graph lifecycle (load path: synchronous I/O is fine here)
    # ------------------------------------------------------------------ #
    def record_load(
        self, name: str, graph: CSRGraph
    ) -> list[tuple[tuple, TraversalResult]]:
        """Catalog a completed graph load; return rows to backfill.

        One transaction upserts the catalog row and purges cached results
        whose fingerprint no longer matches the loaded content; the
        still-valid rows are then read back so the service can warm its
        in-memory cache — restart repeats then hit at memory speed.

        The graph's rows are hidden from :meth:`lookup` until that
        transaction commits: if it fails or the breaker skips it, the catalog
        still holds the previous content's fingerprint, so they stay hidden
        (lookups miss) until a later load of ``name`` commits.
        """
        fingerprint = graph_fingerprint(graph)
        stats = degree_stats(graph)
        params = json.dumps(dict(graph.meta), sort_keys=True, default=str)
        with self._state_lock:
            self._loaded[name] = (graph, fingerprint)
            self._known_keys = {k for k in self._known_keys if k[0] != name}
        now = _utcnow()

        def apply(conn: sqlite3.Connection) -> int:
            conn.execute(
                "INSERT INTO graph_catalog"
                " (name, fingerprint, num_vertices, num_edges, total_bytes,"
                "  average_degree, median_degree, max_degree, min_degree,"
                "  std_degree, params, resident, loads, evictions,"
                "  first_loaded_at, last_loaded_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 1, 1, 0, ?, ?)"
                " ON CONFLICT(name) DO UPDATE SET"
                "  fingerprint = excluded.fingerprint,"
                "  num_vertices = excluded.num_vertices,"
                "  num_edges = excluded.num_edges,"
                "  total_bytes = excluded.total_bytes,"
                "  average_degree = excluded.average_degree,"
                "  median_degree = excluded.median_degree,"
                "  max_degree = excluded.max_degree,"
                "  min_degree = excluded.min_degree,"
                "  std_degree = excluded.std_degree,"
                "  params = excluded.params,"
                "  resident = 1,"
                "  loads = graph_catalog.loads + 1,"
                "  last_loaded_at = excluded.last_loaded_at",
                (
                    name,
                    fingerprint,
                    stats.num_vertices,
                    stats.num_edges,
                    graph.total_bytes,
                    stats.average_degree,
                    stats.median_degree,
                    stats.max_degree,
                    stats.min_degree,
                    stats.std_degree,
                    params,
                    now,
                    now,
                ),
            )
            # Cascades to the metric rows of the purged values.
            conn.execute(
                "DELETE FROM result_values WHERE graph = ? AND fingerprint != ?",
                (name, fingerprint),
            )
            survivors = conn.execute(
                "SELECT graph, application, source, strategy, system"
                " FROM result_cache WHERE graph = ?",
                (name,),
            ).fetchall()
            with self._state_lock:
                self._known_keys.update(tuple(row) for row in survivors)
            return 2

        self._commit(apply)
        return self._backfill_rows(name, fingerprint)

    def _backfill_rows(
        self, name: str, fingerprint: str
    ) -> list[tuple[tuple, TraversalResult]]:
        conn = self._guarded_read_connection("read")
        if conn is None:
            return []
        try:
            with self._read_lock:
                faults.check("store.read", table="result_cache")
                rows = conn.execute(
                    "SELECT r.graph, r.application, r.source, r.strategy,"
                    f" r.system, {_RESULT_COLUMNS} FROM result_cache r"
                    f"{_JOIN_VALUES}"
                    " WHERE r.graph = ? AND r.fingerprint = ?",
                    (name, fingerprint),
                ).fetchall()
        except Exception:
            self._breaker.record_failure()
            self._ops.inc(op="read", outcome="error")
            return []
        self._breaker.record_success()
        self._read_ok.inc()
        entries = []
        for graph, application, source, strategy, system, *columns in rows:
            try:
                result = _decode_result(application, source, strategy, columns)
            except Exception:
                continue
            key = (
                graph,
                application,
                None if source == "-" else int(source),
                strategy,
                system,
            )
            entries.append((key, result))
        if entries:
            self._backfilled.inc(len(entries))
        return entries

    def record_eviction(self, name: str) -> None:
        """Mark the graph non-resident in the catalog and count the eviction."""
        with self._state_lock:
            self._loaded.pop(name, None)

        def apply(conn: sqlite3.Connection) -> int:
            conn.execute(
                "UPDATE graph_catalog SET resident = 0,"
                " evictions = evictions + 1 WHERE name = ?",
                (name,),
            )
            return 1

        self._commit(apply)

    # ------------------------------------------------------------------ #
    # Sweep writes (hot path: enqueue only)
    # ------------------------------------------------------------------ #
    def record_sweep(
        self,
        graph: CSRGraph,
        results: Sequence[tuple[tuple, TraversalResult]],
        rate_of: Callable[[str], float | None],
    ) -> None:
        """Queue one engine invocation's write for the flush thread.

        Every ``(cache_key, result)`` pair (at least one; one graph, one
        application) is a request's key and the result that answers it: a
        lookup reads the application, source and strategy back from the
        key.  Each lands in ``result_values`` and ``result_cache`` (or, if
        the columns cannot hold it exactly, is counted as a failed write),
        tagged with the fingerprint of ``graph`` — the object the sweep ran
        on, not whatever the catalog holds when the write commits — unless
        its graph has been loaded with other content since, in which case
        the rows are not written at all.
        ``rate_of`` (the cost model's ``rate``; ``None`` for an application
        with no learned rate yet) is read when the flush thread takes the
        op, so the last commit persists the newest rate.
        """
        if self._stop.is_set():
            return
        try:
            self._pending.put_nowait((graph, list(results), rate_of))
        except queue.Full:
            self._drop_series.inc()

    def _sweep_rows(
        self, graph: CSRGraph, results: list[tuple[tuple, TraversalResult]]
    ) -> tuple[str, list[tuple], list[tuple]]:
        """Fingerprint and encode one queued sweep, before the write lock.

        Returns the fingerprint, the sweep's values rows and its metric
        rows.  A result the columns cannot hold is left out and counted as
        a failed write.
        """
        with self._state_lock:
            loaded = self._loaded.get(str(results[0][0][0]))
        # Hash only a graph object that is not the recorded load.
        if loaded is not None and loaded[0] is graph:
            fingerprint = loaded[1]
        else:
            fingerprint = graph_fingerprint(graph)
        now = _utcnow()
        values_rows, result_rows = [], []
        for key, result in results:
            try:
                values, metrics = _encode_result(
                    _key_columns(key), fingerprint, result, now
                )
            except Exception:
                # A data problem, not a store failure: count it, leave the
                # breaker alone.
                self._ops.inc(op="write", outcome="error")
                continue
            values_rows.append(values)
            result_rows.append(metrics)
        return fingerprint, values_rows, result_rows

    def _write_batch(self, batch: list[tuple]) -> None:
        """Commit a batch of queued sweeps and their rates as one transaction.

        Encoding and hashing happen first, so ``_db_lock`` — which a graph
        load or eviction on a worker thread also waits for — covers only the
        inserts and the commit.  ``written`` counts metric rows and rate
        rows, not values rows.
        """
        try:
            sweeps = [self._sweep_rows(graph, results) for graph, results, _ in batch]
            now = _utcnow()
            rates = []
            for application, rate_of in {
                str(results[0][0][1]): rate_of for _, results, rate_of in batch
            }.items():
                rate = rate_of(application)
                if rate is not None:
                    rates.append((application, float(rate), now))
        except Exception:
            # Nothing here touches SQLite: a failure is a data problem, not
            # a store failure.  Count the dropped batch, leave the breaker
            # alone.
            self._ops.inc(op="write", outcome="error")
            return

        def apply(conn: sqlite3.Connection) -> int:
            written = len(rates)
            for fingerprint, values_rows, rows in sweeps:
                if not rows:
                    continue
                with self._state_lock:
                    loaded = self._loaded.get(rows[0][0])
                    if loaded is not None and loaded[1] != fingerprint:
                        # Computed on content its graph has since lost.
                        continue
                    # Registered before the commit: at worst a transient
                    # false positive, which costs a lookup one SQLite miss.
                    self._known_keys.update(row[:5] for row in rows)
                conn.executemany(_INSERT_VALUES, values_rows)
                conn.executemany(_INSERT_RESULT, rows)
                written += len(rows)
            conn.executemany(
                "INSERT OR REPLACE INTO cost_rates"
                " (application, seconds_per_edge_word, recorded_at)"
                " VALUES (?, ?, ?)",
                rates,
            )
            return written

        self._commit(apply)

    # ------------------------------------------------------------------ #
    # Flush thread
    # ------------------------------------------------------------------ #
    def _flush_loop(self) -> None:
        """Commit queued sweeps, one burst per transaction, until closed and drained."""
        while not (self._stop.is_set() and self._pending.empty()):
            batch = self._collect_batch(timeout=FLUSH_INTERVAL)
            if not batch:
                continue
            if not self._stop.is_set() and len(batch) < FLUSH_BATCH_LIMIT:
                # The get() above wakes on a burst's *first* op.  Hold the
                # batch open for one flush interval so the rest of the burst
                # coalesces into the same transaction — and so a burst's
                # first stretch runs without write work beside it: writing
                # each sweep at once measured +9-20 % p50 on a store-backed
                # serve-backlog wave on a 2-core host.  flush()/close() kick
                # the event to cut the wait short; clearing *before* the wait
                # discards a kick left over from an already-finished drain (a
                # live flush() re-sets it every DRAIN_SLICE, so no cut-short
                # is lost).
                self._kick.clear()
                self._kick.wait(FLUSH_INTERVAL)
                batch.extend(self._collect_batch(timeout=0.0))
            self._write_batch(batch)
            for _ in batch:
                self._pending.task_done()

    def _collect_batch(self, timeout: float | None) -> list[tuple]:
        batch: list[tuple] = []
        try:
            batch.append(self._pending.get(timeout=timeout))
        except queue.Empty:
            return batch
        while len(batch) < FLUSH_BATCH_LIMIT:
            try:
                batch.append(self._pending.get_nowait())
            except queue.Empty:
                break
        kept = []
        for op in batch:
            if op is None:
                # close()'s wake sentinel: account for its put, drop it.
                self._pending.task_done()
            else:
                kept.append(op)
        return kept

    def _drop_pending(self) -> None:
        """Empty the queue without writing, counting each sweep as dropped."""
        while True:
            try:
                op = self._pending.get_nowait()
            except queue.Empty:
                return
            self._pending.task_done()
            if op is not None:
                self._drop_series.inc()

    def _commit(self, apply: Callable[[sqlite3.Connection], int]) -> None:
        """Run ``apply`` as one write transaction behind the breaker.

        ``apply`` returns how many rows it wrote, for :attr:`StoreStats.writes`.
        Never raises and never retries: a skipped (breaker open) or failed
        write is counted on ``repro_store_operations_total`` and dropped —
        every row the store holds can be re-derived.
        """
        if self._guarded_connection("write") is None:
            return
        try:
            with self._db_lock:
                conn = self._conn
                if conn is None:  # closed after the breaker let this through
                    return
                try:
                    faults.check("store.write", path=str(self.path))
                    rows = apply(conn)
                    conn.commit()
                except BaseException:
                    conn.rollback()
                    raise
        except Exception:
            self._breaker.record_failure()
            self._ops.inc(op="write", outcome="error")
            return
        if rows:
            self._rows_written.inc(rows)
        self._breaker.record_success()
        self._ops.inc(op="write", outcome="ok")

    # ------------------------------------------------------------------ #
    # Checkpoint / close
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> bool:
        """Flush the WAL back into the main database file."""
        conn = self._conn
        if conn is None or not self._breaker.allow():
            self._ops.inc(op="checkpoint", outcome="skipped")
            return False
        try:
            with self._db_lock:
                faults.check("store.checkpoint", path=str(self.path))
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except Exception:
            self._breaker.record_failure()
            self._ops.inc(op="checkpoint", outcome="error")
            return False
        self._breaker.record_success()
        self._ops.inc(op="checkpoint", outcome="ok")
        return True

    def flush(self) -> None:
        """Return once every sweep queued so far has committed (or failed).

        Nothing is retried, so each op leaves the queue's unfinished count
        after one attempt; kicking the flusher out of its coalescing wait
        keeps the drain prompt, and waiting on the queue's
        ``all_tasks_done`` condition returns at the last ``task_done()``,
        not at the next tick of a poll.  Gives up after
        :data:`DRAIN_TIMEOUT` — a stalled write (a latency fault, another
        process's lock) must not hang the caller — or when the flush thread
        has exited.
        """
        deadline = time.monotonic() + DRAIN_TIMEOUT
        drained = self._pending.all_tasks_done
        with drained:
            while self._pending.unfinished_tasks and self._flusher.is_alive():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._kick.set()
                drained.wait(min(remaining, DRAIN_SLICE))

    def close(self) -> None:
        """Drain pending writes, checkpoint the WAL, close both connections.

        A flush thread still busy after :data:`DRAIN_TIMEOUT` is stalled in
        a transaction: the ops it has not taken are dropped and counted, so
        close waits out that one transaction, not one per queued op.
        """
        if self._closed:
            return
        self._stop.set()
        self._kick.set()
        try:
            # Wake a flusher blocked in get(); it drains the queue and exits.
            self._pending.put_nowait(None)
        except queue.Full:
            pass
        self._flusher.join(timeout=DRAIN_TIMEOUT)
        self._drop_pending()
        self.checkpoint()
        self._final_state = self.state
        self._closed = True
        # Detached under both locks, so a straggling write (which re-reads
        # ``_conn`` under its lock) never runs on a closed connection.
        with self._db_lock, self._read_lock:
            conns = (self._conn, self._read_conn)
            self._conn = self._read_conn = None
        for conn in conns:
            if conn is not None:
                try:
                    conn.close()
                except sqlite3.Error:
                    pass

    def __enter__(self) -> "ServingStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# Operator helpers (the `repro store` subcommand)
# ---------------------------------------------------------------------- #
def store_verify(path: str | Path) -> tuple[bool, str]:
    """Run ``PRAGMA integrity_check``; ``(ok, detail)``."""
    target = Path(path)
    if not target.exists():
        return False, f"no database at {target}"
    try:
        conn = sqlite3.connect(str(target), timeout=30.0)
        try:
            conn.execute("PRAGMA busy_timeout=30000")
            rows = conn.execute("PRAGMA integrity_check").fetchall()
        finally:
            conn.close()
    except sqlite3.Error as exc:
        return False, f"integrity check failed to run: {exc}"
    detail = "; ".join(str(row[0]) for row in rows)
    return detail == "ok", detail


def store_info(path: str | Path) -> dict:
    """Table counts, pragmas and catalog summary for ``repro store info``."""
    target = Path(path)
    if not target.exists():
        raise StoreError(f"no database at {target}")
    conn = sqlite3.connect(str(target), timeout=30.0)
    try:
        conn.execute("PRAGMA busy_timeout=30000")
        info: dict = {
            "path": str(target),
            "bytes": target.stat().st_size,
            "journal_mode": conn.execute("PRAGMA journal_mode").fetchone()[0],
        }
        meta = dict(conn.execute("SELECT key, value FROM store_meta"))
        info["schema_version"] = meta.get("schema_version")
        info["opened_at"] = meta.get("opened_at")
        present = {name for (name,) in conn.execute("SELECT name FROM sqlite_master")}
        for table in ("graph_catalog", "result_cache", "result_values", "cost_rates"):
            # A version-1 file has no cost_rates, and a version-1 or -2 file
            # no result_values, until a service opens it.
            info[table] = (
                conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                if table in present
                else 0
            )
        info["graphs"] = [
            {
                "name": name,
                "fingerprint": fingerprint,
                "num_vertices": num_vertices,
                "num_edges": num_edges,
                "resident": bool(resident),
                "loads": loads,
                "evictions": evictions,
            }
            for name, fingerprint, num_vertices, num_edges, resident, loads, evictions in conn.execute(
                "SELECT name, fingerprint, num_vertices, num_edges,"
                " resident, loads, evictions FROM graph_catalog ORDER BY name"
            )
        ]
        return info
    except sqlite3.Error as exc:
        raise StoreError(f"store info failed: {exc}") from exc
    finally:
        conn.close()


def store_vacuum(path: str | Path) -> None:
    """Checkpoint the WAL and VACUUM the database file."""
    target = Path(path)
    if not target.exists():
        raise StoreError(f"no database at {target}")
    conn = sqlite3.connect(str(target), timeout=30.0)
    try:
        conn.execute("PRAGMA busy_timeout=30000")
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        conn.execute("VACUUM")
    except sqlite3.Error as exc:
        raise StoreError(f"vacuum failed: {exc}") from exc
    finally:
        conn.close()
