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
    One row per :attr:`TraversalRequest.cache_key`, payload pickled, tagged
    with the graph fingerprint current when the result was computed.  A
    lookup joins against the catalog so a row whose fingerprint no longer
    matches the graph's last-load fingerprint is *detected as stale and
    treated as a miss*, never served; :meth:`record_load` purges mismatched
    rows the moment a graph's content is observed to have changed.

Cost-model rates
    One row per application holding its learned seconds per edge-word,
    replaced (``INSERT OR REPLACE``) every time the live model absorbs an
    observation — four rows at most.  :meth:`load_cost_rates` returns them so
    a restarted :class:`~repro.service.costmodel.CostModel` prices work from
    what it learned instead of the prior.  A version-1 file kept per-family
    EWMA rows in ``cost_history``; opening one drops that table in place (the
    new model cannot read it) and keeps its catalog and cached results.

Pragma discipline follows the Paper-Scanner schema in SNIPPETS.md:
``journal_mode=WAL``, ``foreign_keys=ON``, ``synchronous=NORMAL``,
``busy_timeout=30000`` ms, booleans as INTEGER 0/1, timestamps as TEXT UTC
ISO-8601.

Robustness model
----------------

The store must never make a request fail:

* All writes are **asynchronous**: producers enqueue small op tuples onto a
  bounded queue (pickling deferred to the flush thread, so the request hot
  path pays one ``put_nowait``); a daemon flush thread batches them into
  single transactions.  A full queue drops the newest op and counts it.
* Every SQLite touch runs behind a **circuit breaker**.  Consecutive
  failures (including armed ``store.*`` faults) open it: reads answer
  ``None`` immediately, write batches are re-queued and retried after the
  cooldown's half-open probe.  While open the service is exactly the old
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
import pickle
import queue
import sqlite3
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from ..analysis.lockorder import tracked_lock
from ..errors import StoreError
from ..graph.analysis import degree_stats
from ..graph.csr import CSRGraph
from ..traversal.results import TraversalResult
from . import faults
from .resilience import CircuitBreaker

SCHEMA_VERSION = 2

#: Numeric encoding of store states for the ``repro_store_state`` gauge.
STORE_STATE_CODES = {
    "ok": 0,
    "degraded": 1,
    "quarantined": 2,
    "disabled": 3,
}

#: Pending-write queue bound: beyond this, the newest op is dropped (and
#: counted) instead of blocking a request thread.
DEFAULT_QUEUE_LIMIT = 4096

#: Max ops folded into one flush transaction.
FLUSH_BATCH_LIMIT = 256

#: Seconds the flush thread waits for work before re-checking shutdown.
DEFAULT_FLUSH_INTERVAL = 0.05

#: Flush attempts a result op survives while waiting for its graph's
#: catalog upsert to land (see :meth:`ServingStore._apply_op`).
RESULT_DEFER_LIMIT = 8

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS graph_catalog (
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
);
CREATE TABLE IF NOT EXISTS result_cache (
    graph TEXT NOT NULL,
    application TEXT NOT NULL,
    source TEXT NOT NULL,
    strategy TEXT NOT NULL,
    system TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    payload BLOB NOT NULL,
    created_at TEXT NOT NULL,
    PRIMARY KEY (graph, application, source, strategy, system)
);
CREATE TABLE IF NOT EXISTS cost_rates (
    application TEXT PRIMARY KEY,
    seconds_per_edge_word REAL NOT NULL,
    recorded_at TEXT NOT NULL
);
-- Version 1 kept per-family EWMA rows the rate model cannot read.
DROP TABLE IF EXISTS cost_history;
"""


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
    """Counter snapshot for ``stats()`` / health / metrics exposition."""

    state: str
    path: str
    hits: int
    misses: int
    writes: int
    flushes: int
    dropped: int
    errors: int
    backfilled: int
    pending: int
    quarantined: bool
    breaker_state: str
    catalog_rows: int
    result_rows: int
    rate_rows: int


class ServingStore:
    """SQLite/WAL durability layer behind a circuit breaker.

    ``on_event`` (optional) receives ``(kind, labels)`` for every countable
    event — ``op`` (labels op/outcome), ``hit``, ``flush``, ``drop``,
    ``breaker`` (label state) — which is how the service maps store activity
    onto its catalog-declared ``repro_store_*`` metric series without the
    store importing the metrics registry.
    """

    def __init__(
        self,
        path: str | Path,
        flush_interval: float = DEFAULT_FLUSH_INTERVAL,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 2.0,
        on_event: Callable[[str, dict], None] | None = None,
    ) -> None:
        if not str(path):
            raise StoreError("store path must be a non-empty filesystem path")
        self.path = Path(path)
        self._on_event = on_event
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
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._flushes = 0
        self._dropped = 0
        self._errors = 0
        self._backfilled = 0
        self._breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            cooldown_seconds=breaker_cooldown,
            on_transition=self._note_breaker,
        )
        self._pending: queue.Queue = queue.Queue(maxsize=queue_limit)
        self._stop = threading.Event()
        # Set by flush()/close() to cut the flusher's coalescing wait
        # short; the flusher clears it after each wakeup.
        self._kick = threading.Event()
        self._flush_interval = max(0.001, float(flush_interval))
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
                self._known_keys = {tuple(row) for row in rows}
        except Exception:
            self._count_error()
            self._breaker.record_failure()
            self._emit("op", {"op": "open", "outcome": "error"})
            if initial:
                # Leave a breadcrumb in the counters; the service stays up.
                self._conn = None
            return False
        self._breaker.record_success()
        self._emit("op", {"op": "open", "outcome": "ok"})
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
        # Version 1 differs only in its cost table, which _init_schema drops:
        # it upgrades in place.  Anything else is not ours to interpret.
        return version is None or version[0] in ("1", str(SCHEMA_VERSION))

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
        conn.executescript(_SCHEMA)
        conn.execute(
            "INSERT OR REPLACE INTO store_meta (key, value) VALUES (?, ?)",
            ("schema_version", str(SCHEMA_VERSION)),
        )
        conn.execute(
            "INSERT OR REPLACE INTO store_meta (key, value) VALUES (?, ?)",
            ("opened_at", _utcnow()),
        )
        conn.commit()

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
            self._emit("op", {"op": op, "outcome": "skipped"})
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
        with self._state_lock:
            quarantined = self._quarantined_from is not None
            counters = (
                self._hits,
                self._misses,
                self._writes,
                self._flushes,
                self._dropped,
                self._errors,
                self._backfilled,
            )
        # ``self.state`` re-takes the (non-reentrant) state lock, so it must
        # be read after the counter snapshot, never inside it.
        return StoreStats(
            state=self.state,
            path=str(self.path),
            hits=counters[0],
            misses=counters[1],
            writes=counters[2],
            flushes=counters[3],
            dropped=counters[4],
            errors=counters[5],
            backfilled=counters[6],
            pending=self._pending.qsize(),
            quarantined=quarantined,
            breaker_state=self._breaker.snapshot()["state"],
            catalog_rows=catalog,
            result_rows=results,
            rate_rows=rates,
        )

    def _count_error(self) -> None:
        with self._state_lock:
            self._errors += 1

    def _note_breaker(self, state: str) -> None:
        self._emit("breaker", {"state": state})

    def _emit(self, kind: str, labels: dict | None = None) -> None:
        callback = self._on_event
        if callback is None:
            return
        try:
            callback(kind, labels or {})
        except Exception:
            pass

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
        conn = self._guarded_read_connection("read")
        if conn is None:
            return None
        columns = _key_columns(key)
        # Misses are decided from the in-memory key set — no SQLite, no GIL
        # handoff to a C call — because on a loaded service the miss is the
        # common case and the request thread competes with numpy kernels.
        with self._state_lock:
            if columns not in self._known_keys:
                self._misses += 1
                return None
        try:
            with self._read_lock:
                faults.check("store.read", table="result_cache")
                row = conn.execute(
                    "SELECT r.payload FROM result_cache r"
                    " JOIN graph_catalog g"
                    "   ON g.name = r.graph AND g.fingerprint = r.fingerprint"
                    " WHERE r.graph = ? AND r.application = ? AND r.source = ?"
                    "   AND r.strategy = ? AND r.system = ?",
                    columns,
                ).fetchone()
            if row is None:
                with self._state_lock:
                    self._misses += 1
                self._breaker.record_success()
                self._emit("op", {"op": "read", "outcome": "ok"})
                return None
            result = pickle.loads(row[0])
        except Exception:
            self._count_error()
            self._breaker.record_failure()
            self._emit("op", {"op": "read", "outcome": "error"})
            return None
        with self._state_lock:
            self._hits += 1
        self._breaker.record_success()
        self._emit("op", {"op": "read", "outcome": "ok"})
        self._emit("hit", {})
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
            self._count_error()
            self._breaker.record_failure()
            self._emit("op", {"op": "read", "outcome": "error"})
            return {}
        self._breaker.record_success()
        self._emit("op", {"op": "read", "outcome": "ok"})
        return {application: float(rate) for application, rate in rows}

    # ------------------------------------------------------------------ #
    # Graph lifecycle (load path: synchronous reads are fine here)
    # ------------------------------------------------------------------ #
    def record_load(
        self, name: str, graph: CSRGraph
    ) -> list[tuple[tuple, TraversalResult]]:
        """Catalog a completed graph load; return rows to backfill.

        Upserts the catalog row (enqueued, async), purges cached results
        whose fingerprint no longer matches the loaded content, and reads
        back the still-valid rows so the service can warm its in-memory
        cache — restart repeats then hit at memory speed.
        """
        fingerprint = graph_fingerprint(graph)
        stats = degree_stats(graph)
        params = json.dumps(dict(graph.meta), sort_keys=True, default=str)
        self._enqueue(
            (
                "catalog_load",
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
            )
        )
        self._enqueue(("purge_stale", name, fingerprint))
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
                    "SELECT graph, application, source, strategy, system,"
                    "       payload"
                    " FROM result_cache WHERE graph = ? AND fingerprint = ?",
                    (name, fingerprint),
                ).fetchall()
        except Exception:
            self._count_error()
            self._breaker.record_failure()
            self._emit("op", {"op": "read", "outcome": "error"})
            return []
        self._breaker.record_success()
        self._emit("op", {"op": "read", "outcome": "ok"})
        entries = []
        for graph, application, source, strategy, system, payload in rows:
            try:
                result = pickle.loads(payload)
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
        with self._state_lock:
            self._backfilled += len(entries)
        return entries

    def record_eviction(self, name: str) -> None:
        self._enqueue(("catalog_evict", name))

    # ------------------------------------------------------------------ #
    # Writes (hot path: enqueue only)
    # ------------------------------------------------------------------ #
    def enqueue_result(self, key: tuple, result: TraversalResult) -> None:
        """Write-through a finished result (pickled later, off-thread)."""
        self._enqueue(("result", key, result))

    def enqueue_cost(self, application: str, rate: float) -> None:
        """Replace the application's row with its current cost-model rate."""
        self._enqueue(("cost", application, float(rate)))

    def _enqueue(self, op: tuple) -> None:
        if self._closed or self._stop.is_set():
            return
        try:
            self._pending.put_nowait(op)
        except queue.Full:
            with self._state_lock:
                self._dropped += 1
            self._emit("drop", {})

    # ------------------------------------------------------------------ #
    # Flush thread
    # ------------------------------------------------------------------ #
    def _flush_loop(self) -> None:
        while not self._stop.is_set():
            batch = self._collect_batch(timeout=self._flush_interval)
            if not batch:
                continue
            if not self._stop.is_set() and len(batch) < FLUSH_BATCH_LIMIT:
                # The get() above wakes on a burst's *first* op.  Hold the
                # batch open for one flush interval so the rest of the
                # burst coalesces into the same transaction — without this
                # a lightly loaded service commits once per op, and those
                # per-op WAL commits (not the request path) are what shows
                # up as serving overhead.  flush()/close() kick the event
                # to cut the wait short for synchronous drains; clearing
                # *before* the wait discards a kick left over from an
                # already-finished drain (a live flush() re-sets it every
                # millisecond, so no cut-short is ever lost).
                self._kick.clear()
                self._kick.wait(self._flush_interval)
                batch.extend(self._collect_batch(timeout=0.0))
            ok, deferred = self._write_batch(batch)
            if not ok:
                # Batch retained for the breaker's next probe window.
                self._requeue(batch)
            elif deferred:
                # Give the racing catalog upsert one flush interval to
                # arrive instead of spinning the deferral budget dry.
                self._requeue(deferred)
            self._finish(batch)
            if not ok or deferred:
                self._stop.wait(self._flush_interval)

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

    def _requeue(self, batch: list[tuple]) -> None:
        for op in batch:
            try:
                self._pending.put_nowait(op)
            except queue.Full:
                with self._state_lock:
                    self._dropped += 1
                self._emit("drop", {})

    def _finish(self, batch: list[tuple]) -> None:
        """Balance the queue's unfinished-task count for one batch.

        Every op collected from the queue is marked done exactly once,
        *after* any re-queue ``put`` for it — so ``unfinished_tasks`` only
        reaches zero when no op is queued or held in flight by a flushing
        thread.  :meth:`flush` relies on that to know a drain is complete.
        """
        for _ in batch:
            self._pending.task_done()

    def _write_batch(self, batch: list[tuple]) -> "tuple[bool, list[tuple]]":
        """Apply one batch in a single transaction.

        Returns ``(ok, deferred)``: ``ok`` False keeps the whole batch
        queued (transaction failed); ``deferred`` holds result ops that
        raced their graph's catalog upsert and should be retried after it
        lands (each carries a decremented retry budget).
        """
        conn = self._guarded_connection("write")
        if conn is None:
            return False, []
        deferred: list[tuple] = []
        # Result ops are applied *after* everything else in the batch, as
        # one prefetch SELECT plus one executemany: they then see every
        # catalog upsert the batch carries (fewer spurious deferrals), a
        # current-fingerprint row trivially survives its own graph's
        # purge_stale, and — the reason this is worth the asymmetry — a
        # burst of N results costs two GIL release/re-acquire round-trips
        # instead of N+1.  Each re-acquire stalls behind whatever compute
        # thread holds the interpreter, so per-op INSERTs made the flush
        # thread's wall cost scale with the sweep load beside it.
        results: list[tuple] = []
        try:
            with self._db_lock:
                faults.check("store.write", ops=len(batch))
                for op in batch:
                    if op[0] == "result":
                        results.append(op)
                    else:
                        self._apply_op(conn, op, deferred)
                if results:
                    self._apply_results(conn, results, deferred)
                conn.commit()
        except Exception:
            try:
                with self._db_lock:
                    conn.rollback()
            except Exception:
                pass
            self._count_error()
            self._breaker.record_failure()
            self._emit("op", {"op": "write", "outcome": "error"})
            return False, []
        retained = [op for op in deferred if op[3] > 0]
        exhausted = len(deferred) - len(retained)
        with self._state_lock:
            self._writes += len(batch) - len(deferred)
            self._flushes += 1
            self._dropped += exhausted
        for _ in range(exhausted):
            self._emit("drop", {})
        self._breaker.record_success()
        self._emit("op", {"op": "write", "outcome": "ok"})
        self._emit("flush", {})
        return True, retained

    def _apply_results(
        self, conn: sqlite3.Connection, ops: list[tuple], deferred: list[tuple]
    ) -> None:
        """Insert a batch of result ops with two statements total.

        One prefetch maps each distinct graph to its catalog fingerprint;
        ops whose graph has no catalog row yet are deferred — a worker
        that *joined* a load can finish and enqueue its result before the
        loader thread's listener enqueues the catalog upsert, and an
        unversionable row would be unservable, so it retries (bounded
        budget) rather than dropping.  The rest land in one executemany.
        """
        now = _utcnow()
        names = sorted({_key_columns(op[1])[0] for op in ops})
        placeholders = ", ".join("?" for _ in names)
        fingerprints = dict(
            conn.execute(
                "SELECT name, fingerprint FROM graph_catalog"
                f" WHERE name IN ({placeholders})",
                names,
            ).fetchall()
        )
        rows: list[tuple] = []
        inserted: list[tuple] = []
        for op in ops:
            _, key, result = op[:3]
            remaining = op[3] if len(op) > 3 else RESULT_DEFER_LIMIT
            columns = _key_columns(key)
            fingerprint = fingerprints.get(columns[0])
            if fingerprint is None:
                deferred.append(("result", key, result, remaining - 1))
                continue
            rows.append((*columns, fingerprint, pickle.dumps(result), now))
            inserted.append(columns)
        if rows:
            conn.executemany(
                "INSERT OR REPLACE INTO result_cache"
                " (graph, application, source, strategy, system,"
                "  fingerprint, payload, created_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
            # Keys registered before the transaction commits are at worst
            # transient false positives: the lookup pays one SQLite miss.
            with self._state_lock:
                self._known_keys.update(inserted)

    def _apply_op(
        self, conn: sqlite3.Connection, op: tuple, deferred: list[tuple]
    ) -> None:
        kind = op[0]
        now = _utcnow()
        if kind == "catalog_load":
            (
                _,
                name,
                fingerprint,
                num_vertices,
                num_edges,
                total_bytes,
                average_degree,
                median_degree,
                max_degree,
                min_degree,
                std_degree,
                params,
            ) = op
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
                    num_vertices,
                    num_edges,
                    total_bytes,
                    average_degree,
                    median_degree,
                    max_degree,
                    min_degree,
                    std_degree,
                    params,
                    now,
                    now,
                ),
            )
        elif kind == "purge_stale":
            _, name, fingerprint = op
            conn.execute(
                "DELETE FROM result_cache WHERE graph = ? AND fingerprint != ?",
                (name, fingerprint),
            )
            survivors = conn.execute(
                "SELECT graph, application, source, strategy, system"
                " FROM result_cache WHERE graph = ?",
                (name,),
            ).fetchall()
            with self._state_lock:
                self._known_keys = {
                    k for k in self._known_keys if k[0] != name
                } | {tuple(row) for row in survivors}
        elif kind == "catalog_evict":
            _, name = op
            conn.execute(
                "UPDATE graph_catalog SET resident = 0,"
                " evictions = evictions + 1 WHERE name = ?",
                (name,),
            )
        elif kind == "cost":
            _, application, rate = op
            conn.execute(
                "INSERT OR REPLACE INTO cost_rates"
                " (application, seconds_per_edge_word, recorded_at)"
                " VALUES (?, ?, ?)",
                (application, rate, now),
            )
        else:  # pragma: no cover - enqueue sites are the only producers
            raise StoreError(f"unknown store op {kind!r}")

    # ------------------------------------------------------------------ #
    # Checkpoint / close
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> bool:
        """Flush the WAL back into the main database file."""
        conn = self._conn
        if conn is None or not self._breaker.allow():
            self._emit("op", {"op": "checkpoint", "outcome": "skipped"})
            return False
        try:
            with self._db_lock:
                faults.check("store.checkpoint", path=str(self.path))
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except Exception:
            self._count_error()
            self._breaker.record_failure()
            self._emit("op", {"op": "checkpoint", "outcome": "error"})
            return False
        self._breaker.record_success()
        self._emit("op", {"op": "checkpoint", "outcome": "ok"})
        return True

    def flush(self) -> None:
        """Drain every pending write synchronously (best effort).

        While the flush thread is alive it stays the *only* consumer: a
        second drainer stealing ops from the queue would break FIFO order
        (a result op can then retry against a catalog upsert still held in
        the flusher's open batch, spinning its deferral budget dry), so
        this path just kicks the flusher out of its coalescing wait and
        waits for the queue to settle.  The inline drain below is for
        after the flusher has exited (close) or died.
        """
        if self._flusher.is_alive() and not self._stop.is_set():
            errors_before = self._errors
            deadline = time.monotonic() + 5.0
            while self._pending.unfinished_tasks:
                if self._errors > errors_before:
                    # The store is failing writes; stay best-effort like
                    # the inline path and leave retries to the flusher.
                    return
                if time.monotonic() > deadline:
                    # Breaker-open stores fail writes without counting
                    # errors; don't wait out their probe cadence forever.
                    return
                self._kick.set()
                time.sleep(0.001)
            return
        while True:
            batch = self._collect_batch(timeout=0.0)
            if not batch:
                # The queue looks empty, but the flush thread may hold a
                # collected batch it has not committed yet — the queue's
                # unfinished-task count covers exactly that window.  Failed
                # or deferred ops come back as visible puts, so this wait
                # cannot outlive the in-flight transaction.
                if self._pending.unfinished_tasks == 0:
                    return
                time.sleep(0.001)
                continue
            ok, deferred = self._write_batch(batch)
            if not ok:
                # Keep durability best-effort on a broken store: the ops are
                # requeued once so close() doesn't spin, then abandoned.
                self._requeue(batch)
                self._finish(batch)
                return
            if deferred:
                # Decrementing retry budgets guarantee this loop terminates
                # even if the catalog row never arrives.
                self._requeue(deferred)
            self._finish(batch)

    def close(self) -> None:
        """Drain pending writes, checkpoint the WAL, close the connection."""
        if self._closed:
            return
        self._stop.set()
        self._kick.set()
        try:
            # Wake the flusher out of its blocking get immediately — with a
            # long flush interval the join below would otherwise wait out
            # the whole interval (or its 5s cap) for nothing.
            self._pending.put_nowait(None)
        except queue.Full:
            pass
        if self._flusher.is_alive():
            self._flusher.join(timeout=5.0)
        self.flush()
        self.checkpoint()
        self._final_state = self.state
        self._closed = True
        for attribute in ("_conn", "_read_conn"):
            conn = getattr(self, attribute)
            setattr(self, attribute, None)
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
        for table in ("graph_catalog", "result_cache", "cost_rates"):
            # A version-1 file has no cost_rates until a service opens it.
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
