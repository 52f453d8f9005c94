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
    with the fingerprint of the graph object the sweep ran on.  A lookup
    joins against the catalog so a row whose fingerprint no longer matches
    the graph's last-load fingerprint is *detected as stale and treated as a
    miss*, never served; :meth:`record_load` purges mismatched rows the
    moment a graph's content is observed to have changed.  The table has no
    foreign key: the join does the validation, so a result never waits for
    its graph's catalog row.

Cost-model rates
    One row per application holding its learned seconds per edge-word,
    replaced (``INSERT OR REPLACE``) in every sweep's transaction — four
    rows at most.  :meth:`load_cost_rates` returns them so a restarted
    :class:`~repro.service.costmodel.CostModel` prices work from what it
    learned instead of the prior.  A version-1 file kept per-family
    EWMA rows in ``cost_history``; opening one drops that table in place (the
    new model cannot read it) and keeps its catalog and cached results.

Pragma discipline follows the Paper-Scanner schema in SNIPPETS.md:
``journal_mode=WAL``, ``foreign_keys=ON``, ``synchronous=NORMAL``,
``busy_timeout=30000`` ms, booleans as INTEGER 0/1, timestamps as TEXT UTC
ISO-8601.

Robustness model
----------------

The store must never make a request fail:

* Sweep writes are **asynchronous**: a worker queues one op per engine
  invocation (:meth:`record_sweep`; pickling deferred to the flush thread,
  so neither a client nor the next sweep waits on SQLite), and a daemon
  flush thread commits each burst of them as one transaction.  A full
  queue drops the newest op and counts it, as does :meth:`close` for ops a
  stalled flush thread never took.  Loads and evictions commit inline on
  the thread that observed them; the flush thread pickles and hashes
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
import pickle
import queue
import sqlite3
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

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
#: counted) instead of blocking a worker.
DEFAULT_QUEUE_LIMIT = 4096

#: Max ops folded into one flush transaction.
FLUSH_BATCH_LIMIT = 256

#: Seconds the flush thread holds a batch open for the rest of its burst.
FLUSH_INTERVAL = 0.05

#: Seconds flush() and close() wait on a stalled flush thread before giving
#: up on the ops still queued.
DRAIN_TIMEOUT = 5.0

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
    event — ``op`` (labels op/outcome), ``hit``, ``drop``, ``breaker``
    (label state) — which is how the service maps store activity onto its
    catalog-declared ``repro_store_*`` metric series without the store
    importing the metrics registry.
    """

    def __init__(
        self,
        path: str | Path,
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
        #: name -> (graph, fingerprint) of each graph's last recorded load, so
        #: a sweep over that very object is tagged without re-hashing it.
        #: Dropped at eviction, which keeps the store from pinning a graph
        #: the registry let go.
        self._loaded: dict[str, tuple[CSRGraph, str]] = {}
        self._hits = 0
        self._misses = 0
        self._writes = 0
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
            dropped=counters[3],
            errors=counters[4],
            backfilled=counters[5],
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
        columns = _key_columns(key)
        # Misses are decided from the in-memory key set — no SQLite, no GIL
        # handoff to a C call — because on a loaded service the miss is the
        # common case and the request thread competes with numpy kernels.
        # Decided before the breaker is asked, so such a miss never takes a
        # half-open probe it would leave unresolved.
        with self._state_lock:
            if columns not in self._known_keys:
                self._misses += 1
                return None
        conn = self._guarded_read_connection("read")
        if conn is None:
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
        application) lands in ``result_cache``, tagged with the fingerprint
        of ``graph`` — the object the sweep ran on, not whatever the catalog
        holds when the write commits — unless its graph has been loaded with
        other content since, in which case the rows are not written at all.
        ``rate_of`` (the cost model's ``rate``; ``None`` for an application
        with no learned rate yet) is read when the flush thread takes the
        op, so the last commit persists the newest rate.
        """
        if self._stop.is_set():
            return
        try:
            self._pending.put_nowait((graph, list(results), rate_of))
        except queue.Full:
            with self._state_lock:
                self._dropped += 1
            self._emit("drop", {})

    def _sweep_rows(
        self, graph: CSRGraph, results: list[tuple[tuple, TraversalResult]]
    ) -> tuple[str, list[tuple]]:
        """Fingerprint and pickle one queued sweep, before the write lock."""
        with self._state_lock:
            loaded = self._loaded.get(str(results[0][0][0]))
        # Hash only a graph object that is not the recorded load.
        if loaded is not None and loaded[0] is graph:
            fingerprint = loaded[1]
        else:
            fingerprint = graph_fingerprint(graph)
        now = _utcnow()
        return fingerprint, [
            (*_key_columns(key), fingerprint, pickle.dumps(result), now)
            for key, result in results
        ]

    def _write_batch(self, batch: list[tuple]) -> None:
        """Commit a batch of queued sweeps and their rates as one transaction.

        Pickling and hashing happen first, so ``_db_lock`` — which a graph
        load or eviction on a worker thread also waits for — covers only the
        inserts and the commit.
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
            # A result that will not pickle is a data problem, not a store
            # failure: count the dropped batch, leave the breaker alone.
            self._count_error()
            self._emit("op", {"op": "write", "outcome": "error"})
            return

        def apply(conn: sqlite3.Connection) -> int:
            written = len(rates)
            for fingerprint, rows in sweeps:
                with self._state_lock:
                    loaded = self._loaded.get(rows[0][0])
                    if loaded is not None and loaded[1] != fingerprint:
                        # Computed on content its graph has since lost.
                        continue
                    # Registered before the commit: at worst a transient
                    # false positive, which costs a lookup one SQLite miss.
                    self._known_keys.update(row[:5] for row in rows)
                conn.executemany(
                    "INSERT OR REPLACE INTO result_cache"
                    " (graph, application, source, strategy, system,"
                    "  fingerprint, payload, created_at)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    rows,
                )
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
                # live flush() re-sets it every millisecond, so no cut-short
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
                with self._state_lock:
                    self._dropped += 1
                self._emit("drop", {})

    def _commit(self, apply: Callable[[sqlite3.Connection], int]) -> None:
        """Run ``apply`` as one write transaction behind the breaker.

        ``apply`` returns how many rows it wrote, for :attr:`StoreStats.writes`.
        Never raises and never retries: a skipped (breaker open) or failed
        write is counted on the ``op``/``outcome`` events and dropped —
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
            self._count_error()
            self._breaker.record_failure()
            self._emit("op", {"op": "write", "outcome": "error"})
            return
        with self._state_lock:
            self._writes += rows
        self._breaker.record_success()
        self._emit("op", {"op": "write", "outcome": "ok"})

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
        """Return once every sweep queued so far has committed (or failed).

        Nothing is retried, so each op leaves the queue's unfinished count
        after one attempt; kicking the flusher out of its coalescing wait
        keeps the drain prompt.  Gives up after :data:`DRAIN_TIMEOUT` — a
        stalled write (a latency fault, another process's lock) must not
        hang the caller.
        """
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while (
            self._pending.unfinished_tasks
            and self._flusher.is_alive()
            and time.monotonic() < deadline
        ):
            self._kick.set()
            time.sleep(0.001)

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
