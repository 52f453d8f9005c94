"""Durable serving store: schema, write-through, warm restarts, recovery.

Covers the :mod:`repro.service.store` contract end to end: the
Paper-Scanner pragma discipline, fingerprint-validated result reads (stale
rows are detected, never served), quarantine of corrupt databases, chaos
degradation to in-memory-only serving with zero request failures, and the
cost-model persistence round-trip reproducing the same admission decisions
after a restart.
"""

import os
import sqlite3
import time

import pytest

from repro.config import ServiceConfig
from repro.errors import ConfigurationError, StoreError
from repro.graph.generators import uniform_random_graph
from repro.service import (
    STORE_STATE_CODES,
    Service,
    ServingStore,
    TraversalRequest,
    graph_fingerprint,
)
from repro.service import faults
from repro.service.costmodel import CostModel
from repro.service.store import (
    store_info,
    store_vacuum,
    store_verify,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


def make_graph(name="durable", vertices=300, edges=2400, seed=5):
    return uniform_random_graph(vertices, edges, seed=seed, name=name)


def make_service(path, **knobs):
    config = ServiceConfig(
        max_workers=2, store_path=str(path), store_flush_interval=0.01, **knobs
    )
    return Service(config=config)


def wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestSchemaAndPragmas:
    def test_pragma_discipline(self, tmp_path):
        path = tmp_path / "store.db"
        with ServingStore(path) as store:
            assert store.state == "ok"
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        tables = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert {"store_meta", "graph_catalog", "result_cache", "cost_rates"} <= tables
        assert "cost_history" not in tables
        version = conn.execute(
            "SELECT value FROM store_meta WHERE key = 'schema_version'"
        ).fetchone()
        assert version == ("2",)
        conn.close()

    def test_timestamps_are_utc_iso8601(self, tmp_path):
        path = tmp_path / "store.db"
        graph = make_graph()
        with ServingStore(path) as store:
            store.record_load("durable", graph)
            store.flush()
        row = sqlite3.connect(path).execute(
            "SELECT first_loaded_at FROM graph_catalog"
        ).fetchone()
        assert row is not None and "+00:00" in row[0] and "T" in row[0]

    def test_booleans_stored_as_integers(self, tmp_path):
        path = tmp_path / "store.db"
        graph = make_graph()
        with ServingStore(path) as store:
            store.record_load("durable", graph)
            store.record_eviction("durable")
            store.flush()
        resident = sqlite3.connect(path).execute(
            "SELECT resident FROM graph_catalog"
        ).fetchone()[0]
        assert resident == 0 and isinstance(resident, int)


class TestFingerprint:
    def test_content_addressed_not_name_addressed(self):
        a = make_graph(name="a")
        b = make_graph(name="b")
        c = make_graph(seed=6)
        assert graph_fingerprint(a) == graph_fingerprint(b)
        assert graph_fingerprint(a) != graph_fingerprint(c)


class TestResultRoundTrip:
    def test_write_through_then_lookup(self, tmp_path):
        path = tmp_path / "store.db"
        graph = make_graph()
        with make_service(path) as service:
            service.registry.register("durable", lambda: graph)
            job = service.submit(TraversalRequest("bfs", "durable", source=0))
            result = service.result(job, timeout=30)
            key = job.request.cache_key
            service.store.flush()
            restored = service.store.lookup(key)
            assert restored is not None
            assert (restored.values == result.values).all()

    def test_stale_fingerprint_is_a_miss_and_purged_on_load(self, tmp_path):
        path = tmp_path / "store.db"
        graph = make_graph()
        with make_service(path) as service:
            service.registry.register("durable", lambda: graph)
            job = service.submit(TraversalRequest("bfs", "durable", source=0))
            service.result(job, timeout=30)
            key = job.request.cache_key
            service.store.flush()

        # The graph's content changes under the same name: the catalog
        # fingerprint recorded at the next load no longer matches the row.
        changed = make_graph(seed=9)
        with make_service(path) as service:
            service.registry.register("durable", lambda: changed)
            assert service.store.lookup(key) is not None  # old catalog row
            service.registry.get("durable")  # records the new fingerprint
            service.store.flush()
            assert service.store.lookup(key) is None, "stale row must miss"
        rows = sqlite3.connect(path).execute(
            "SELECT COUNT(*) FROM result_cache"
        ).fetchone()[0]
        assert rows == 0, "record_load must purge mismatched rows"

    def test_streaming_source_none_round_trips(self, tmp_path):
        path = tmp_path / "store.db"
        graph = make_graph()
        with make_service(path) as service:
            service.registry.register("durable", lambda: graph)
            job = service.submit(TraversalRequest("cc", "durable"))
            service.result(job, timeout=30)
            service.store.flush()
        with make_service(path) as service:
            service.registry.register("durable", lambda: graph)
            job = service.submit(TraversalRequest("cc", "durable"))
            service.result(job, timeout=30)
            stats = service.stats()
            assert stats.store_hits >= 1
            assert stats.executions == 0


class TestWarmRestart:
    def test_restart_answers_warm_and_seeds_cost_model(self, tmp_path):
        path = tmp_path / "store.db"
        graph = make_graph()
        requests = [TraversalRequest("bfs", "durable", source=s) for s in (0, 1, 2)]
        with make_service(path) as service:
            service.registry.register("durable", lambda: graph)
            for request in requests:
                service.result(service.submit(request), timeout=30)
            first = service.stats()
            assert first.store_state == "ok"
            assert first.executions > 0

        with make_service(path) as service:
            service.registry.register("durable", lambda: graph)
            assert service.cost_model.rate("bfs") is not None, "rates must seed the model"
            for request in requests:
                service.result(service.submit(request), timeout=30)
            warm = service.stats()
            assert warm.executions == 0, "warm restart must not re-execute"
            assert warm.store_hits >= 1
            assert warm.store_state == "ok"

    def test_backfill_installs_rows_into_memory_cache(self, tmp_path):
        path = tmp_path / "store.db"
        graph = make_graph()
        with make_service(path) as service:
            service.registry.register("durable", lambda: graph)
            for s in (0, 1):
                service.result(
                    service.submit(TraversalRequest("bfs", "durable", source=s)),
                    timeout=30,
                )
            service.store.flush()
        with make_service(path) as service:
            service.registry.register("durable", lambda: graph)
            service.registry.get("durable")
            stats = service.stats()
            assert stats.store_backfilled == 2
            # Backfilled rows are served by the *memory* cache: no store hit.
            job = service.submit(TraversalRequest("bfs", "durable", source=0))
            service.result(job, timeout=30)
            assert service.stats().cache.hits >= 1

    def test_cost_seed_reproduces_admission_estimates(self, tmp_path):
        path = tmp_path / "store.db"
        graph = make_graph()
        with make_service(path) as service:
            service.registry.register("durable", lambda: graph)
            jobs = [
                service.submit(TraversalRequest("bfs", "durable", source=s))
                for s in range(4)
            ]
            for job in jobs:
                service.result(job, timeout=30)
            # The service pins the request's platform, so the key must come
            # from a submitted job, not a raw request.
            key = jobs[0].request.batch_key
            live_estimate = service.cost_model.estimate_group(key, 1)
            assert service.cost_model.rate("bfs") is not None

        with make_service(path) as service:
            service.registry.register("durable", lambda: graph)
            service.registry.get("durable")  # resident, so the estimate is sized
            assert service.cost_model.stats().samples == 0, "seeded, not re-observed"
            # The rate round-trips through a REAL column: the restarted model
            # reproduces the same admission estimate.
            assert service.cost_model.estimate_group(key, 1) == pytest.approx(
                live_estimate, rel=1e-9
            )

    def test_cost_rates_keep_one_row_per_application(self, tmp_path):
        path = tmp_path / "store.db"
        graph = make_graph()
        with make_service(path) as service:
            service.registry.register("durable", lambda: graph)
            for source in range(5):  # awaited one by one: five observations
                service.submit(TraversalRequest("bfs", "durable", source=source))
                service.wait_all(timeout=30)
            service.result(service.submit(TraversalRequest("cc", "durable")), timeout=30)
            assert service.cost_model.stats().samples == 6
            live = {app: service.cost_model.rate(app) for app in ("bfs", "cc")}
        assert store_info(path)["cost_rates"] == 2
        with make_service(path) as service:
            assert {app: service.cost_model.rate(app) for app in live} == live
            assert service.cost_model.rate("sssp") is None

    def test_version_1_file_upgrades_in_place_and_keeps_its_results(self, tmp_path):
        # Version 1 kept per-family EWMA rows in `cost_history`, which the
        # rate model cannot read: the table goes, everything else stays.
        path = tmp_path / "store.db"
        graph = make_graph()
        request = TraversalRequest("bfs", "durable", source=0)
        with make_service(path) as service:
            service.registry.register("durable", lambda: graph)
            service.result(service.submit(request), timeout=30)
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            DROP TABLE cost_rates;
            CREATE TABLE cost_history (
                id INTEGER PRIMARY KEY AUTOINCREMENT, family TEXT NOT NULL,
                group_seconds REAL NOT NULL, job_seconds REAL NOT NULL,
                samples INTEGER NOT NULL, iterations REAL, recorded_at TEXT NOT NULL
            );
            CREATE INDEX idx_cost_history_family ON cost_history (family, id);
            INSERT INTO cost_history
                (family, group_seconds, job_seconds, samples, recorded_at)
                VALUES ('{"__tuple__": ["durable", "bfs"]}', 0.3, 0.15, 3, 'then');
            UPDATE store_meta SET value = '1' WHERE key = 'schema_version';
            """
        )
        conn.commit()
        conn.close()
        before = store_info(path)  # the operator helper reads a version-1 file
        assert before["schema_version"] == "1" and before["cost_rates"] == 0
        with make_service(path) as service:
            service.registry.register("durable", lambda: graph)
            assert service.stats().store_state == "ok", "upgraded, not quarantined"
            assert service.store.quarantined_path is None
            assert service.cost_model.stats().applications == 0
            service.result(service.submit(request), timeout=30)
            stats = service.stats()
            assert stats.executions == 0 and stats.store_hits == 1
        info = store_info(path)
        assert info["schema_version"] == "2" and info["result_cache"] == 1
        tables = {
            row[0]
            for row in sqlite3.connect(path).execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert "cost_history" not in tables and "cost_rates" in tables

    def test_seed_does_not_override_live_samples(self, tmp_path):
        model = CostModel(edge_lookup={"g": 1_000}.get)
        key = ("g", "bfs", "merged_aligned", "default")
        model.observe([(key, 2)], 0.5)
        before = model.estimate_group(key, 1)
        seeded = model.seed(
            {"bfs": 99.0, "sssp": 2e-7, "cc": float("nan"), "pagerank": -1.0}
        )
        assert seeded == 1, "live evidence and garbage rows are both left out"
        assert model.estimate_group(key, 1) == before
        assert model.rate("sssp") == 2e-7
        assert model.rate("cc") is None and model.rate("pagerank") is None


class TestQuarantine:
    def test_corrupt_database_is_quarantined_and_store_boots(self, tmp_path):
        path = tmp_path / "store.db"
        path.write_bytes(b"this is not a sqlite database, not even close")
        with ServingStore(path) as store:
            assert store.state == "quarantined"
            assert store.quarantined_path is not None
            assert os.path.exists(store.quarantined_path)
            # The fresh database is fully usable.
            graph = make_graph()
            store.record_load("durable", graph)
            store.flush()
        ok, detail = store_verify(path)
        assert ok, detail

    def test_schema_version_mismatch_quarantines(self, tmp_path):
        path = tmp_path / "store.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE store_meta (key TEXT PRIMARY KEY, value TEXT)")
        conn.execute("INSERT INTO store_meta VALUES ('schema_version', '999')")
        conn.commit()
        conn.close()
        with ServingStore(path) as store:
            assert store.state == "quarantined"

    def test_service_reports_quarantined_state(self, tmp_path):
        path = tmp_path / "store.db"
        path.write_bytes(b"garbage" * 64)
        with make_service(path) as service:
            graph = make_graph()
            service.registry.register("durable", lambda: graph)
            job = service.submit(TraversalRequest("bfs", "durable", source=0))
            service.result(job, timeout=30)
            stats = service.stats()
            assert stats.store_state == "quarantined"
            assert stats.failed == 0


class TestChaosDegradation:
    def test_poisoned_writes_degrade_without_request_failures(self, tmp_path):
        path = tmp_path / "store.db"
        graph = make_graph()
        with make_service(
            path, fault_plan="store.write:permanent"
        ) as service:
            service.registry.register("durable", lambda: graph)
            jobs = [
                service.submit(TraversalRequest("bfs", "durable", source=s))
                for s in range(4)
            ]
            for job in jobs:
                service.result(job, timeout=30)
            assert wait_for(lambda: service.stats().store_state == "degraded")
            stats = service.stats()
            assert stats.failed == 0, "store chaos must never fail requests"
            assert stats.completed == len(jobs)
            assert stats.store_errors > 0

    def test_poisoned_reads_degrade_to_misses(self, tmp_path):
        path = tmp_path / "store.db"
        graph = make_graph()
        with make_service(path) as service:
            service.registry.register("durable", lambda: graph)
            job = service.submit(TraversalRequest("bfs", "durable", source=0))
            service.result(job, timeout=30)

        with make_service(
            path, fault_plan="store.read:permanent"
        ) as service:
            service.registry.register("durable", lambda: graph)
            job = service.submit(TraversalRequest("bfs", "durable", source=0))
            result = service.result(job, timeout=30)
            assert result is not None
            stats = service.stats()
            assert stats.failed == 0
            assert stats.store_hits == 0

    def test_open_fault_degrades_then_recovers_on_probe(self, tmp_path):
        path = tmp_path / "store.db"
        plan = faults.FaultPlan.from_spec("store.open:transient:n=1:limit=1")
        faults.activate(plan)
        try:
            store = ServingStore(path, breaker_cooldown=0.05)
        finally:
            faults.deactivate()
        try:
            assert store.state == "degraded"
            graph = make_graph()
            assert wait_for(
                lambda: store.lookup(("g", "bfs", 0, "s", "sys")) is None
                and store.state == "ok",
                timeout=10.0,
                interval=0.1,
            ), "breaker probe must reopen the connection"
        finally:
            store.close()

    def test_store_disabled_when_unconfigured(self):
        with Service(config=ServiceConfig(max_workers=2)) as service:
            assert service.store is None
            assert service.stats().store_state == "disabled"


class TestOperatorHelpers:
    def test_info_verify_vacuum(self, tmp_path):
        path = tmp_path / "store.db"
        graph = make_graph()
        with make_service(path) as service:
            service.registry.register("durable", lambda: graph)
            job = service.submit(TraversalRequest("bfs", "durable", source=0))
            service.result(job, timeout=30)
        info = store_info(path)
        assert info["schema_version"] == "2"
        assert info["journal_mode"] == "wal"
        assert info["graph_catalog"] == 1
        assert info["result_cache"] >= 1
        assert info["cost_rates"] == 1
        assert info["graphs"][0]["name"] == "durable"
        assert info["graphs"][0]["fingerprint"] == graph_fingerprint(graph)
        ok, detail = store_verify(path)
        assert ok and detail == "ok"
        store_vacuum(path)
        ok, _ = store_verify(path)
        assert ok

    def test_info_raises_store_error_on_missing_file(self, tmp_path):
        with pytest.raises(StoreError):
            store_info(tmp_path / "absent.db")

    def test_verify_reports_corruption(self, tmp_path):
        path = tmp_path / "bad.db"
        path.write_bytes(b"not a database at all, definitely")
        ok, detail = store_verify(path)
        assert not ok


class TestMetricsAndConfig:
    def test_store_metrics_exposed(self, tmp_path):
        path = tmp_path / "store.db"
        graph = make_graph()
        with make_service(path) as service:
            service.registry.register("durable", lambda: graph)
            job = service.submit(TraversalRequest("bfs", "durable", source=0))
            service.result(job, timeout=30)
            rendered = service.collect_metrics().render_prometheus()
            assert "repro_store_operations_total" in rendered
            assert "repro_store_state" in rendered
            assert "repro_store_pending_writes" in rendered

    def test_state_codes_cover_every_state(self):
        assert set(STORE_STATE_CODES) == {"ok", "degraded", "quarantined", "disabled"}

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(store_path="")
        with pytest.raises(ConfigurationError):
            ServiceConfig(store_path="x.db", store_flush_interval=0.0)

    def test_dropped_writes_counted_when_queue_full(self, tmp_path):
        path = tmp_path / "store.db"
        store = ServingStore(path, queue_limit=1, flush_interval=60.0)
        try:
            graph = make_graph()
            # The flush thread sleeps for a minute, so the second enqueue
            # overflows the single-slot queue.
            store.record_eviction("a")
            store.record_eviction("b")
            store.record_eviction("c")
            assert store.stats().dropped >= 1
        finally:
            store.close()
