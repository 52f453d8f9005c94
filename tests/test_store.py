"""Durable serving store: schema, sweep writes, warm restarts, recovery.

Covers the :mod:`repro.service.store` contract end to end: the
Paper-Scanner pragma discipline, fingerprint-validated result reads (stale
rows are detected, never served), one transaction per sweep on the
store's writer thread, quarantine of corrupt databases, chaos
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
from repro.service import store as store_module
from repro.service.costmodel import CostModel
from repro.service.store import (
    store_info,
    store_vacuum,
    store_verify,
)
from repro.traversal.api import run


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


def make_graph(name="durable", vertices=300, edges=2400, seed=5):
    return uniform_random_graph(vertices, edges, seed=seed, name=name)


def make_service(path, **knobs):
    knobs.setdefault("max_workers", 2)
    return Service(config=ServiceConfig(store_path=str(path), **knobs))


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
            # Flushed one by one: one transaction each, so with the load's
            # catalog write that is five failed transactions (none is
            # retried) — past the breaker's threshold of three.
            jobs = []
            for source in range(4):
                jobs.append(service.submit(TraversalRequest("bfs", "durable", source=source)))
                service.result(jobs[-1], timeout=30)
                service.store.flush()
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
            # A lookup of a key the store never wrote is answered from memory
            # and takes no probe; a read of the rates does.
            assert wait_for(
                lambda: store.lookup(("g", "bfs", 0, "s", "sys")) is None
                and store.load_cost_rates() == {}
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
            ServiceConfig(store_path=42)

    def test_dropped_writes_counted_when_queue_full(self, tmp_path):
        graph = make_graph()
        result = run("bfs", graph, source=0)
        store = ServingStore(tmp_path / "store.db", queue_limit=1)
        try:
            # The flush thread holds what it took for its coalescing wait and
            # a slow write, so three quick sweeps overflow the one-slot queue.
            faults.activate(faults.FaultPlan.from_spec("store.write:latency:delay=0.3"))
            for source in range(3):
                store.record_sweep(
                    graph, [(("durable", "bfs", source, "s", "x"), result)], {}.get
                )
            dropped = store.stats().dropped
            assert dropped >= 1
            store.flush()
            assert store.stats().pending == 0
            assert store.stats().result_rows == 3 - dropped
        finally:
            faults.deactivate()
            store.close()


KEY = ("durable", "bfs", 0, "merged_aligned", "default")


class TestSweepWrites:
    def test_row_computed_on_replaced_content_never_answers(self, tmp_path):
        # The graph's content changes under its name between the sweep and
        # its write: the row carries the fingerprint of what it was computed
        # on, which is no longer the graph's, so it is not written at all.
        old, new = make_graph(seed=5), make_graph(seed=9)
        assert graph_fingerprint(old) != graph_fingerprint(new)
        with ServingStore(tmp_path / "store.db") as store:
            store.record_load("durable", old)
            store.record_load("durable", new)
            store.record_sweep(old, [(KEY, run("bfs", old, source=0))], {}.get)
            store.flush()
            assert store.lookup(KEY) is None, "stale row must never be served"
            assert store.stats().result_rows == 0
            # Control: the same write computed on the current content is served.
            fresh = run("bfs", new, source=0)
            store.record_sweep(new, [(KEY, fresh)], {}.get)
            store.flush()
            assert (store.lookup(KEY).values == fresh.values).all()

    @pytest.mark.parametrize("lost_by", ["failed", "skipped"])
    def test_rows_stay_hidden_when_a_reload_is_not_catalogued(self, tmp_path, lost_by):
        # The graph is reloaded with new content, but that load's catalog
        # write fails (or the open breaker skips it): the catalog still holds
        # the old content's fingerprint, so the old rows would pass the join.
        old, new = make_graph(seed=5), make_graph(seed=9)
        store = ServingStore(tmp_path / "store.db", breaker_cooldown=0.2)
        try:
            store.record_load("durable", old)
            store.record_sweep(old, [(KEY, run("bfs", old, source=0))], {}.get)
            store.flush()
            assert store.lookup(KEY) is not None
            if lost_by == "failed":
                faults.activate(faults.FaultPlan.from_spec("store.write:permanent:limit=1"))
                store.record_load("durable", new)
                faults.deactivate()
                assert store.state == "ok", "one failure leaves the breaker closed"
            else:
                faults.activate(faults.FaultPlan.from_spec("store.read:permanent:limit=3"))
                for _ in range(3):  # the default threshold opens the breaker
                    store.load_cost_rates()
                faults.deactivate()
                assert store.state == "degraded"
                store.record_load("durable", new)
                time.sleep(0.25)
                assert store.lookup(("durable", "bfs", 99, "s", "x")) is None
                assert store.load_cost_rates() == {}  # the probe closes it
                assert store.state == "ok"
            assert store.lookup(KEY) is None, "stale row must never be served"
            # A sweep on the old content still in the queue lands late.
            store.record_sweep(old, [(KEY, run("bfs", old, source=0))], {}.get)
            store.flush()
            assert store.lookup(KEY) is None, "stale row must never be served"
            # The next load that commits re-derives the catalog row.
            store.record_load("durable", new)
            fresh = run("bfs", new, source=0)
            store.record_sweep(new, [(KEY, fresh)], {}.get)
            store.flush()
            assert (store.lookup(KEY).values == fresh.values).all()
        finally:
            faults.deactivate()
            store.close()

    def test_rows_stay_hidden_for_a_graph_loaded_before_the_store_opened(
        self, tmp_path
    ):
        old, new = make_graph(seed=5), make_graph(seed=9)
        path = tmp_path / "store.db"
        with ServingStore(path) as store:
            store.record_load("durable", old)
            store.record_sweep(old, [(KEY, run("bfs", old, source=0))], {}.get)
        # Boot and the load's own re-open attempt fail; the backfill read
        # after the load re-opens the file, whose catalog still vouches for
        # the old content.
        faults.activate(faults.FaultPlan.from_spec("store.open:permanent:limit=2"))
        store = ServingStore(path)
        try:
            assert store.state == "degraded"
            assert store.record_load("durable", new) == []
            faults.deactivate()
            assert store.state == "ok"
            assert store.lookup(KEY) is None, "stale row must never be served"
        finally:
            faults.deactivate()
            store.close()

    def test_a_result_that_will_not_pickle_is_counted_not_fatal(self, tmp_path):
        graph = make_graph()
        with ServingStore(tmp_path / "store.db") as store:
            store.record_sweep(graph, [(KEY, lambda: None)], {}.get)
            store.flush()
            assert store.stats().errors == 1
            assert store.state == "ok"
            result = run("bfs", graph, source=0)
            store.record_sweep(graph, [(KEY, result)], {}.get)
            store.flush()
            assert store.stats().result_rows == 1

    def test_write_before_its_catalog_row_is_served_once_the_load_lands(
        self, tmp_path
    ):
        # A worker that joined a load can write before the loader's listener
        # catalogs the graph: nothing waits, the join validates the row later.
        graph = make_graph()
        result = run("bfs", graph, source=0)
        with ServingStore(tmp_path / "store.db") as store:
            store.record_sweep(graph, [(KEY, result)], {"bfs": 1e-9}.get)
            store.flush()
            assert store.lookup(KEY) is None, "no catalog row yet"
            store.record_load("durable", graph)
            assert store.lookup(KEY) is not None
            assert store.load_cost_rates() == {"bfs": 1e-9}
            assert store.stats().writes == 4  # result + rate, catalog + purge

    def test_a_slow_write_delays_neither_a_result_nor_the_next_sweep(self, tmp_path):
        graph = make_graph()
        with make_service(tmp_path / "store.db", max_workers=1) as service:
            service.registry.register("durable", lambda: graph)
            service.registry.get("durable")  # the load commits inline, fault-free
            faults.activate(faults.FaultPlan.from_spec("store.write:latency:delay=0.5"))
            started = time.perf_counter()
            for source in (0, 1):  # one worker: the second sweep follows the first
                job = service.submit(TraversalRequest("bfs", "durable", source=source))
                service.result(job, timeout=30)
            waited = time.perf_counter() - started
            assert waited < 0.25, f"results waited {waited:.3f}s on a 0.5s write"
            service.store.flush()  # waits out the slow write(s)
            assert time.perf_counter() - started >= 0.45
            assert service.store.stats().result_rows == 2

    def test_write_skipped_while_breaker_open_lands_after_cooldown(self, tmp_path):
        events = []
        graph = make_graph()
        result = run("bfs", graph, source=0)
        store = ServingStore(
            tmp_path / "store.db",
            breaker_threshold=1,
            breaker_cooldown=0.2,
            on_event=lambda kind, labels: events.append((kind, labels)),
        )
        try:
            store.record_load("durable", graph)
            faults.activate(faults.FaultPlan.from_spec("store.write:permanent:limit=1"))
            store.record_sweep(graph, [(KEY, result)], {}.get)  # fails: breaker opens
            store.flush()
            faults.deactivate()
            assert store.state == "degraded"
            store.record_sweep(graph, [(KEY, result)], {}.get)  # skipped, never raises
            store.flush()
            writes = [labels["outcome"] for kind, labels in events
                      if kind == "op" and labels["op"] == "write"]
            assert writes == ["ok", "error", "skipped"]
            assert store.stats().result_rows == 0, "not retried"
            time.sleep(0.25)
            store.record_sweep(graph, [(KEY, result)], {}.get)  # the half-open probe
            store.flush()
            assert store.state == "ok"
            assert store.stats().result_rows == 1
            assert store.lookup(KEY) is not None
        finally:
            faults.deactivate()
            store.close()

    def test_flush_and_close_give_up_on_a_stalled_write(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "DRAIN_TIMEOUT", 0.2)
        graph = make_graph()
        result = run("bfs", graph, source=0)
        store = ServingStore(tmp_path / "store.db")
        try:
            faults.activate(faults.FaultPlan.from_spec("store.write:latency:delay=1.0"))
            started = time.perf_counter()
            store.record_sweep(graph, [(KEY, result)], {}.get)
            store.flush()  # the flush thread is now inside the stalled write
            for source in (1, 2):
                key = ("durable", "bfs", source, "s", "x")
                store.record_sweep(graph, [(key, result)], {}.get)
            store.close()
            # One stalled transaction waited out, not a second for the rest.
            assert time.perf_counter() - started < 1.7
            assert store.stats().dropped == 2, "ops the stalled flusher never took"
        finally:
            faults.deactivate()
            store.close()
