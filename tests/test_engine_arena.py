"""Tests for engine reuse: TraversalEngine.reset() and the EngineArena."""

import threading

import numpy as np
import pytest

from repro.config import ampere_pcie4
from repro.errors import ConfigurationError
from repro.traversal.arena import EngineArena
from repro.traversal.bfs import run_bfs
from repro.traversal.engine import TraversalEngine
from repro.traversal.sssp import run_sssp
from repro.types import AccessStrategy

ALL_STRATEGIES = tuple(AccessStrategy)


def _metrics_equal(a, b):
    assert a.seconds == b.seconds
    assert a.iterations == b.iterations
    assert a.traffic.edges_processed == b.traffic.edges_processed
    assert a.traffic.useful_bytes == b.traffic.useful_bytes
    assert a.traffic.uvm_migrated_bytes == b.traffic.uvm_migrated_bytes
    assert a.traffic.uvm_migrations == b.traffic.uvm_migrations
    assert a.traffic.dram_bytes == b.traffic.dram_bytes
    assert a.traffic.request_histogram.counts == b.traffic.request_histogram.counts


class TestEngineReset:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_second_run_matches_fresh_engine(self, random_graph, strategy):
        reused = TraversalEngine(random_graph, strategy)
        run_bfs(random_graph, 0, strategy=strategy, engine=reused)
        reused.reset()
        second = run_bfs(random_graph, 7, strategy=strategy, engine=reused)

        fresh = run_bfs(
            random_graph,
            7,
            strategy=strategy,
            engine=TraversalEngine(random_graph, strategy),
        )
        assert np.array_equal(second.values, fresh.values)
        _metrics_equal(second.metrics, fresh.metrics)

    def test_reset_clears_counters_and_residency(self, random_graph):
        engine = TraversalEngine(random_graph, AccessStrategy.UVM)
        run_bfs(random_graph, 3, strategy=AccessStrategy.UVM, engine=engine)
        assert engine.iterations > 0
        assert engine.edge_uvm.resident_pages > 0
        engine.reset()
        assert engine.iterations == 0
        assert engine.breakdown.total() == 0.0
        assert engine.traffic.edges_processed == 0
        assert engine.traffic.kernel_launches == 0
        assert engine.traffic.uvm_migrated_bytes == 0
        assert engine.traffic.dram_bytes == 0
        assert engine.edge_uvm.resident_pages == 0

    def test_reset_keeps_allocations(self, random_graph):
        engine = TraversalEngine(random_graph, AccessStrategy.MERGED_ALIGNED)
        edge_allocation = engine.edge_allocation
        engine.reset()
        assert engine.edge_allocation is edge_allocation

    def test_sssp_engine_reuse(self, random_graph):
        engine = TraversalEngine(random_graph, AccessStrategy.MERGED, needs_weights=True)
        run_sssp(random_graph, 0, strategy=AccessStrategy.MERGED, engine=engine)
        engine.reset()
        second = run_sssp(random_graph, 5, strategy=AccessStrategy.MERGED, engine=engine)
        fresh = run_sssp(random_graph, 5, strategy=AccessStrategy.MERGED)
        assert np.array_equal(second.values, fresh.values)
        _metrics_equal(second.metrics, fresh.metrics)


class TestEngineArena:
    def test_release_then_acquire_reuses_engine(self, random_graph):
        arena = EngineArena()
        first = arena.acquire(random_graph, AccessStrategy.MERGED_ALIGNED)
        arena.release(first)
        second = arena.acquire(random_graph, AccessStrategy.MERGED_ALIGNED)
        assert second is first
        assert arena.created == 1
        assert arena.reused == 1

    def test_distinct_configurations_get_distinct_engines(self, random_graph):
        arena = EngineArena()
        a = arena.acquire(random_graph, AccessStrategy.MERGED_ALIGNED)
        b = arena.acquire(random_graph, AccessStrategy.UVM)
        assert a is not b
        arena.release(a)
        c = arena.acquire(random_graph, AccessStrategy.UVM)
        assert c is not a

    def test_system_is_part_of_the_key(self, random_graph):
        arena = EngineArena()
        default = arena.acquire(random_graph, AccessStrategy.MERGED_ALIGNED)
        arena.release(default)
        other = arena.acquire(
            random_graph, AccessStrategy.MERGED_ALIGNED, system=ampere_pcie4()
        )
        assert other is not default

    def test_released_engines_come_back_reset(self, random_graph):
        arena = EngineArena()
        engine = arena.acquire(random_graph, AccessStrategy.MERGED_ALIGNED)
        run_bfs(random_graph, 0, engine=engine)
        arena.release(engine)
        again = arena.acquire(random_graph, AccessStrategy.MERGED_ALIGNED)
        assert again is engine
        assert again.iterations == 0
        assert again.traffic.edges_processed == 0

    def test_lease_context_manager(self, random_graph):
        arena = EngineArena()
        with arena.lease(random_graph, AccessStrategy.MERGED_ALIGNED) as engine:
            run_bfs(random_graph, 1, engine=engine)
        assert arena.idle_count == 1

    def test_max_idle_bound(self, random_graph, uniform_graph):
        arena = EngineArena(max_idle=1)
        a = arena.acquire(random_graph, AccessStrategy.MERGED_ALIGNED)
        b = arena.acquire(uniform_graph, AccessStrategy.MERGED_ALIGNED)
        arena.release(a)
        arena.release(b)
        assert arena.idle_count == 1

    def test_reloaded_graph_with_same_name_drops_stale_engines(self, random_graph):
        from dataclasses import replace

        arena = EngineArena()
        engine = arena.acquire(random_graph, AccessStrategy.MERGED_ALIGNED)
        arena.release(engine)
        # A registry eviction + reload produces a new object under the old
        # name; the parked engine must not be handed out against it.
        reloaded = replace(random_graph)
        fresh = arena.acquire(reloaded, AccessStrategy.MERGED_ALIGNED)
        assert fresh is not engine
        assert fresh.graph is reloaded
        assert arena.idle_count == 0  # stale engine dropped, not parked

    def test_foreign_engine_rejected(self, random_graph):
        arena = EngineArena()
        engine = TraversalEngine(random_graph, AccessStrategy.MERGED_ALIGNED)
        with pytest.raises(ConfigurationError):
            arena.release(engine)

    def test_concurrent_leases_are_exclusive(self, random_graph):
        arena = EngineArena()
        seen = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            engine = arena.acquire(random_graph, AccessStrategy.MERGED_ALIGNED)
            seen.append(engine)
            arena.release(engine)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == 4
        assert arena.created + arena.reused == 4
