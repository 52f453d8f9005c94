"""Request identity is computed once and then only read.

A platform's digest is part of every cache key and every durable store row,
so its *value* is pinned here as literals (a store written by an earlier
version must still warm-hit), while its *cost* is pinned as a call count: one
``sha1`` per distinct :class:`SystemConfig` however many requests are served.
"""

import copy
import dataclasses
import hashlib
import pickle
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.config as config_module
from repro.config import (
    PCIE4_X16,
    ServiceConfig,
    SystemConfig,
    ampere_pcie4,
    default_system,
    system_key,
)
from repro.service import GraphRegistry, Service, TraversalRequest
from repro.traversal.arena import EngineArena
from repro.traversal.multisource import PackedLane
from repro.types import AccessStrategy, Application

DEFAULT_DIGEST = "2265d569e4ee"
PCIE4_DIGEST = "b74b5a56ea46"
ONE_MIB_DIGEST = "bdee6423bcca"


class TestDigestValues:
    def test_platform_digests_are_the_ones_stores_were_written_with(self):
        system = default_system()
        assert system.fingerprint() == DEFAULT_DIGEST
        assert system.with_pcie(PCIE4_X16).fingerprint() == PCIE4_DIGEST
        assert system.with_gpu_memory(1 << 20).fingerprint() == ONE_MIB_DIGEST
        assert ampere_pcie4().fingerprint() == "518a2d5834f8"

    def test_request_keys(self):
        request = TraversalRequest("sssp", "GK", 7, "uvm")
        assert request.system_key == "default"
        assert request.cache_key == ("GK", "sssp", 7, "uvm", "default")
        assert request.batch_key == ("GK", "sssp", "uvm", "default")
        pinned = request.with_system(default_system())
        assert pinned.system_key == DEFAULT_DIGEST
        assert pinned.cache_key == ("GK", "sssp", 7, "uvm", DEFAULT_DIGEST)
        assert pinned.batch_key == ("GK", "sssp", "uvm", DEFAULT_DIGEST)

    def test_no_explicit_platform_is_spelled_one_way(self, random_graph):
        system = default_system()
        assert system_key(None) == "default"
        assert system_key(system) == DEFAULT_DIGEST
        emogi = AccessStrategy.MERGED_ALIGNED
        assert PackedLane(0).config_key() == (emogi, "default")
        assert PackedLane(0, system=system).config_key() == (emogi, DEFAULT_DIGEST)
        assert EngineArena._key(random_graph, emogi, None, False)[2] == "default"
        assert EngineArena._key(random_graph, emogi, system, False)[2] == DEFAULT_DIGEST


class TestMemoIsInvisible:
    def test_to_equality_hash_repr_and_astuple(self):
        digested, fresh = default_system(), default_system()
        digested.fingerprint()
        assert digested == fresh and hash(digested) == hash(fresh)
        assert repr(digested) == repr(fresh)
        assert dataclasses.astuple(digested) == dataclasses.astuple(fresh)
        assert dataclasses.asdict(digested) == dataclasses.asdict(fresh)
        assert [field.name for field in dataclasses.fields(SystemConfig)] == [
            "name", "gpu", "pcie", "host", "uvm",
        ]

    def test_a_replaced_copy_digests_afresh(self):
        system = default_system()
        assert system.fingerprint() == DEFAULT_DIGEST
        clone = dataclasses.replace(system)
        assert vars(clone) == {f.name: getattr(system, f.name) for f in dataclasses.fields(system)}
        assert clone.fingerprint() == DEFAULT_DIGEST
        assert dataclasses.replace(system, name="renamed").fingerprint() != DEFAULT_DIGEST
        assert system.with_pcie(PCIE4_X16).fingerprint() == PCIE4_DIGEST
        assert system.with_gpu_memory(1 << 20).fingerprint() == ONE_MIB_DIGEST
        assert system.fingerprint() == DEFAULT_DIGEST

    def test_pickle_and_deepcopy(self):
        system = default_system()
        before = pickle.dumps(system)  # taken before the first digest
        system.fingerprint()
        for clone in (
            pickle.loads(before),
            pickle.loads(pickle.dumps(system)),
            copy.deepcopy(system),
            copy.copy(system),
        ):
            assert clone == system and hash(clone) == hash(system)
            assert clone.fingerprint() == DEFAULT_DIGEST
            assert clone.with_pcie(PCIE4_X16).fingerprint() == PCIE4_DIGEST


class TestDigestedOncePerPlatform:
    def test_one_sha1_per_distinct_system_across_500_submits(
        self, monkeypatch, random_graph
    ):
        digested = []

        def counting_sha1(data=b""):
            digested.append(data)
            return hashlib.sha1(data)

        monkeypatch.setattr(config_module, "hashlib", SimpleNamespace(sha1=counting_sha1))
        registry = GraphRegistry()
        registry.register_graph(random_graph)
        other = default_system().with_pcie(PCIE4_X16)
        name = random_graph.name
        requests = [
            TraversalRequest(
                "bfs" if index % 3 else "sssp",
                name,
                source=index % 10,
                system=other if index % 5 == 0 else None,
            )
            for index in range(500)
        ]
        with Service(registry, ServiceConfig(max_workers=2)) as service:
            jobs = service.submit_many(requests)
            assert service.wait_all(timeout=60)
            stats = service.stats()
        assert stats.submitted == stats.completed + stats.deduplicated == 500
        assert stats.failed == 0
        # The service's own default platform and `other`: two digests, not 500.
        assert len(digested) == 2
        assert {job.request.system_key for job in jobs} == {DEFAULT_DIGEST, PCIE4_DIGEST}

    def test_submit_pins_once_and_keeps_a_pinned_request(self, random_graph):
        registry = GraphRegistry()
        registry.register_graph(random_graph)
        unpinned = TraversalRequest("bfs", random_graph.name, source=1)
        with Service(registry, ServiceConfig(max_workers=1)) as service:
            pinned = unpinned.with_system(service.system)
            first = service.submit(unpinned)
            service.result(first)
            second = service.submit(pinned)
        assert first.request == pinned and first.request.system is service.system
        assert second.request is pinned and second.from_cache
        assert unpinned.system is None


SYSTEMS = (default_system(), ampere_pcie4(), default_system().with_gpu_memory(1 << 20))

sources = st.one_of(
    st.integers(0, 2**40),
    st.integers(0, 2**31 - 1).map(np.int64),
    st.integers(0, 2**31 - 1).map(np.int32),
    st.integers(0, 2**20).map(np.float64),
)
requests = st.builds(
    TraversalRequest,
    application=st.one_of(
        st.sampled_from(Application), st.sampled_from([a.value for a in Application])
    ),
    graph=st.text(min_size=1, max_size=8),
    source=sources,
    strategy=st.one_of(
        st.sampled_from(AccessStrategy),
        st.sampled_from([s.value for s in AccessStrategy]),
    ),
    system=st.one_of(st.none(), st.sampled_from(SYSTEMS)),
    deadline=st.one_of(st.none(), st.integers(1, 600), st.floats(1e-3, 1e3)),
    tenant=st.one_of(st.none(), st.text(min_size=1, max_size=6)),
)


class TestWithSystemIsReplace:
    @given(original=requests, system=st.sampled_from(SYSTEMS))
    @settings(max_examples=200, deadline=None)
    def test_equals_hashes_and_keys_as_dataclasses_replace(self, original, system):
        before = (original, hash(original), dict(vars(original)))
        pinned = original.with_system(system)
        reference = dataclasses.replace(original, system=system)
        assert type(pinned) is TraversalRequest
        assert pinned == reference and hash(pinned) == hash(reference)
        assert vars(pinned) == vars(reference)
        assert pinned.system is system
        assert pinned.cache_key == reference.cache_key
        assert pinned.batch_key == reference.batch_key
        assert pinned.system_key == reference.system_key == system.fingerprint()
        assert pinned.describe() == reference.describe()
        if original.application.is_streaming:
            assert pinned.source is None
        else:
            assert type(pinned.source) is int
        # The original is untouched (its own pin, if any, included).
        assert (original, hash(original), dict(vars(original))) == before
