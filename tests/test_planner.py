"""Tests for the fusion planner.

Three layers: :class:`FusionPlanner` unit tests on synthetic pending
backlogs (rider selection, ≤64-lane bin-packing) with a Hypothesis property
over generated backlogs pinning the rule — every rider that fits is taken,
and the plan is a function of the backlog alone; service-level tests that
the logged plan shapes do not depend on what the cost model has learned;
and property-style end-to-end tests asserting the core invariant — every
result a planner-fused drain produces is bit-identical to the same request
run solo, including under seeded lane poisoning.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ServiceConfig, ampere_pcie4
from repro.errors import PermanentFaultError
from repro.graph.generators import uniform_random_graph
from repro.service import FaultPlan, Service, TraversalRequest
from repro.service import faults
from repro.service.jobs import Job, JobStatus
from repro.service.planner import MAX_LANES, FusionPlan, FusionPlanner
from repro.traversal.api import run
from repro.types import AccessStrategy, Application

from .conftest import _serve_backlog, metrics_fields


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


_ids = itertools.count()


def make_jobs(
    application, graph="g", count=1, strategy="merged_aligned", first=0, **kwargs
):
    """``count`` jobs of one group; BFS/SSSP sources run ``first``,
    ``first + 1``, ... (a planner lane is a distinct source)."""
    return [
        Job(
            job_id=f"job-{next(_ids)}",
            request=TraversalRequest(
                application,
                graph,
                source=None if Application(application).is_streaming else first + index,
                strategy=strategy,
                **kwargs,
            ),
        )
        for index in range(count)
    ]


def pending_of(*groups):
    """A pending backlog as the queue hands it to the planner."""
    return {group[0].request.batch_key: list(group) for group in groups}


class TestPlannerUnit:
    def test_no_riders_yields_baseline(self):
        planner = FusionPlanner()
        anchor = make_jobs("bfs", count=3)
        plan, rider_keys = planner.build(anchor, pending_of(anchor))
        assert rider_keys == []
        assert plan.kind == "multisource"
        assert not plan.fused
        assert plan.jobs == anchor

    def test_single_job_anchor_is_solo(self):
        planner = FusionPlanner()
        anchor = make_jobs("bfs", count=1)
        plan, _ = planner.build(anchor, pending_of(anchor))
        assert plan.kind == "solo"
        assert plan.shape == "solo:1x1"

    def test_packs_same_app_same_graph_configs(self):
        planner = FusionPlanner()
        anchor = make_jobs("bfs", count=4)
        rider_a = make_jobs("bfs", count=2, strategy="uvm", first=4)
        rider_b = make_jobs("bfs", count=3, strategy="naive", first=6)
        plan, rider_keys = planner.build(
            anchor, pending_of(anchor, rider_a, rider_b)
        )
        assert plan.kind == "packed"
        assert plan.fused
        assert plan.lanes == 9
        assert set(rider_keys) == {
            rider_a[0].request.batch_key,
            rider_b[0].request.batch_key,
        }
        # Anchor group always leads; riders pack smallest-first.
        assert plan.groups[0] == anchor
        assert [len(group) for group in plan.groups] == [4, 2, 3]

    def test_incompatible_riders_excluded(self):
        planner = FusionPlanner()
        anchor = make_jobs("bfs", count=2)
        other_graph = make_jobs("bfs", graph="h", count=2, strategy="uvm")
        other_app = make_jobs("sssp", count=2, strategy="uvm")
        plan, rider_keys = planner.build(
            anchor, pending_of(anchor, other_graph, other_app)
        )
        assert rider_keys == []
        assert plan.kind == "multisource"

    def test_bin_pack_respects_word_width(self):
        planner = FusionPlanner()
        anchor = make_jobs("bfs", count=MAX_LANES - 3)
        small = make_jobs("bfs", count=2, strategy="uvm", first=MAX_LANES - 3)
        big = make_jobs("bfs", count=10, strategy="naive", first=MAX_LANES - 1)
        plan, rider_keys = planner.build(anchor, pending_of(anchor, small, big))
        assert rider_keys == [small[0].request.batch_key]
        assert plan.lanes == MAX_LANES - 1
        assert plan.lanes <= MAX_LANES

    def test_full_anchor_packs_nothing(self):
        planner = FusionPlanner()
        anchor = make_jobs("bfs", count=MAX_LANES)
        rider = make_jobs("bfs", count=1, strategy="uvm", first=MAX_LANES)
        plan, rider_keys = planner.build(anchor, pending_of(anchor, rider))
        assert rider_keys == []
        assert plan.kind == "multisource"

    def test_rider_of_anchor_sources_adds_no_lanes(self):
        # A lane is a distinct source: a rider asking only for sources the
        # word already holds costs nothing, even in a full word.
        planner = FusionPlanner()
        for width in (4, MAX_LANES):
            anchor = make_jobs("bfs", count=width)
            rider = make_jobs("bfs", count=2, strategy="uvm", first=width - 2)
            plan, rider_keys = planner.build(anchor, pending_of(anchor, rider))
            assert rider_keys == [rider[0].request.batch_key]
            assert plan.kind == "packed"
            assert plan.lanes == width
            assert plan.shape == f"packed:2x{width}"

    def test_configurations_of_shared_sources_make_one_plan(self):
        planner = FusionPlanner()
        groups = [
            make_jobs("sssp", count=16, strategy=strategy)
            for strategy in ("merged_aligned", "merged", "naive", "uvm")
        ]
        groups.append(make_jobs("sssp", count=16, system=ampere_pcie4()))
        plan, rider_keys = planner.build(groups[0], pending_of(*groups))
        assert len(rider_keys) == 4
        assert plan.kind == "packed"
        assert len(plan.jobs) == 80
        assert plan.lanes == 16
        assert plan.shape == "packed:5x16"

    def test_streaming_takes_every_compatible_group(self):
        planner = FusionPlanner()
        anchor = make_jobs("cc")
        rider_a = make_jobs("cc", strategy="uvm")
        rider_b = make_jobs("cc", strategy="naive")
        plan, rider_keys = planner.build(
            anchor, pending_of(anchor, rider_a, rider_b)
        )
        assert plan.kind == "streaming"
        assert len(rider_keys) == 2
        # Streaming lanes are per group, not per job.
        assert plan.lanes == 3
        assert plan.shape == "streaming:3x3"

    def test_pagerank_groups_stream_like_cc(self):
        planner = FusionPlanner()
        anchor = make_jobs("pagerank")
        rider = make_jobs("pagerank", strategy="uvm")
        plan, rider_keys = planner.build(anchor, pending_of(anchor, rider))
        assert plan.kind == "streaming"
        assert rider_keys == [rider[0].request.batch_key]

    def test_riders_are_taken_whenever_they_fit(self):
        # The rule that replaced the cost gate: fitting is the whole test.
        planner = FusionPlanner()
        anchor = make_jobs("bfs", count=2)
        rider = make_jobs("bfs", count=2, strategy="uvm", first=2)
        plan, rider_keys = planner.build(anchor, pending_of(anchor, rider))
        assert plan.kind == "packed"
        assert plan.shape == "packed:2x4"
        assert rider_keys == [rider[0].request.batch_key]

    def test_narrow_to_anchor_degrades_to_baseline(self):
        planner = FusionPlanner()
        anchor = make_jobs("cc")
        rider = make_jobs("cc", strategy="uvm")
        plan, _ = planner.build(anchor, pending_of(anchor, rider))
        plan.narrow(plan.groups[:1])
        assert plan.kind == "streaming"
        assert not plan.fused

        anchor = make_jobs("bfs", count=1)
        rider = make_jobs("bfs", count=1, strategy="uvm")
        plan, _ = planner.build(anchor, pending_of(anchor, rider))
        assert plan.kind == "packed"
        plan.narrow(plan.groups[:1])
        assert plan.kind == "solo"


# --------------------------------------------------------------------- #
# The rule, over generated backlogs
# --------------------------------------------------------------------- #

_group_configs = st.tuples(
    st.sampled_from(["bfs", "sssp", "cc", "pagerank"]),
    st.sampled_from(["g", "h"]),
    st.sampled_from(["merged_aligned", "merged", "naive", "uvm"]),
)
#: A backlog: distinct (application, graph, strategy) groups, each 1-70 wide
#: (so anchors and riders on both sides of the 64-lane word), in queue order.
_backlogs = st.dictionaries(
    _group_configs, st.integers(min_value=1, max_value=70), min_size=1, max_size=12
)


class TestPlanIsAFunctionOfTheBacklog:
    @settings(max_examples=80, deadline=None)
    @given(backlog=_backlogs, data=st.data())
    def test_every_rider_that_fits_is_taken(self, backlog, data):
        # Any queue order, and (being a permutation) any group as the anchor.
        order = data.draw(st.permutations(list(backlog)))
        # Groups on disjoint sources, or all from source 0: a lane is a
        # distinct source, so shared sources ride free.
        shared = data.draw(st.booleans())
        groups = [
            make_jobs(
                app, graph=graph, count=backlog[app, graph, strategy],
                strategy=strategy, first=0 if shared else 100 * index,
            )
            for index, (app, graph, strategy) in enumerate(order)
        ]
        pending = pending_of(*groups)
        anchor = groups[0]
        request = anchor[0].request

        plan, rider_keys = FusionPlanner().build(anchor, pending)
        again, again_keys = FusionPlanner().build(anchor, dict(pending))
        assert plan == again and rider_keys == again_keys

        compatible = {
            key: jobs
            for key, jobs in pending.items()
            if key != request.batch_key
            and key[:2] == (request.graph, request.application.value)
        }
        assert plan.groups[0] == anchor
        assert len(set(rider_keys)) == len(rider_keys)
        assert set(rider_keys) <= set(compatible)
        assert plan.groups[1:] == [pending[key] for key in rider_keys]
        assert plan.fused == bool(rider_keys)
        if request.application.is_streaming:
            assert list(rider_keys) == list(compatible)
            assert plan.kind == "streaming"
            return

        def sources(jobs):
            return {job.request.source for job in jobs}

        lanes = set().union(*(sources(group) for group in plan.groups))
        assert plan.lanes == len(lanes)
        if rider_keys:
            assert plan.kind == "packed"
            assert plan.lanes <= MAX_LANES
        else:
            assert plan.kind == ("multisource" if len(anchor) > 1 else "solo")
        # Every rider left over needs more new lanes than the word has free.
        for key, jobs in compatible.items():
            if key not in rider_keys:
                assert len(sources(jobs) - lanes) > MAX_LANES - plan.lanes
        if shared:
            return
        taken = [len(compatible[key]) for key in rider_keys]
        skipped = [len(jobs) for key, jobs in compatible.items() if key not in rider_keys]
        assert plan.lanes == len(anchor) + sum(taken)
        # Smallest-first: nothing skipped is smaller than anything taken, and
        # the smallest skipped group does not fit the lanes left over.
        if skipped:
            assert min(skipped) >= max(taken, default=0)
            assert len(anchor) + sum(taken) + min(skipped) > MAX_LANES


# --------------------------------------------------------------------- #
# End-to-end bit-identity properties
# --------------------------------------------------------------------- #

def make_graph(name="plannergraph", vertices=300, edges=1800, seed=9):
    return uniform_random_graph(vertices, edges, seed=seed, name=name)


def enqueue_without_draining(service, requests):
    """Submit without dispatching workers so fused backlogs form reliably."""
    original = service._pool.submit
    service._pool.submit = lambda fn, *a, **k: None
    try:
        return [service.submit(request) for request in requests]
    finally:
        service._pool.submit = original


def drain_all(service, max_drains=100):
    for _ in range(max_drains):
        if service._queue.pending_count() == 0:
            return
        service._drain_one_batch()
    raise AssertionError("queue did not drain")


def mixed_backlog(graph_name):
    """A backlog exercising every plan kind the planner can emit."""
    requests = []
    for strategy in ("merged_aligned", "uvm", "naive"):
        requests += [
            TraversalRequest("bfs", graph_name, source=s, strategy=strategy)
            for s in range(3)
        ]
    requests += [
        TraversalRequest("sssp", graph_name, source=s, strategy=strategy)
        for strategy in ("merged_aligned", "merged")
        for s in (5, 6)
    ]
    requests += [
        TraversalRequest("cc", graph_name, strategy=strategy)
        for strategy in ("merged_aligned", "uvm", "naive")
    ]
    requests += [
        TraversalRequest("pagerank", graph_name, strategy=strategy)
        for strategy in ("merged_aligned", "uvm")
    ]
    requests.append(
        TraversalRequest("bfs", graph_name, source=7, system=ampere_pcie4())
    )
    return requests


#: Sources per fusible BFS/SSSP batch group in :func:`planner_workload`; three
#: strategy groups of this width bin-pack comfortably into one 64-lane word.
DEFAULT_PLANNER_SOURCES = 6
#: Three same-graph groups per application, each a distinct platform
#: configuration the planner fuses.
PLANNER_STRATEGIES = (
    AccessStrategy.MERGED_ALIGNED,
    AccessStrategy.UVM,
    AccessStrategy.NAIVE,
)


def planner_workload(graph, sources: int) -> list[TraversalRequest]:
    """A mixed-application, same-graph backlog with fusion headroom.

    BFS and SSSP groups across three strategies (packed-plan candidates),
    plus CC and PageRank configuration groups (streaming-plan candidates).
    """
    requests: list[TraversalRequest] = []
    for application in (Application.BFS, Application.SSSP):
        for strategy in PLANNER_STRATEGIES:
            requests.extend(
                TraversalRequest(application, graph.name, source=source, strategy=strategy)
                for source in range(sources)
            )
    for strategy in PLANNER_STRATEGIES:
        requests.append(TraversalRequest(Application.CC, graph.name, strategy=strategy))
    for strategy in PLANNER_STRATEGIES[:2]:
        requests.append(
            TraversalRequest(Application.PAGERANK, graph.name, strategy=strategy)
        )
    return requests


def logged_plans(graph, requests, prime=None, **config):
    """Queue ``requests`` on a fresh service, drain, return the plan records."""
    with Service(config=ServiceConfig(**config)) as service:
        service.registry.register_graph(graph)
        if prime is not None:
            prime(service)
        assert _serve_backlog(service, requests) == 0
        assert service.stats().completed == len(requests)
        return service.plan_decisions()


class TestPlanShapesAreAFunctionOfTheBacklog:
    """The check to run after any planner change: same backlog, same shapes."""

    def test_shapes_ignore_what_the_cost_model_learned(self):
        graph = make_graph()
        requests = mixed_backlog(graph.name)

        def mislead(service):
            # What used to close the gate for good: 100-second samples inflate
            # every application's rate and the model's mean error.
            service.registry.get(graph.name)  # resident, so the samples are sized
            for request in requests:
                service.cost_model.observe([(request.batch_key, 1)], 100.0)
            assert service.cost_model.estimate_group(requests[0].batch_key, 1) > 10

        fresh = logged_plans(graph, requests)
        misled = logged_plans(graph, requests, prime=mislead)
        shapes = [entry["shape"] for entry in fresh]
        assert shapes == [entry["shape"] for entry in misled]
        assert shapes == [
            "packed:4x4", "packed:2x2", "streaming:3x3", "streaming:2x2",
        ]

    def test_planner_workload_fuses_both_kinds_twice_alike(self):
        graph = make_graph()
        requests = planner_workload(graph, DEFAULT_PLANNER_SOURCES)
        first = logged_plans(graph, requests)
        second = logged_plans(graph, requests)
        assert [entry["shape"] for entry in first] == [
            entry["shape"] for entry in second
        ]
        fused = {entry["kind"] for entry in first if entry["groups"] > 1}
        assert fused == {"packed", "streaming"}


class TestPlannedDrainBitIdentity:
    def test_mixed_backlog_results_identical_to_solo_runs(self):
        graph = make_graph()
        with Service(config=ServiceConfig()) as service:
            service.registry.register_graph(graph)
            requests = mixed_backlog(graph.name)
            jobs = enqueue_without_draining(service, requests)
            drain_all(service)

            assert all(job.status is JobStatus.DONE for job in jobs)
            for job in jobs:
                request = job.request
                solo = run(
                    request.application,
                    graph,
                    source=request.source,
                    strategy=request.strategy,
                    system=request.system,
                )
                assert np.array_equal(job.result.values, solo.values), (
                    f"planned result diverged for {request.describe()}"
                )
            decisions = service.plan_decisions()
            assert decisions, "planner must log every drain decision"
            fused = [entry for entry in decisions if entry["groups"] > 1]
            assert fused, "mixed compatible backlog must produce fused plans"
            assert "packed" in {entry["kind"] for entry in fused}
            for entry in decisions:
                assert entry["lanes"] <= MAX_LANES or entry["kind"] == "streaming"
                assert entry["actual_seconds"] >= 0
                assert entry["predicted_seconds"] > 0

    def test_streaming_backlog_fuses_across_configs(self):
        # A fresh model (zero error margin) must fuse compatible streaming
        # groups; every lane's values stay bit-identical to its solo run.
        graph = make_graph()
        with Service(config=ServiceConfig()) as service:
            service.registry.register_graph(graph)
            requests = [
                TraversalRequest("cc", graph.name, strategy=strategy)
                for strategy in ("merged_aligned", "uvm", "naive")
            ]
            jobs = enqueue_without_draining(service, requests)
            drain_all(service)

            assert all(job.status is JobStatus.DONE for job in jobs)
            for job in jobs:
                solo = run("cc", graph, strategy=job.request.strategy)
                assert np.array_equal(job.result.values, solo.values)
            fused = [
                entry for entry in service.plan_decisions() if entry["groups"] > 1
            ]
            assert fused and fused[0]["kind"] == "streaming"
            assert fused[0]["groups"] == 3

    def test_injected_engine_drains_through_the_plan_path(self):
        """An injected engine runs once per job; its drains are ``solo`` plans:
        one single-group decision, one batch and one ``plan`` span per group."""
        graph = make_graph()
        calls = []

        def counting_engine(request, resolved):
            calls.append(request.cache_key)
            return run(
                request.application, resolved, source=request.source,
                strategy=request.strategy, system=request.system,
            )

        with Service(config=ServiceConfig(), engine=counting_engine) as service:
            service.registry.register_graph(graph)
            jobs = enqueue_without_draining(service, mixed_backlog(graph.name))
            drain_all(service)
            decisions = service.plan_decisions()
            stats = service.stats()
            spans = service.drain_traces()
        assert all(job.status is JobStatus.DONE for job in jobs)
        assert sorted(calls) == sorted(job.request.cache_key for job in jobs)
        group_sizes: dict[tuple, int] = {}
        for job in jobs:
            key = job.request.batch_key
            group_sizes[key] = group_sizes.get(key, 0) + 1
        assert len(decisions) == stats.batches == len(group_sizes)
        assert {entry["kind"] for entry in decisions} == {"solo"}
        assert all(entry["groups"] == 1 for entry in decisions)
        assert sorted(entry["lanes"] for entry in decisions) == sorted(group_sizes.values())
        assert sorted(entry["jobs"] for entry in decisions) == sorted(group_sizes.values())
        assert len([s for s in spans if s["name"] == "plan"]) == len(group_sizes)
        assert stats.executions == len(jobs)

    def test_plan_record_counts_only_lanes_that_rode_the_word(self):
        """A rider with an out-of-range source fails solo before the word
        forms; the plan record describes the sweep that actually ran."""
        graph = make_graph()
        bad = graph.num_vertices + 5
        for rider_sources, expected in (
            ([bad], {"kind": "multisource", "groups": 1, "lanes": 3, "jobs": 3}),
            ([4, bad], {"kind": "packed", "groups": 2, "lanes": 4, "jobs": 4}),
        ):
            with Service(config=ServiceConfig()) as service:
                service.registry.register_graph(graph)
                requests = [
                    TraversalRequest("bfs", graph.name, source=s) for s in range(3)
                ]
                requests += [
                    TraversalRequest("bfs", graph.name, source=s, strategy="uvm")
                    for s in rider_sources
                ]
                jobs = enqueue_without_draining(service, requests)
                drain_all(service)
                (decision,) = service.plan_decisions()
                spans = service.drain_traces()
            for job in jobs:
                failed = job.request.source == bad
                assert job.status is (JobStatus.FAILED if failed else JobStatus.DONE)
            assert {key: decision[key] for key in expected} == expected
            assert decision["shape"] == "{kind}:{groups}x{lanes}".format(**expected)
            shared = [
                span["attributes"]
                for span in spans
                if span["name"] == "engine_sweep" and span["attributes"]["jobs"] > 1
            ]
            assert [(s["kind"], s["lanes"]) for s in shared] == [
                (expected["kind"], expected["lanes"])
            ]

    def test_shared_sources_ride_one_word_once(self):
        """Three configurations of the same 16 sources: one packed sweep of
        16 lanes, and every job's result is its solo run's."""
        graph = make_graph()
        with Service(config=ServiceConfig()) as service:
            service.registry.register_graph(graph)
            requests = [
                TraversalRequest("sssp", graph.name, source=s, strategy=strategy)
                for strategy in ("merged_aligned", "uvm", "naive")
                for s in range(16)
            ]
            jobs = enqueue_without_draining(service, requests)
            drain_all(service)
            (decision,) = service.plan_decisions()
            spans = service.drain_traces()
        assert decision["shape"] == "packed:3x16"
        assert decision["jobs"] == 48
        sweeps = [span["attributes"] for span in spans if span["name"] == "engine_sweep"]
        assert [(s["kind"], s["jobs"], s["lanes"]) for s in sweeps] == [("packed", 48, 16)]
        for job in jobs:
            assert job.status is JobStatus.DONE
            request = job.request
            solo = run("sssp", graph, source=request.source, strategy=request.strategy)
            assert np.array_equal(job.result.values, solo.values)
            assert metrics_fields(job.result.metrics) == metrics_fields(solo.metrics)

    def test_poisoned_packed_lane_fails_alone_bit_identically(self):
        plan = FaultPlan.from_spec("seed=17;worker.task:permanent:source=2")
        graph = make_graph()
        config = ServiceConfig(fault_plan=plan)
        with Service(config=config) as service:
            service.registry.register_graph(graph)
            requests = [
                TraversalRequest("bfs", graph.name, source=s, strategy=strategy)
                for strategy in ("merged_aligned", "uvm")
                for s in range(4)
            ]
            jobs = enqueue_without_draining(service, requests)
            drain_all(service)

            assert all(job.done for job in jobs)
            poisoned = [job for job in jobs if job.request.source == 2]
            healthy = [job for job in jobs if job.request.source != 2]
            assert len(poisoned) == 2
            for job in poisoned:
                assert job.status is JobStatus.FAILED
                assert isinstance(job.error, PermanentFaultError)
            for job in healthy:
                assert job.status is JobStatus.DONE
                solo = run(
                    "bfs", graph, source=job.request.source,
                    strategy=job.request.strategy,
                )
                assert np.array_equal(job.result.values, solo.values)
            assert service.stats().isolations >= 1

    def test_poisoned_streaming_rider_fails_alone(self):
        plan = FaultPlan.from_spec("seed=23;worker.task:permanent:tenant=poison")
        graph = make_graph()
        with Service(config=ServiceConfig(fault_plan=plan)) as service:
            service.registry.register_graph(graph)
            requests = [
                TraversalRequest(
                    "pagerank", graph.name, strategy="merged_aligned",
                    tenant="poison",
                ),
                TraversalRequest("pagerank", graph.name, strategy="uvm", tenant="ok"),
            ]
            jobs = enqueue_without_draining(service, requests)
            drain_all(service)

            assert jobs[0].status is JobStatus.FAILED
            assert isinstance(jobs[0].error, PermanentFaultError)
            assert jobs[1].status is JobStatus.DONE
            solo = run("pagerank", graph, strategy=AccessStrategy.UVM)
            assert np.array_equal(jobs[1].result.values, solo.values)
            assert service.stats().isolations >= 1
