"""Tests for scheduling policies, admission control and deadline handling."""

import json
import threading
import time
from collections import OrderedDict
from pathlib import Path

import pytest

from repro.config import (
    SCHEDULING_POLICIES,
    ServiceConfig,
    normalize_tenant_weights,
)
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeadlineExceededError,
    InfeasibleDeadlineError,
    JobFailedError,
    ServiceError,
)
from repro.service import (
    CostModel,
    EdfPolicy,
    FifoPolicy,
    GraphRegistry,
    Job,
    JobStatus,
    LatencyStats,
    RequestQueue,
    Service,
    TraversalRequest,
    WeightedFairPolicy,
    default_engine,
    make_policy,
)
from repro.service.planner import MAX_LANES, FusionPlanner
from repro.service.workload import (
    config_from_spec,
    expand_requests,
    load_workload,
    serve_workload_file,
)
from repro.types import Application

EXAMPLE_WORKLOAD = Path(__file__).resolve().parents[1] / "examples" / "workload.json"


def make_job(job_id: str, source: int, deadline: float | None = None, **kwargs) -> Job:
    request = TraversalRequest(
        Application.BFS, "g", source=source, deadline=deadline, **kwargs
    )
    return Job(job_id=job_id, request=request)


class GatedCountingEngine:
    """Counts engine invocations; optionally blocks until released."""

    def __init__(self, gated: bool = False):
        self.calls: list[tuple] = []
        self.gate = threading.Event()
        if not gated:
            self.gate.set()
        self._lock = threading.Lock()

    def __call__(self, request, graph):
        with self._lock:
            self.calls.append(request.cache_key)
        self.gate.wait(30)
        return default_engine(request, graph)


@pytest.fixture
def registry(random_graph, uniform_graph):
    registry = GraphRegistry()
    registry.register_graph(random_graph)
    registry.register_graph(uniform_graph)
    return registry


def make_service(registry, engine=None, **config_overrides) -> Service:
    config = ServiceConfig(**{"max_workers": 2, **config_overrides})
    return Service(registry=registry, config=config, engine=engine)


# --------------------------------------------------------------------- #
# Request-level normalization of the new fields
# --------------------------------------------------------------------- #
class TestRequestFields:
    def test_deadline_normalized_to_float(self):
        assert TraversalRequest("bfs", "g", source=0, deadline=2).deadline == 2.0
        assert TraversalRequest("bfs", "g", source=0).deadline is None

    @pytest.mark.parametrize("bad", [0, -1.5, float("inf"), float("nan"), "soon", True])
    def test_invalid_deadline_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            TraversalRequest("bfs", "g", source=0, deadline=bad)

    @pytest.mark.parametrize("bad", ["", 7, 1.0])
    def test_invalid_tenant_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            TraversalRequest("bfs", "g", source=0, tenant=bad)

    def test_deadline_and_tenant_excluded_from_keys(self):
        plain = TraversalRequest("bfs", "g", source=0)
        urgent = TraversalRequest("bfs", "g", source=0, deadline=0.5, tenant="acme")
        assert plain.cache_key == urgent.cache_key
        assert plain.batch_key == urgent.batch_key

    def test_describe_mentions_deadline_and_tenant(self):
        described = TraversalRequest(
            "bfs", "g", source=0, deadline=1.5, tenant="acme"
        ).describe()
        assert "deadline=1.5s" in described and "tenant=acme" in described

    def test_job_derives_absolute_deadline(self):
        job = make_job("j", 0, deadline=5.0)
        assert job.deadline_at == pytest.approx(job.submitted_at + 5.0)
        assert not job.expired()
        assert make_job("k", 0).deadline_at is None


# --------------------------------------------------------------------- #
# Policy unit behaviour
# --------------------------------------------------------------------- #
class TestPolicies:
    def groups(self, *entries):
        """Build an insertion-ordered group mapping from (key, jobs) pairs."""
        return OrderedDict(entries)

    def test_fifo_picks_oldest_group(self):
        groups = self.groups(
            (("a",), [make_job("a1", 1)]),
            (("b",), [make_job("b1", 2), make_job("b2", 3)]),
        )
        assert FifoPolicy().select(groups) == ("a",)

    def test_edf_picks_most_urgent_group(self):
        groups = self.groups(
            (("a",), [make_job("a1", 1)]),
            (("b",), [make_job("b1", 2, deadline=50.0)]),
            (("c",), [make_job("c1", 3, deadline=5.0), make_job("c2", 4)]),
        )
        assert EdfPolicy().select(groups) == ("c",)

    def test_edf_without_deadlines_degrades_to_fifo(self):
        groups = self.groups(
            (("a",), [make_job("a1", 1)]),
            (("b",), [make_job("b1", 2)]),
        )
        assert EdfPolicy().select(groups) == ("a",)

    def test_make_policy(self):
        assert isinstance(make_policy(None), FifoPolicy)
        assert isinstance(make_policy("edf"), EdfPolicy)
        edf = EdfPolicy()
        assert make_policy(edf) is edf
        with pytest.raises(ConfigurationError):
            make_policy("shortest-job-first")
        for name in SCHEDULING_POLICIES:
            assert make_policy(name).name == name

    def test_make_policy_wires_wfq_weights_and_cost_model(self):
        model = CostModel()
        policy = make_policy("wfq", tenant_weights={"a": 2.0}, cost_model=model)
        assert isinstance(policy, WeightedFairPolicy)
        assert policy.weight_of("a") == 2.0
        assert policy.weight_of("unknown") == WeightedFairPolicy.DEFAULT_WEIGHT
        assert policy.weight_of(None) == WeightedFairPolicy.DEFAULT_WEIGHT

    def test_config_rejects_unknown_policy_and_bad_limits(self):
        for unknown in ("lifo", "largest"):
            with pytest.raises(ConfigurationError):
                ServiceConfig(policy=unknown)
        with pytest.raises(ConfigurationError):
            ServiceConfig(queue_limit=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(tenant_quota=-1)
        with pytest.raises(ConfigurationError):
            ServiceConfig(latency_window=0)


# --------------------------------------------------------------------- #
# Weighted-fair queueing policy
# --------------------------------------------------------------------- #
class TestWeightedFairPolicy:
    def groups(self, *entries):
        return OrderedDict(entries)

    def drain(self, policy, groups, rounds=None):
        """Repeatedly select-and-pop, returning the selection order."""
        order = []
        while groups and (rounds is None or len(order) < rounds):
            key = policy.select(groups)
            groups.pop(key)
            order.append(key)
        return order

    def test_single_tenant_degrades_to_fifo(self):
        policy = WeightedFairPolicy()
        groups = self.groups(
            (("a",), [make_job("a1", 1)]),
            (("b",), [make_job("b1", 2)]),
            (("c",), [make_job("c1", 3)]),
        )
        assert self.drain(policy, groups) == [("a",), ("b",), ("c",)]

    def test_polite_group_preempts_backlogged_burst(self):
        policy = WeightedFairPolicy()
        groups = self.groups(
            *(
                ((f"agg{i}",), [make_job(f"a{i}", i, tenant="aggressive")])
                for i in range(5)
            )
        )
        # the burst is tagged and two groups drain before the polite tenant
        # shows up at all
        assert self.drain(policy, groups, rounds=2) == [("agg0",), ("agg1",)]
        groups[("polite",)] = [make_job("p", 99, tenant="polite")]
        # its first group outranks the burst's remaining backlog immediately
        assert policy.select(groups) == ("polite",)

    def test_weights_divide_service_proportionally(self):
        policy = WeightedFairPolicy(tenant_weights={"paying": 3.0, "free": 1.0})
        groups = self.groups(
            *(
                ((f"{tenant}{i}",), [make_job(f"{tenant}{i}", i, tenant=tenant)])
                for tenant in ("paying", "free")
                for i in range(4)
            )
        )
        order = self.drain(policy, groups)
        # equal-cost groups, 3:1 weights: the paying tenant drains three
        # groups for every one of the free tenant's while both are backlogged
        first_free = next(i for i, key in enumerate(order) if key[0].startswith("free"))
        assert order[:3] == [("paying0",), ("paying1",), ("paying2",)]
        assert first_free == 3
        paying_served = sum(
            1 for key in order[:5] if key[0].startswith("paying")
        )
        assert paying_served == 4  # 4 paying + 1 free in the first 5 slots

    def test_unserved_tenant_is_never_starved(self):
        """Regression guard: a backlogged tenant's tag is assigned once, so a
        heavier competitor cannot keep resetting it and starve the tenant."""
        policy = WeightedFairPolicy(tenant_weights={"heavy": 100.0})
        groups = self.groups(
            *(((f"h{i}",), [make_job(f"h{i}", i, tenant="heavy")]) for i in range(8))
        )
        groups[("light",)] = [make_job("l", 99, tenant="light")]
        order = self.drain(policy, groups)
        # weight 100 lets the heavy tenant drain its whole backlog of 8
        # cheap groups first, but the light group's arrival-time tag is
        # preserved — it is served, not pushed back forever
        assert ("light",) in order

    def test_forget_group_refunds_fused_away_virtual_time(self):
        """Regression: a group fused into a shared run as a plan rider
        (popped by pop_plan, never selected) must not leave its booked
        cost on the tenant's virtual tail — otherwise the tenant's future
        groups are deprioritized for work that rode along free."""
        def run_sequence(refund: bool):
            policy = WeightedFairPolicy()
            fused_jobs = [make_job("t2", 2, tenant="t")]
            groups = self.groups(
                (("t1",), [make_job("t1", 1, tenant="t")]),
                (("t2",), fused_jobs),
                (("other",), [make_job("o", 3, tenant="other")]),
            )
            # One select tags every visible group, charging tenant "t" twice.
            assert policy.select(groups) == ("t1",)
            groups.pop(("t1",))
            # The second group rides along with a fused plan instead of
            # draining through select (pop_plan semantics).
            groups.pop(("t2",))
            if refund:
                policy.forget_group(("t2",), fused_jobs)
            assert policy.select(groups) == ("other",)
            groups.pop(("other",))
            # Fresh round: one new group per tenant, "t" arriving first.
            groups[("t3",)] = [make_job("t3", 4, tenant="t")]
            groups[("other2",)] = [make_job("o2", 5, tenant="other")]
            return policy.select(groups)

        # With the refund, both tenants' tails are level again and "t" wins
        # its arrival-order tie; without it, the fused-away group's charge
        # still demotes "t" behind the other tenant.
        assert run_sequence(refund=True) == ("t3",)
        assert run_sequence(refund=False) == ("other2",)

    def test_forget_group_ignores_unknown_and_stale_tags(self):
        policy = WeightedFairPolicy()
        jobs = [make_job("a", 1, tenant="t")]
        policy.forget_group(("never-seen",), jobs)  # no-op, no error
        groups = self.groups((("a",), jobs))
        policy.select(groups)  # tags and immediately selects (tag consumed)
        policy.forget_group(("a",), jobs)  # tag already gone: no-op
        # A recreated group under the same key must not refund the vanished
        # incarnation's charge to the new jobs' tenant.
        first = [make_job("b1", 2, tenant="t")]
        groups = self.groups((("b",), first), (("z",), [make_job("z", 9)]))
        policy.select(groups)  # tags both; selects ("b",)... or ("z",)?
        tail_before = dict(policy._tenant_tail)
        recreated = [make_job("b2", 3, tenant="t")]
        policy.forget_group(("b",), recreated)
        assert policy._tenant_tail == tail_before

    def test_recreated_batch_key_does_not_inherit_stale_tag(self):
        """Regression: a group emptied by discard() and recreated under the
        same batch key by a different submission must be tagged afresh, not
        scheduled at the vanished group's frozen priority."""
        policy = WeightedFairPolicy()
        wide = [make_job(f"w{i}", i, tenant="bulky") for i in range(10)]
        groups = self.groups(
            (("K",), wide),
            (("L",), [make_job("l", 90, tenant="other")]),
        )
        assert policy.select(groups) == ("L",)  # cost 1 beats cost 10
        groups.pop(("L",))
        # the wide group vanishes without being selected (every job
        # withdrawn), and the key is recreated by a different tenant's
        # cheap single job before the next select
        groups.pop(("K",))
        groups[("K",)] = [make_job("n", 91, tenant="newcomer")]
        groups[("M",)] = [make_job(f"m{i}", i, tenant="other") for i in range(5)]
        # fresh tag: virtual finish ~1, beating the 5-wide group — with the
        # stale (finish=10) tag it would lose and be scheduled dead last
        assert policy.select(groups) == ("K",)
        # one learned BFS rate: the graphs' edge counts set the two costs
        model = CostModel(edge_lookup={"small": 1_000, "huge": 1_000_000}.get)
        cheap = ("small", "bfs", "merged_aligned", "default")
        costly = ("huge", "bfs", "merged_aligned", "default")
        model.observe([(cheap, 1)], 0.001)
        assert model.estimate_group(costly, 1) == pytest.approx(1.0)
        policy = WeightedFairPolicy(cost_model=model)
        groups = self.groups(
            (costly, [make_job("big", 0, tenant="a")]),
            (cheap, [make_job("small", 1, tenant="b")]),
        )
        # equal weights, but the cheap group's virtual finish comes first
        # even though the costly one arrived earlier
        assert policy.select(groups) == cheap

    def test_tenant_weights_validation(self):
        assert normalize_tenant_weights(None) is None
        assert normalize_tenant_weights({"b": 2, "a": 1}) == (("a", 1.0), ("b", 2.0))
        for bad in (
            {"a": 0},
            {"a": -1.0},
            {"a": float("inf")},
            {"a": float("nan")},
            {"a": "heavy"},
            {"a": True},
            {"": 1.0},
            {7: 1.0},
        ):
            with pytest.raises(ConfigurationError):
                normalize_tenant_weights(bad)
        with pytest.raises(ConfigurationError):
            ServiceConfig(tenant_weights={"a": -2.0})
        config = ServiceConfig(policy="wfq", tenant_weights={"a": 2.5})
        assert config.tenant_weights == (("a", 2.5),)

    def test_config_accepts_wfq_policy(self):
        assert "wfq" in SCHEDULING_POLICIES
        assert ServiceConfig(policy="wfq").policy == "wfq"


# --------------------------------------------------------------------- #
# Queue-level scheduling + admission
# --------------------------------------------------------------------- #
class TestQueueScheduling:
    def test_deadline_job_makes_its_whole_group_urgent(self):
        queue = RequestQueue(policy="edf")
        sssp_first = Job(
            job_id="s", request=TraversalRequest(Application.SSSP, "g", source=0)
        )
        queue.push_or_join(sssp_first)
        relaxed = [make_job(f"r{i}", i) for i in range(2)]
        for job in relaxed:
            queue.push_or_join(job)
        # deadline/tenant are excluded from batch_key, so the urgent job
        # lands in the existing BFS group — and drags the whole group ahead
        # of the older SSSP group under EDF.
        urgent = make_job("u", 10, deadline=1.0, tenant="acme")
        queue.push_or_join(urgent)
        batch = queue.pop_batch()
        assert urgent in batch and relaxed[0] in batch
        assert queue.pop_batch() == [sssp_first]

    def test_pop_order_across_groups(self):
        queue = RequestQueue(policy="edf")
        bulk = [make_job(f"b{i}", i) for i in range(3)]
        for job in bulk:
            queue.push_or_join(job)
        urgent = Job(
            job_id="u",
            request=TraversalRequest(
                Application.SSSP, "g", source=0, deadline=0.5
            ),
        )
        queue.push_or_join(urgent)
        assert queue.pop_batch() == [urgent]
        assert queue.pop_batch() == bulk
        assert queue.pop_batch() == []

    def test_queue_limit_rejects_when_full(self):
        queue = RequestQueue()
        queue.push_or_join(make_job("a", 0), queue_limit=2)
        queue.push_or_join(make_job("b", 1), queue_limit=2)
        with pytest.raises(AdmissionError):
            queue.push_or_join(make_job("c", 2), queue_limit=2)
        # draining frees capacity again
        queue.pop_batch()
        outcome, _ = queue.push_or_join(make_job("d", 3), queue_limit=2)
        assert outcome == "queued"

    def test_join_and_cache_hits_bypass_admission(self):
        queue = RequestQueue()
        first = make_job("a", 0)
        queue.push_or_join(first, queue_limit=1)
        outcome, payload = queue.push_or_join(make_job("b", 0), queue_limit=1)
        assert outcome == "joined" and payload is first
        sentinel = object()
        outcome, payload = queue.push_or_join(
            make_job("c", 99), cache_lookup=lambda key: sentinel, queue_limit=1
        )
        assert outcome == "cached" and payload is sentinel

    def test_tenant_quota_is_per_tenant(self):
        queue = RequestQueue()
        queue.push_or_join(make_job("a", 0, tenant="acme"), tenant_quota=1)
        with pytest.raises(AdmissionError) as excinfo:
            queue.push_or_join(make_job("b", 1, tenant="acme"), tenant_quota=1)
        assert excinfo.value.tenant == "acme"
        # other tenants and the anonymous bucket are unaffected
        queue.push_or_join(make_job("c", 2, tenant="globex"), tenant_quota=1)
        queue.push_or_join(make_job("d", 3), tenant_quota=1)
        with pytest.raises(AdmissionError):
            queue.push_or_join(make_job("e", 4), tenant_quota=1)
        assert queue.pending_by_tenant() == {"acme": 1, "globex": 1, None: 1}

    def test_join_merges_deadlines_min_schedule_max_expiry(self):
        queue = RequestQueue(policy="edf")
        shared = make_job("a", 0, deadline=5.0)
        queue.push_or_join(shared)
        joiner = make_job("b", 0, deadline=1.0)
        outcome, payload = queue.push_or_join(joiner)
        assert outcome == "joined" and payload is shared
        # the most urgent waiter drives scheduling, the most patient expiry
        assert shared.deadline_at == pytest.approx(joiner.submitted_at + 1.0, abs=0.5)
        assert shared.expire_at == pytest.approx(shared.submitted_at + 5.0, abs=0.5)
        assert shared.deadline_at < shared.expire_at
        later = make_job("c", 0, deadline=60.0)
        queue.push_or_join(later)
        assert shared.expire_at == pytest.approx(later.submitted_at + 60.0, abs=1.0)

    def test_deadline_free_joiner_makes_job_unexpirable(self):
        queue = RequestQueue(policy="edf")
        urgent = make_job("a", 0, deadline=0.001)
        queue.push_or_join(urgent)
        queue.push_or_join(make_job("b", 0))  # joined, owed the result forever
        assert urgent.expire_at is None
        time.sleep(0.005)
        assert not urgent.expired()
        # scheduling urgency is retained for EDF even though expiry is off
        assert urgent.deadline_at is not None

    def test_urgent_joiner_promotes_relaxed_job(self):
        queue = RequestQueue(policy="edf")
        relaxed = make_job("r", 0)
        queue.push_or_join(relaxed)
        other_group = Job(
            job_id="s",
            request=TraversalRequest(Application.SSSP, "g", source=0, deadline=9.0),
        )
        queue.push_or_join(other_group)
        # a duplicate of the relaxed job arrives with a tighter deadline:
        # its urgency transfers to the shared job and outranks the SSSP group
        queue.push_or_join(make_job("u", 0, deadline=1.0))
        assert relaxed.deadline_at is not None
        assert relaxed.expire_at is None  # the original waiter has no deadline
        assert queue.pop_batch() == [relaxed]

    def test_discard_recomputes_group_urgency(self):
        queue = RequestQueue(policy="edf")
        tight = make_job("t", 0, deadline=1.0)
        patient = make_job("p", 1, deadline=120.0)
        queue.push_or_join(tight)
        queue.push_or_join(patient)
        middle = Job(
            job_id="m",
            request=TraversalRequest(Application.SSSP, "g", source=0, deadline=30.0),
        )
        queue.push_or_join(middle)
        # withdrawing the tight job must demote its group below the SSSP one
        assert queue.discard(tight)
        assert queue.pop_batch() == [middle]
        assert queue.pop_batch() == [patient]

    def test_discard_recomputes_group_deadline_cache(self):
        """Pin the incremental `_group_deadlines` maintenance in discard():
        withdrawing the most urgent member must recompute the survivors'
        deadline, and emptying the group must drop both entries."""
        queue = RequestQueue(policy="edf")
        tight = make_job("t", 0, deadline=1.0)
        patient = make_job("p", 1, deadline=120.0)
        free = make_job("f", 2)
        for job in (tight, patient, free):
            queue.push_or_join(job)
        key = tight.request.batch_key
        assert queue._group_deadlines[key] == pytest.approx(tight.deadline_at)
        # a deadline-free withdrawal takes the cheap branch: cache untouched
        assert queue.discard(free)
        assert queue._group_deadlines[key] == pytest.approx(tight.deadline_at)
        # the urgent member leaves: survivors' (laxer) deadline is recomputed
        assert queue.discard(tight)
        assert queue._group_deadlines[key] == pytest.approx(patient.deadline_at)
        # last member out: group and deadline entry both vanish
        assert queue.discard(patient)
        assert key not in queue._group_deadlines
        assert queue.pop_batch() == []

    def test_fused_away_group_refunds_wfq_virtual_time_at_queue_level(self):
        """Pin the WFQ refund end-to-end through the queue: a group drained
        as a fusion rider (never selected by the policy) must hand its booked
        virtual time back to its tenant via forget_group."""
        policy = WeightedFairPolicy()
        queue = RequestQueue(policy=policy)

        def push_cc(job_id, strategy, tenant):
            job = Job(
                job_id=job_id,
                request=TraversalRequest(
                    Application.CC, "g", strategy=strategy, tenant=tenant
                ),
            )
            queue.push_or_join(job)
            return job

        push_cc("t1", "merged_aligned", "t")
        push_cc("t2", "uvm", "t")
        other = make_job("o", 3, tenant="other")
        queue.push_or_join(other)
        # The drain selects tenant "t"'s first CC group (arrival-order tie
        # with "other"), tagging everything visible: "t" is charged twice.
        # The sibling CC group rides along with the anchor as a plan rider
        # instead of consuming its own drain; its charge must be refunded.
        def build(anchor, pending):
            rider_keys = [key for key in pending if key[:2] == ("g", "cc")]
            return (anchor, [list(pending[key]) for key in rider_keys]), rider_keys

        anchor, riders = queue.pop_plan(build)
        assert anchor[0].job_id == "t1"
        assert [group[0].job_id for group in riders] == ["t2"]
        assert policy._tenant_tail["t"] == pytest.approx(
            policy._tenant_tail["other"]
        )
        assert queue.pop_batch() == [other]
        # Completion releases the dedup entries, as the worker path would.
        for job in (*anchor, *riders[0], other):
            queue.release(job)
        # Fresh round: with the refund both tenants are level again, so "t"
        # wins its arrival-order tie; without it "t" would sort last.
        late_t = push_cc("t3", "merged_aligned", "t")
        late_other = make_job("o2", 5, tenant="other")
        queue.push_or_join(late_other)
        assert queue.pop_batch() == [late_t]

    def test_late_submit_cannot_grow_a_packed_word(self):
        """The plan is built and its riders popped in one critical section:
        a submit that arrives while the planner runs waits for the lock and
        lands in a fresh group, so a word packed to the brim stays at
        ``MAX_LANES`` lanes."""
        queue = RequestQueue()
        anchor_job = make_job("anchor", 0)
        queue.push_or_join(anchor_job)
        for source in range(1, MAX_LANES):
            queue.push_or_join(make_job(f"r{source}", source, strategy="uvm"))
        late = make_job("late", MAX_LANES, strategy="uvm")
        submitter = threading.Thread(target=queue.push_or_join, args=(late,))

        def build(anchor, pending):
            planned = FusionPlanner().build(anchor, pending)
            submitter.start()
            submitter.join(0.2)
            return planned

        plan = queue.pop_plan(build)
        assert plan.kind == "packed"
        assert plan.jobs[0] is anchor_job
        assert plan.lanes == MAX_LANES
        assert late not in plan.jobs
        # The submitter ran once the lock was released: the late job waits
        # in its own group, and the next pop drains it.
        submitter.join(10)
        assert queue.pending_count() == 1
        following = queue.pop_plan(FusionPlanner().build)
        assert following.jobs == [late]
        assert queue.pop_plan(FusionPlanner().build) is None

    def test_expire_is_atomic_with_dedup_retirement(self):
        queue = RequestQueue()
        lapsed = make_job("a", 0, deadline=0.001)
        queue.push_or_join(lapsed)
        queue.pop_batch()
        time.sleep(0.005)
        now = time.perf_counter()
        assert queue.expire(lapsed, now) is True
        # the dedup entry is gone: an identical request re-executes on its own
        outcome, _ = queue.push_or_join(make_job("b", 0))
        assert outcome == "queued"
        # a job rescued by a deadline-free joiner is never expired
        rescued = make_job("c", 5, deadline=0.001)
        queue.push_or_join(rescued)
        queue.push_or_join(make_job("d", 5))  # joins, clears expire_at
        queue.pop_batch()
        time.sleep(0.005)
        assert queue.expire(rescued, time.perf_counter()) is False
        assert queue.find_inflight(rescued.request.cache_key) is rescued

    def test_infeasible_deadline_rejected_at_push(self):
        model = CostModel(edge_lookup={"g": 1_000}.get)
        key = TraversalRequest(Application.BFS, "g", source=0).batch_key
        model.observe([(key, 1)], 0.5)  # a BFS word over g costs ~500ms
        queue = RequestQueue(cost_model=model)
        for i in range(3):
            queue.push_or_join(make_job(f"b{i}", i))
        # ~0.5s of backlog (one word) + ~0.5s of its own execution cannot
        # fit in 0.2s
        with pytest.raises(InfeasibleDeadlineError) as excinfo:
            queue.push_or_join(
                make_job("doomed", 9, deadline=0.2, tenant="acme"),
                reject_infeasible=True,
            )
        assert excinfo.value.tenant == "acme"
        assert isinstance(excinfo.value, AdmissionError)  # one except clause
        # a feasible budget is admitted, and more workers shrink the wait
        outcome, _ = queue.push_or_join(
            make_job("ok", 10, deadline=30.0), reject_infeasible=True
        )
        assert outcome == "queued"

    def test_infeasibility_check_is_opt_in_and_spares_joiners(self):
        model = CostModel(edge_lookup={"g": 1_000}.get)
        key = TraversalRequest(Application.BFS, "g", source=0).batch_key
        model.observe([(key, 1)], 0.5)
        queue = RequestQueue(cost_model=model)
        first = make_job("a", 0)
        queue.push_or_join(first)
        # without the flag, a hopeless deadline is admitted (and would later
        # expire in the queue — the pre-admission behaviour)
        outcome, _ = queue.push_or_join(
            make_job("hopeless", 5, deadline=1e-6)
        )
        assert outcome == "queued"
        # duplicates join the in-flight job and bypass admission entirely,
        # however hopeless their own budget is
        outcome, payload = queue.push_or_join(
            make_job("dup", 0, deadline=1e-6), reject_infeasible=True
        )
        assert outcome == "joined" and payload is first

    def test_tenant_accounting_survives_pop_and_discard(self):
        queue = RequestQueue()
        jobs = [make_job(f"j{i}", i, tenant="acme") for i in range(3)]
        for job in jobs:
            queue.push_or_join(job)
        assert queue.discard(jobs[0])
        assert queue.pending_by_tenant() == {"acme": 2}
        queue.pop_batch()
        assert queue.pending_by_tenant() == {}
        assert queue.pending_count() == 0


# --------------------------------------------------------------------- #
# Service-level scheduling, admission, deadlines
# --------------------------------------------------------------------- #
class TestServiceScheduling:
    def submit_contrast_workload(self, service, engine, graph_a, graph_b):
        """Blocker + an early relaxed group + a late deadline group."""
        blocker = service.submit(TraversalRequest("cc", graph_a.name))
        deadline = time.monotonic() + 5
        while not engine.calls and time.monotonic() < deadline:
            time.sleep(0.005)
        assert engine.calls, "worker never picked up the blocker"
        relaxed = [
            service.submit(TraversalRequest("bfs", graph_a.name, source=s))
            for s in (1, 2)
        ]
        urgent = [
            service.submit(
                TraversalRequest("sssp", graph_b.name, source=s, deadline=60.0)
            )
            for s in (1, 2)
        ]
        return blocker, relaxed, urgent

    @pytest.mark.parametrize(
        "policy,urgent_first", [("fifo", False), ("edf", True)]
    )
    def test_drain_order_contrast(
        self, registry, random_graph, uniform_graph, policy, urgent_first
    ):
        engine = GatedCountingEngine(gated=True)
        with make_service(
            registry, engine=engine, max_workers=1, policy=policy
        ) as service:
            blocker, relaxed, urgent = self.submit_contrast_workload(
                service, engine, random_graph, uniform_graph
            )
            engine.gate.set()
            assert service.wait_all(timeout=30)
            for job in (blocker, *relaxed, *urgent):
                assert job.status is JobStatus.DONE
        relaxed_pos = engine.calls.index(relaxed[0].request.cache_key)
        urgent_pos = engine.calls.index(urgent[0].request.cache_key)
        assert (urgent_pos < relaxed_pos) == urgent_first

    def test_expired_job_fails_before_execution(self, registry, random_graph):
        engine = GatedCountingEngine(gated=True)
        with make_service(
            registry, engine=engine, max_workers=1, policy="edf"
        ) as service:
            blocker = service.submit(TraversalRequest("cc", random_graph.name))
            deadline = time.monotonic() + 5
            while not engine.calls and time.monotonic() < deadline:
                time.sleep(0.005)
            doomed = service.submit(
                TraversalRequest("bfs", random_graph.name, source=1, deadline=0.01)
            )
            time.sleep(0.05)  # let the deadline lapse while queued
            engine.gate.set()
            assert service.wait_all(timeout=30)
            assert blocker.status is JobStatus.DONE
            assert doomed.status is JobStatus.FAILED
            assert isinstance(doomed.error, DeadlineExceededError)
            with pytest.raises(JobFailedError):
                service.result(doomed, timeout=1)
        stats = service.stats()
        assert stats.expired == 1
        assert stats.deadlines_missed == 1
        assert stats.deadlines_met == 0
        # the expired job never reached the engine
        assert len(engine.calls) == 1

    def test_deadline_free_duplicate_is_not_failed_by_expiry(
        self, registry, random_graph
    ):
        """Regression: a no-deadline duplicate joined onto a deadline job
        used to inherit the deadline's fate — expiry killed the shared job
        and failed a waiter that never asked for a deadline."""
        engine = GatedCountingEngine(gated=True)
        with make_service(
            registry, engine=engine, max_workers=1, policy="edf"
        ) as service:
            blocker = service.submit(TraversalRequest("cc", random_graph.name))
            deadline = time.monotonic() + 5
            while not engine.calls and time.monotonic() < deadline:
                time.sleep(0.005)
            urgent = service.submit(
                TraversalRequest("bfs", random_graph.name, source=1, deadline=0.01)
            )
            patient = service.submit(
                TraversalRequest("bfs", random_graph.name, source=1)
            )
            assert patient is urgent  # deduplicated onto the same job
            time.sleep(0.05)  # the urgent waiter's budget lapses in queue
            engine.gate.set()
            assert service.wait_all(timeout=30)
            # the shared job executed for the patient waiter's sake
            assert urgent.status is JobStatus.DONE
            assert blocker.status is JobStatus.DONE
        stats = service.stats()
        assert stats.expired == 0
        # the urgent waiter's deadline was still missed — and counted
        assert stats.deadlines_missed == 1

    def test_mixed_budget_waiters_judged_individually(
        self, registry, random_graph
    ):
        """A dedup-shared job with a tight and a patient budget counts one
        miss and one met — not a single verdict from the tightest deadline."""
        engine = GatedCountingEngine(gated=True)
        with make_service(
            registry, engine=engine, max_workers=1, policy="edf"
        ) as service:
            blocker = service.submit(TraversalRequest("cc", random_graph.name))
            deadline = time.monotonic() + 5
            while not engine.calls and time.monotonic() < deadline:
                time.sleep(0.005)
            tight = service.submit(
                TraversalRequest("bfs", random_graph.name, source=1, deadline=0.01)
            )
            patient = service.submit(
                TraversalRequest("bfs", random_graph.name, source=1, deadline=60.0)
            )
            assert patient is tight  # shared job, two deadline waiters
            time.sleep(0.05)  # the tight budget lapses, the patient one holds
            engine.gate.set()
            assert service.wait_all(timeout=30)
            assert blocker.status is JobStatus.DONE
            # the job still expires only past the *latest* waiter deadline,
            # so it ran and completed for the patient waiter
            assert tight.status is JobStatus.DONE
        stats = service.stats()
        assert stats.expired == 0
        assert stats.deadlines_met == 1
        assert stats.deadlines_missed == 1

    def test_met_deadline_counted(self, registry, random_graph):
        with make_service(registry, policy="edf") as service:
            job = service.submit(
                TraversalRequest("bfs", random_graph.name, source=0, deadline=30.0)
            )
            service.result(job, timeout=30)
            assert job.met_deadline is True
            service.close()  # flush worker-side accounting before reading stats
        stats = service.stats()
        assert stats.deadlines_met == 1
        assert stats.deadlines_missed == 0

    def test_full_queue_submit_raises_admission_error(self, registry, random_graph):
        engine = GatedCountingEngine(gated=True)
        service = make_service(
            registry, engine=engine, max_workers=1, queue_limit=2
        )
        try:
            blocker = service.submit(TraversalRequest("cc", random_graph.name))
            deadline = time.monotonic() + 5
            while not engine.calls and time.monotonic() < deadline:
                time.sleep(0.005)
            queued = [
                service.submit(TraversalRequest("bfs", random_graph.name, source=s))
                for s in (1, 2)
            ]
            with pytest.raises(AdmissionError):
                service.submit(TraversalRequest("bfs", random_graph.name, source=3))
            # duplicates of queued work are still admitted (they join)
            dup = service.submit(TraversalRequest("bfs", random_graph.name, source=1))
            assert dup is queued[0]
            assert service.stats().rejected == 1
        finally:
            engine.gate.set()
            service.close()
        assert blocker.status is JobStatus.DONE

    def test_tenant_quota_enforced_by_service(self, registry, random_graph):
        engine = GatedCountingEngine(gated=True)
        service = make_service(
            registry, engine=engine, max_workers=1, tenant_quota=1
        )
        try:
            service.submit(TraversalRequest("cc", random_graph.name, tenant="bulk"))
            deadline = time.monotonic() + 5
            while not engine.calls and time.monotonic() < deadline:
                time.sleep(0.005)
            service.submit(
                TraversalRequest("bfs", random_graph.name, source=1, tenant="acme")
            )
            with pytest.raises(AdmissionError):
                service.submit(
                    TraversalRequest("bfs", random_graph.name, source=2, tenant="acme")
                )
            # a different tenant still gets in
            service.submit(
                TraversalRequest("bfs", random_graph.name, source=3, tenant="globex"
                )
            )
        finally:
            engine.gate.set()
            service.close()

    def test_wfq_polite_tenant_jumps_aggressive_burst(
        self, registry, random_graph, uniform_graph
    ):
        """Two-tenant skewed burst: WFQ serves the polite tenant's group
        ahead of the aggressive backlog that arrived first."""
        engine = GatedCountingEngine(gated=True)
        with make_service(
            registry,
            engine=engine,
            max_workers=1,
            policy="wfq",
            tenant_weights={"polite": 4.0, "aggressive": 1.0},
        ) as service:
            blocker = service.submit(
                TraversalRequest("cc", random_graph.name, tenant="aggressive")
            )
            deadline = time.monotonic() + 5
            while not engine.calls and time.monotonic() < deadline:
                time.sleep(0.005)
            assert engine.calls, "worker never picked up the blocker"
            # the aggressive burst: three distinct batch groups, six jobs
            aggressive = [
                service.submit(
                    TraversalRequest(
                        app, random_graph.name, source=s,
                        strategy=strategy, tenant="aggressive",
                    )
                )
                for app, strategy in (
                    ("bfs", "merged_aligned"),
                    ("bfs", "uvm"),
                    ("sssp", "merged_aligned"),
                )
                for s in (1, 2)
            ]
            polite = service.submit(
                TraversalRequest(
                    "bfs", uniform_graph.name, source=0, tenant="polite"
                )
            )
            engine.gate.set()
            assert service.wait_all(timeout=30)
        order = [engine.calls.index(job.request.cache_key) for job in aggressive]
        polite_pos = engine.calls.index(polite.request.cache_key)
        # the polite group drains before every aggressive burst group
        assert polite_pos < min(order)
        stats = service.stats()
        assert stats.tenants["polite"].completed == 1
        assert stats.tenants["aggressive"].completed == 1 + len(aggressive)
        assert stats.tenants["polite"].missed == 0

    def test_infeasible_deadline_rejected_at_submit_not_expired(
        self, registry, random_graph
    ):
        engine = GatedCountingEngine(gated=True)
        service = make_service(
            registry, engine=engine, max_workers=1, reject_infeasible=True
        )
        try:
            blocker = service.submit(TraversalRequest("cc", random_graph.name))
            deadline = time.monotonic() + 5
            while not engine.calls and time.monotonic() < deadline:
                time.sleep(0.005)
            backlog = [
                service.submit(TraversalRequest("bfs", random_graph.name, source=s))
                for s in (1, 2, 3, 4)
            ]
            with pytest.raises(InfeasibleDeadlineError):
                service.submit(
                    TraversalRequest(
                        "bfs", random_graph.name, source=9, deadline=1e-4
                    )
                )
            engine.gate.set()
            assert service.wait_all(timeout=30)
            for job in (blocker, *backlog):
                assert job.status is JobStatus.DONE
        finally:
            engine.gate.set()
            service.close()
        stats = service.stats()
        # rejected at the front door, never enqueued: no expiry, no failure
        assert stats.rejected == 1
        assert stats.rejected_infeasible == 1
        assert stats.expired == 0
        assert stats.failed == 0
        assert "(1 infeasible)" in stats.describe()

    def test_queue_expiry_accounting_distinct_from_infeasible(
        self, registry, random_graph
    ):
        """The same hopeless deadline: without admission control it is
        admitted, expires in the queue, and lands in `expired` — not in
        `rejected_infeasible`."""
        engine = GatedCountingEngine(gated=True)
        service = make_service(registry, engine=engine, max_workers=1)
        try:
            blocker = service.submit(TraversalRequest("cc", random_graph.name))
            deadline = time.monotonic() + 5
            while not engine.calls and time.monotonic() < deadline:
                time.sleep(0.005)
            doomed = service.submit(
                TraversalRequest("bfs", random_graph.name, source=9, deadline=0.01)
            )
            time.sleep(0.05)
            engine.gate.set()
            assert service.wait_all(timeout=30)
            assert doomed.status is JobStatus.FAILED
            assert isinstance(doomed.error, DeadlineExceededError)
        finally:
            engine.gate.set()
            service.close()
        stats = service.stats()
        assert stats.expired == 1
        assert stats.rejected_infeasible == 0
        assert stats.rejected == 0
        assert stats.tenants[None].missed == 1

    def test_cost_model_converges_to_observed_engine_seconds(
        self, registry, random_graph
    ):
        with make_service(registry, max_workers=1) as service:
            jobs = []
            for s in range(6):
                # submit-and-wait one at a time: each job drains as its own
                # singleton group, giving six distinct observations
                job = service.submit(
                    TraversalRequest("bfs", random_graph.name, source=s)
                )
                service.result(job, timeout=30)
                jobs.append(job)
            service.close()
        stats = service.stats()
        model = service.cost_model
        assert stats.cost_model.applications == 1
        assert stats.cost_model.samples == 6
        # the EWMA estimate tracks what the engine actually costs: within a
        # small factor of the observed mean seconds per execution
        observed = stats.engine_seconds / stats.executions
        estimate = model.estimate_group(jobs[0].request.batch_key, 1)
        assert observed / 3 <= estimate <= observed * 3
        assert "cost model:" in stats.describe()

    def test_latency_percentiles_in_stats(self, registry, random_graph):
        with make_service(registry) as service:
            for source in range(4):
                service.result(
                    service.submit(
                        TraversalRequest("bfs", random_graph.name, source=source)
                    ),
                    timeout=30,
                )
            service.close()
        stats = service.stats()
        assert stats.latency.count == 4
        assert stats.latency.p95_seconds >= stats.latency.p50_seconds >= 0
        assert stats.queue_wait.count == 4
        assert stats.policy == "fifo"
        description = stats.describe()
        assert "scheduling: policy=fifo" in description
        assert "latency p50/p95/p99" in description

    def test_fifo_results_identical_to_edf(self, registry, random_graph):
        """Policies change order, never answers."""
        outcomes = {}
        for policy in ("fifo", "edf", "wfq"):
            with make_service(registry, max_workers=1, policy=policy) as service:
                jobs = [
                    service.submit(
                        TraversalRequest("bfs", random_graph.name, source=s)
                    )
                    for s in range(4)
                ]
                outcomes[policy] = [
                    service.result(job, timeout=30).values.tolist() for job in jobs
                ]
        assert outcomes["fifo"] == outcomes["edf"] == outcomes["wfq"]


class TestLatencyStats:
    def test_from_samples_empty(self):
        stats = LatencyStats.from_samples(())
        assert stats.count == 0 and stats.p95_seconds == 0.0

    def test_from_samples_percentiles(self):
        stats = LatencyStats.from_samples([0.1 * i for i in range(1, 101)])
        assert stats.count == 100
        assert stats.p50_seconds == pytest.approx(5.0, abs=0.2)
        assert stats.p95_seconds == pytest.approx(9.5, abs=0.2)
        assert stats.max_seconds == pytest.approx(10.0)
        assert "ms" in stats.describe_ms()

    def test_single_sample_is_every_percentile(self):
        stats = LatencyStats.from_samples([3.0])
        assert stats.p50_seconds == 3.0
        assert stats.p95_seconds == 3.0
        assert stats.p99_seconds == 3.0
        assert stats.max_seconds == 3.0

    def test_even_window_p50_rounds_up_not_down(self):
        """Regression: banker's rounding on `round(0.5)` returned the *lower*
        sample for even windows — p50 of two samples was the minimum."""
        stats = LatencyStats.from_samples([1.0, 9.0])
        assert stats.p50_seconds == 9.0
        assert stats.p95_seconds == 9.0

    def test_twenty_sample_window_percentiles(self):
        stats = LatencyStats.from_samples([float(i) for i in range(1, 21)])
        # ceil-based nearest rank over the 19 gaps: p50 -> index 10 (the
        # upper median), p95/p99 -> index 19 (the maximum)
        assert stats.p50_seconds == 11.0
        assert stats.p95_seconds == 20.0
        assert stats.p99_seconds == 20.0
        assert stats.max_seconds == 20.0

    def test_percentiles_are_monotone_in_fraction(self):
        for n in (1, 2, 3, 4, 5, 20):
            stats = LatencyStats.from_samples([float(i) for i in range(n)])
            assert (
                stats.p50_seconds
                <= stats.p95_seconds
                <= stats.p99_seconds
                <= stats.max_seconds
            )


# --------------------------------------------------------------------- #
# Workload / config plumbing
# --------------------------------------------------------------------- #
class TestWorkloadPlumbing:
    def test_config_from_spec_reads_scheduling_keys(self):
        spec = {
            "graphs": [{"name": "g", "generator": "rmat"}],
            "requests": [{"app": "bfs", "graph": "g"}],
            "policy": "edf",
            "queue_limit": 7,
            "tenant_quota": 3,
        }
        config = config_from_spec(spec)
        assert config.policy == "edf"
        assert config.queue_limit == 7
        assert config.tenant_quota == 3
        override = config_from_spec(spec, policy="wfq", queue_limit=9)
        assert override.policy == "wfq" and override.queue_limit == 9

    def test_config_from_spec_reads_wfq_keys(self):
        spec = {
            "graphs": [{"name": "g", "generator": "rmat"}],
            "requests": [{"app": "bfs", "graph": "g"}],
            "policy": "wfq",
            "tenant_weights": {"interactive": 4, "bulk": 1},
            "reject_infeasible": True,
        }
        config = config_from_spec(spec)
        assert config.policy == "wfq"
        assert config.tenant_weights == (("bulk", 1.0), ("interactive", 4.0))
        assert config.reject_infeasible is True
        # CLI-style overrides beat the file
        override = config_from_spec(
            spec, tenant_weights={"interactive": 2}, reject_infeasible=False
        )
        assert override.tenant_weights == (("interactive", 2.0),)
        assert override.reject_infeasible is False
        # defaults when the file says nothing
        bare = config_from_spec(
            {"graphs": [{"name": "g"}], "requests": [{"app": "bfs", "graph": "g"}]}
        )
        assert bare.tenant_weights is None
        assert bare.reject_infeasible is False

    def test_config_from_spec_knob_table(self):
        import dataclasses

        from repro.service.workload import _FORWARDED_KNOBS

        spec = {"graphs": [{"name": "g"}], "requests": [{"app": "bfs", "graph": "g"}]}
        # Every forwarded knob is a ServiceConfig field of the same name ...
        fields = {field.name for field in dataclasses.fields(ServiceConfig)}
        assert set(_FORWARDED_KNOBS) <= fields
        # ... only what was given is forwarded (JSON null = not given) ...
        assert config_from_spec({**spec, "retry_limit": None, "workers": None}) == (
            ServiceConfig()
        )
        given = config_from_spec({**spec, "retry_limit": "3"}, sweep_timeout=2)
        assert (given.retry_limit, given.sweep_timeout) == (3, 2.0)
        # ... and an override that is not a knob is refused, not dropped.
        with pytest.raises(TypeError, match="bogus"):
            config_from_spec(spec, bogus=1)

    @staticmethod
    def write_spec(tmp_path, spec: dict) -> Path:
        path = tmp_path / "workload.json"
        path.write_text(json.dumps(spec))
        return path

    @pytest.mark.parametrize(
        "edit, where, unknown",
        [
            (lambda spec: spec.update(quue_limit=3), "workload", "'quue_limit'"),
            (lambda spec: spec.update(planner=False), "workload", "'planner'"),
            (lambda spec: spec.update(breaker_threshold=3), "workload", "'breaker_threshold'"),
            (lambda spec: spec["graphs"][0].update(vertex=9), "graphs[0]", "'vertex'"),
            (lambda spec: spec["requests"][1].update(sorce=5), "requests[1]", "'sorce'"),
            (lambda spec: spec.update(zeta=1, alpha=2), "workload", "'alpha', 'zeta'"),
        ],
    )
    def test_load_workload_refuses_unknown_keys(self, tmp_path, edit, where, unknown):
        spec = json.loads(EXAMPLE_WORKLOAD.read_text())
        edit(spec)
        with pytest.raises(ServiceError) as caught:
            load_workload(self.write_spec(tmp_path, spec))
        message = str(caught.value)
        assert message.startswith(f"{where}: unknown key(s) {unknown};")
        # The error lists what the level accepts, so the fix is in the message.
        assert "; accepted: " in message

    def test_load_workload_refuses_non_object_entries(self, tmp_path):
        spec = json.loads(EXAMPLE_WORKLOAD.read_text())
        spec["requests"].append("bfs")
        with pytest.raises(ServiceError, match=r"requests\[10\] must be a JSON object"):
            load_workload(self.write_spec(tmp_path, spec))

    @pytest.mark.parametrize("flag", ["false", 0])
    def test_reject_infeasible_must_be_a_json_boolean(self, tmp_path, flag):
        spec = json.loads(EXAMPLE_WORKLOAD.read_text())
        spec["reject_infeasible"] = flag
        with pytest.raises(ServiceError, match="reject_infeasible must be true or false"):
            serve_workload_file(self.write_spec(tmp_path, spec))

    def test_expand_requests_carries_deadline_and_tenant(self, random_graph):
        registry = GraphRegistry()
        registry.register_graph(random_graph)
        with make_service(registry) as service:
            spec = {
                "graphs": [],
                "requests": [
                    {
                        "app": "bfs",
                        "graph": random_graph.name,
                        "sources": [0, 1],
                        "deadline": 2.5,
                        "tenant": "acme",
                    }
                ],
            }
            requests = expand_requests(service, spec)
        assert len(requests) == 2
        assert all(r.deadline == 2.5 and r.tenant == "acme" for r in requests)
