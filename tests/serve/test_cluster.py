"""Sharded replay: routing, admission policy, merged telemetry.

The live multi-process counterpart is pinned in
``test_cluster_service.py``; everything here is pure and virtual-clock,
so it sweeps widely (hypothesis over traces and shard counts) at unit
cost.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.serve import (
    AdmissionController,
    ClusterConfig,
    RequestRejected,
    ServeConfig,
    ServeRequest,
    ShardRouter,
    TelemetrySink,
    cluster_replay,
    replay,
)
from repro.serve.loadgen import LoadGenerator

from serve_workloads import make_serve_tasks

MODELED = ServeConfig(timing="modeled", max_batch_size=8, max_wait_ms=2.0, refill="drain")


@pytest.fixture(scope="module")
def tasks():
    return make_serve_tasks(seed=5, count=24)


@pytest.fixture(scope="module")
def trace(tasks):
    return LoadGenerator(tasks, name="tiny-serve", seed=3).poisson(2000.0, 40)


@pytest.fixture(scope="module")
def direct(trace):
    return list(Session(tasks=list(trace.tasks)).align())


class TestShardRouter:
    def test_route_is_deterministic_and_in_range(self, tasks):
        router = ShardRouter(shards=4)
        for index, task in enumerate(tasks):
            shard = router.route(task, index)
            assert 0 <= shard < 4
            assert shard == router.route(task, index)  # pure

    def test_hash_routing_ignores_task(self, tasks):
        """Hash placement is a function of the request id alone."""
        router = ShardRouter(shards=4, policy="hash")
        assert router.route(tasks[0], 7) == router.route(tasks[1], 7)

    def test_length_routing_groups_similar_lengths(self):
        short = make_serve_tasks(seed=1, count=4, min_len=40, max_len=60)
        long = make_serve_tasks(seed=2, count=4, min_len=1500, max_len=1600)
        router = ShardRouter(shards=8, policy="length", length_stride=4000)
        # Whole groups land together: every short task in one bucket...
        assert len({router.route(t, i) for i, t in enumerate(short)}) == 1
        # ...and the stride separates the groups themselves.
        fine = ShardRouter(shards=8, policy="length", length_stride=512)
        assert fine.route(short[0], 0) != fine.route(long[0], 0)

    def test_partition_covers_every_index_once(self, tasks):
        router = ShardRouter(shards=3, policy="length")
        partitions = router.partition(tasks)
        flat = sorted(i for part in partitions for i in part)
        assert flat == list(range(len(tasks)))
        for part in partitions:
            assert part == sorted(part)  # submission order preserved

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRouter(shards=0)
        with pytest.raises(ValueError):
            ShardRouter(shards=2, policy="round-robin")
        with pytest.raises(ValueError):
            ShardRouter(shards=2, length_stride=0)


class TestClusterConfig:
    def test_defaults_and_policy_name(self):
        config = ClusterConfig(shards=4)
        assert config.policy_name == "shards4"
        assert config.router_for() == ShardRouter(shards=4)
        assert config.admission_controller().policy == "queue"

    def test_replace_revalidates(self):
        config = ClusterConfig(shards=2)
        assert config.replace(shards=8).shards == 8
        with pytest.raises(ValueError):
            config.replace(shards=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(shards=0),
            dict(router="nope"),
            dict(admission="drop"),
            dict(max_pending=0),
            dict(max_inflight=0),
            dict(max_restarts=-1),
            dict(start_method="thread"),
            dict(class_limits={0: 0}),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)


class TestClusterReplay:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    @pytest.mark.parametrize("router", ["hash", "length"])
    def test_bit_identical_to_session_align(self, trace, direct, shards, router):
        config = ClusterConfig(serve=MODELED, shards=shards, router=router)
        report = cluster_replay(trace, config)
        assert report.results() == direct
        assert report.num_requests == len(trace)

    def test_replay_is_deterministic(self, trace):
        config = ClusterConfig(serve=MODELED, shards=4)
        a = cluster_replay(trace, config)
        b = cluster_replay(trace, config)
        assert a.makespan_ms == b.makespan_ms
        assert a.telemetry == b.telemetry
        assert a.scores() == b.scores()

    def test_makespan_is_slowest_shard(self, trace):
        report = cluster_replay(trace, ClusterConfig(serve=MODELED, shards=3))
        assert report.makespan_ms == max(
            shard.makespan_ms for shard in report.shard_reports
        )
        assert report.throughput_rps == pytest.approx(
            report.num_requests / report.makespan_ms * 1000.0
        )

    def test_merged_telemetry_schema(self, trace):
        report = cluster_replay(trace, ClusterConfig(serve=MODELED, shards=4))
        telemetry = report.telemetry
        assert telemetry["requests"] == len(trace)
        assert telemetry["admission"]["admitted"] == len(trace)
        shards = telemetry["shards"]
        assert sorted(shards) == ["0", "1", "2", "3"]
        assert sum(s["requests"] for s in shards.values()) == len(trace)
        # Merged percentiles come from the pooled samples: the merged max
        # must be attained by some shard (an average never guarantees it).
        assert telemetry["latency_ms"]["max_ms"] == max(
            s["latency_ms"]["max_ms"] for s in shards.values() if s["requests"]
        )

    def test_global_request_order_and_ids(self, trace):
        report = cluster_replay(trace, ClusterConfig(serve=MODELED, shards=3))
        assert [r.request_id for r in report.requests] == list(range(len(trace)))
        for index, request in enumerate(report.requests):
            assert request.task is trace.tasks[index]

    def test_report_duck_types_for_records(self, trace):
        from repro.serve import serve_bench_record

        cluster = cluster_replay(trace, ClusterConfig(serve=MODELED, shards=2))
        single = replay(trace, MODELED, policy="microbatch")
        record = serve_bench_record([cluster, single], baseline="microbatch")
        assert set(record.suites["serve"].speedups) == {"shards2", "microbatch"}

    @given(
        n_requests=st.integers(min_value=1, max_value=24),
        shards=st.integers(min_value=1, max_value=5),
        router=st.sampled_from(["hash", "length"]),
        rate=st.floats(min_value=200.0, max_value=50_000.0),
        seed=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_identity_swept(self, tasks, n_requests, shards, router, rate, seed):
        """The acceptance sweep: arbitrary traces x shard counts never
        change a single result relative to the offline engine."""
        generator = LoadGenerator(tasks, name="sweep", seed=seed)
        trace = generator.poisson(rate, n_requests, seed=seed)
        config = ClusterConfig(serve=MODELED, shards=shards, router=router)
        report = cluster_replay(trace, config)
        direct = list(Session(tasks=list(trace.tasks)).align())
        assert report.results() == direct


def _request(priority=0, request_id=0, arrival_ms=0.0):
    task = make_serve_tasks(count=1)[0]
    return ServeRequest(
        task=task, request_id=request_id, arrival_ms=arrival_ms, priority=priority
    )


class TestAdmissionController:
    def test_unbounded_always_accepts(self):
        controller = AdmissionController()
        assert not controller.bounded
        queued = tuple(_request(request_id=i) for i in range(100))
        assert controller.decide(_request(), queued).action == "accept"

    def test_queue_policy_waits_at_limit(self):
        controller = AdmissionController(max_pending=2, policy="queue")
        queued = (_request(request_id=0),)
        inflight = (_request(request_id=1),)
        assert controller.decide(_request(), queued, inflight).action == "wait"
        assert controller.decide(_request(), queued).action == "accept"

    def test_reject_policy_raises_side(self):
        controller = AdmissionController(max_pending=1, policy="reject")
        decision = controller.decide(_request(), (_request(request_id=0),))
        assert decision.action == "reject"
        assert not decision.admitted

    def test_shed_evicts_youngest_lowest_priority(self):
        controller = AdmissionController(max_pending=2, policy="shed")
        old_low = _request(priority=0, request_id=0, arrival_ms=0.0)
        young_low = _request(priority=0, request_id=1, arrival_ms=1.0)
        decision = controller.decide(_request(priority=1), (old_low, young_low))
        assert decision.action == "shed"
        assert decision.victims == (young_low,)
        assert decision.admitted

    def test_shed_never_evicts_equal_or_higher_priority(self):
        controller = AdmissionController(max_pending=1, policy="shed")
        peer = _request(priority=1, request_id=0)
        assert controller.decide(_request(priority=1), (peer,)).action == "reject"
        assert controller.decide(_request(priority=0), (peer,)).action == "reject"

    def test_class_limits_always_reject_when_full(self):
        controller = AdmissionController(policy="queue", class_limits={0: 1})
        queued = (_request(priority=0, request_id=0),)
        assert controller.decide(_request(priority=0), queued).action == "reject"
        # Other classes are untouched by the class-0 limit.
        assert controller.decide(_request(priority=1), queued).action == "accept"

    def test_shed_with_one_priority_class_always_rejects(self):
        """A single-class workload has no strictly-lower victim: the shed
        policy must degrade to reject, never evict a peer to admit a peer."""
        controller = AdmissionController(max_pending=3, policy="shed")
        queued = tuple(
            _request(priority=0, request_id=i, arrival_ms=float(i)) for i in range(3)
        )
        decision = controller.decide(_request(priority=0, request_id=9), queued)
        assert decision.action == "reject"
        assert decision.victims == ()
        assert not decision.admitted

    def test_shed_tie_break_is_the_youngest_queue_position(self):
        """Victims tied on priority *and* arrival time break toward the
        later queue position -- the request that has waited least."""
        controller = AdmissionController(max_pending=2, policy="shed")
        first = _request(priority=0, request_id=0, arrival_ms=4.0)
        second = _request(priority=0, request_id=1, arrival_ms=4.0)
        decision = controller.decide(_request(priority=2), (first, second))
        assert decision.action == "shed"
        assert decision.victims == (second,)

    def test_class_limits_count_inflight_against_the_budget(self):
        """In-flight work of a class fills its budget even though it can
        never be shed -- otherwise a class could exceed its limit by
        exactly the dispatch window."""
        controller = AdmissionController(class_limits={1: 2})
        queued = (_request(priority=1, request_id=0),)
        inflight = (_request(priority=1, request_id=1),)
        assert (
            controller.decide(_request(priority=1), queued, inflight).action
            == "reject"
        )
        assert controller.decide(_request(priority=1), queued).action == "accept"

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(policy="drop")
        with pytest.raises(ValueError):
            AdmissionController(max_pending=0)
        with pytest.raises(ValueError):
            AdmissionController(class_limits={1: 0})

    @given(
        priorities=st.lists(st.integers(min_value=0, max_value=3), max_size=8),
        arrival_priority=st.integers(min_value=0, max_value=3),
        max_pending=st.integers(min_value=1, max_value=8),
        policy=st.sampled_from(["queue", "reject", "shed"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_decision_invariants(self, priorities, arrival_priority, max_pending, policy):
        controller = AdmissionController(max_pending=max_pending, policy=policy)
        queued = tuple(
            _request(priority=p, request_id=i, arrival_ms=float(i))
            for i, p in enumerate(priorities)
        )
        arrival = _request(priority=arrival_priority, request_id=99)
        decision = controller.decide(arrival, queued)
        if len(queued) < max_pending:
            assert decision.action == "accept"
            return
        assert decision.action != "accept"
        if policy == "queue":
            assert decision.action == "wait"
        elif policy == "reject":
            assert decision.action == "reject"
        elif decision.action == "shed":
            (victim,) = decision.victims
            assert victim in queued
            assert victim.priority < arrival.priority
            # The victim is the youngest of the lowest-priority class.
            lowest = min(r.priority for r in queued)
            assert victim.priority == lowest
            assert victim.arrival_ms == max(
                r.arrival_ms for r in queued if r.priority == lowest
            )
        else:  # shed with no strictly-lower victim degrades to reject
            assert decision.action == "reject"
            assert all(r.priority >= arrival.priority for r in queued)


class TestTelemetryMerge:
    def test_state_round_trip(self):
        sink = TelemetrySink()
        sink.record_request(0.5, 2.5)
        sink.record_batch(3)
        sink.record_queue_depth(4)
        sink.record_refill(2)
        sink.record_admission("admitted")
        clone = TelemetrySink.from_state(sink.state())
        assert clone.summary() == sink.summary()

    def test_merge_pools_raw_samples(self):
        left, right = TelemetrySink(), TelemetrySink()
        for value in (1.0, 2.0, 3.0):
            left.record_request(0.1, value)
        for value in (10.0, 20.0):
            right.record_request(0.2, value)
        merged = left.merge(right)
        assert merged is left
        summary = merged.summary()
        assert summary["requests"] == 5
        # Exact pooled percentiles -- not an average of per-sink values.
        assert summary["latency_ms"]["p50_ms"] == 3.0
        assert summary["latency_ms"]["max_ms"] == 20.0

    def test_record_admission_validates(self):
        sink = TelemetrySink()
        with pytest.raises(ValueError):
            sink.record_admission("dropped")
