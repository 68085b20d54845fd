"""Chaos harness: deterministic fault injection across the cluster.

The contract under test is absolute: whatever a :class:`FaultPlan`
throws at a drain -- crashes, stalls, dropped or duplicated dispatches,
alone or stacked on an elastic resize -- :func:`cluster_replay` either
returns results bit-identical to ``Session.align()`` on the same tasks
or raises :class:`ShardFailedError`.  There is no third outcome: no
silent loss, no duplicated delivery, no reordering.  Because the replay
is a pure function of (trace, config, plan), every scenario here is a
repeatable experiment, and hypothesis sweeps the crash/resize timing
instead of relying on wall-clock races.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.serve import (
    ClusterConfig,
    ClusterService,
    CrashFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
    ScalePlan,
    ServeConfig,
    ShardFailedError,
    ShardFaults,
    cluster_replay,
)
from repro.serve.loadgen import LoadGenerator

from serve_workloads import make_serve_tasks

MODELED = ServeConfig(timing="modeled", max_batch_size=8, max_wait_ms=2.0, refill="drain")

ROUTER_POLICIES = ("hash", "length", "stable")

#: One representative plan per fault kind (shard indices valid for >= 2).
FAULT_PLANS = {
    "crash": FaultPlan(crashes=(CrashFault(shard=1, at_ms=3.0),)),
    "delay": FaultPlan(delays=(DelayFault(shard=0, delay_ms=5.0, at_ms=2.0),)),
    "drop": FaultPlan(drops=(DropFault(shard=0, dispatch=1),)),
    "duplicate": FaultPlan(duplicates=(DuplicateFault(shard=1, dispatch=0),)),
    "stacked": FaultPlan(
        crashes=(CrashFault(shard=1, at_ms=6.0),),
        delays=(DelayFault(shard=0, delay_ms=3.0, at_ms=1.0),),
        drops=(DropFault(shard=0, dispatch=2),),
        duplicates=(DuplicateFault(shard=0, dispatch=0),),
    ),
}


@pytest.fixture(scope="module")
def tasks():
    return make_serve_tasks(seed=5, count=24)


@pytest.fixture(scope="module")
def trace(tasks):
    return LoadGenerator(tasks, name="chaos", seed=3).poisson(2000.0, 48)


@pytest.fixture(scope="module")
def direct(trace):
    return list(Session(tasks=list(trace.tasks)).align())


class TestFaultPlanValidation:
    def test_trigger_required(self):
        with pytest.raises(ValueError, match="trigger"):
            CrashFault(shard=0)
        with pytest.raises(ValueError, match="trigger"):
            DelayFault(shard=0, delay_ms=5.0)

    def test_one_crash_per_shard(self):
        with pytest.raises(ValueError, match="one CrashFault"):
            FaultPlan(
                crashes=(CrashFault(shard=0, at_ms=1.0), CrashFault(shard=0, at_ms=2.0))
            )

    def test_drop_duplicate_overlap_rejected(self):
        with pytest.raises(ValueError, match="dropped and duplicated"):
            FaultPlan(
                drops=(DropFault(shard=0, dispatch=1),),
                duplicates=(DuplicateFault(shard=0, dispatch=1),),
            )

    def test_plan_must_fit_the_cluster(self, trace):
        plan = FaultPlan(crashes=(CrashFault(shard=5, at_ms=1.0),))
        with pytest.raises(ValueError, match="shard 5"):
            cluster_replay(
                trace, ClusterConfig(serve=MODELED, shards=2), faults=plan
            )

    def test_replay_crash_needs_virtual_time(self, trace):
        plan = FaultPlan(crashes=(CrashFault(shard=0, after_requests=4),))
        with pytest.raises(ValueError, match="at_ms"):
            cluster_replay(
                trace, ClusterConfig(serve=MODELED, shards=2), faults=plan
            )

    def test_shard_faults_after_keeps_future_stalls_only(self):
        plan = FaultPlan(
            delays=(
                DelayFault(shard=0, delay_ms=1.0, at_ms=2.0),
                DelayFault(shard=0, delay_ms=1.0, at_ms=9.0),
            ),
            drops=(DropFault(shard=0, dispatch=3),),
        )
        view = plan.shard_faults(0)
        survivor = view.after(5.0)
        assert survivor.stalls == ((9.0, 1.0),)
        assert survivor.drops == frozenset()  # stays with the dead worker

    def test_empty_view_is_falsy(self):
        assert not ShardFaults()
        assert FaultPlan().max_shard() == -1


class TestChaosMatrix:
    """policies x retry x fault kinds: bit-identical or ShardFailedError."""

    @pytest.mark.parametrize("policy", ROUTER_POLICIES)
    @pytest.mark.parametrize("retry", (False, True))
    @pytest.mark.parametrize("kind", sorted(FAULT_PLANS))
    def test_never_silent_loss_or_duplication(
        self, trace, direct, policy, retry, kind
    ):
        config = ClusterConfig(
            serve=MODELED, shards=2, router=policy, retry_failed=retry
        )
        try:
            report = cluster_replay(trace, config, faults=FAULT_PLANS[kind])
        except ShardFailedError:
            # Only a crash may surface, and only when retry is off (two
            # shards always leave one survivor for the re-route).
            assert kind in ("crash", "stacked") and not retry
            return
        assert len(report.requests) == len(trace)
        assert [r.score for r in report.results()] == [r.score for r in direct]
        assert report.telemetry["admission"]["admitted"] == len(trace)

    @pytest.mark.parametrize("kind", sorted(FAULT_PLANS))
    def test_fault_counters_account_for_every_injection(self, trace, kind):
        config = ClusterConfig(serve=MODELED, shards=2, retry_failed=True)
        plan = FAULT_PLANS[kind]
        report = cluster_replay(trace, config, faults=plan)
        counters = report.telemetry["faults"]
        assert counters["crashes"] == len(plan.crashes)
        assert counters["delays"] == len(plan.delays)
        assert counters["dropped"] == len(plan.drops)
        assert counters["duplicated"] == len(plan.duplicates)

    def test_crash_strands_are_counted_as_retried(self, trace):
        config = ClusterConfig(serve=MODELED, shards=2, retry_failed=True)
        report = cluster_replay(trace, config, faults=FAULT_PLANS["crash"])
        admission = report.telemetry["admission"]
        assert admission["retried"] > 0
        # A crashed-and-replaced shard reports per segment.
        assert len(report.shard_reports) >= report.shards

    def test_config_faults_field_is_the_default_plan(self, trace, direct):
        config = ClusterConfig(
            serve=MODELED,
            shards=2,
            retry_failed=True,
            faults=FAULT_PLANS["delay"],
        )
        report = cluster_replay(trace, config)
        assert report.telemetry["faults"]["delays"] == 1
        assert [r.score for r in report.results()] == [r.score for r in direct]

    def test_delay_pushes_latency_never_correctness(self, trace, direct):
        config = ClusterConfig(serve=MODELED, shards=2)
        clean = cluster_replay(trace, config)
        slow = cluster_replay(
            trace,
            config,
            faults=FaultPlan(
                delays=(DelayFault(shard=0, delay_ms=50.0, at_ms=0.0),)
            ),
        )
        assert [r.score for r in slow.results()] == [r.score for r in direct]
        assert slow.makespan_ms > clean.makespan_ms

    def test_dispatch_faults_rejected_under_continuous_refill(self, trace):
        streaming = ServeConfig(
            engine="vector", timing="modeled", refill="continuous"
        )
        config = ClusterConfig(serve=streaming, shards=2)
        with pytest.raises(ValueError, match="continuous"):
            cluster_replay(trace, config, faults=FAULT_PLANS["drop"])


class TestElasticChaosSweep:
    """The acceptance sweep: mid-trace 2 -> 4 resize plus a crash."""

    @given(
        resize_ms=st.floats(min_value=0.5, max_value=25.0),
        crash_ms=st.floats(min_value=0.5, max_value=30.0),
        crash_shard=st.integers(min_value=0, max_value=3),
        policy=st.sampled_from(ROUTER_POLICIES),
    )
    @settings(max_examples=25, deadline=None)
    def test_resize_plus_crash_stays_bit_identical(
        self, trace, direct, resize_ms, crash_ms, crash_shard, policy
    ):
        config = ClusterConfig(
            serve=MODELED, shards=2, router=policy, retry_failed=True
        )
        plan = FaultPlan(crashes=(CrashFault(shard=crash_shard, at_ms=crash_ms),))
        try:
            report = cluster_replay(
                trace,
                config,
                resize_at=ScalePlan(steps=((resize_ms, 4),)),
                faults=plan,
            )
        except ShardFailedError:
            pytest.fail("retry_failed=True with >= 2 shards must survive one crash")
        assert report.shards == 4
        assert [r.score for r in report.results()] == [r.score for r in direct]
        resize = report.telemetry["resize"]
        assert resize["events"] == 1

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_replay_is_a_pure_function_of_the_plan(self, trace, data):
        crash_ms = data.draw(st.floats(min_value=1.0, max_value=20.0))
        config = ClusterConfig(serve=MODELED, shards=3, retry_failed=True)
        plan = FaultPlan(crashes=(CrashFault(shard=1, at_ms=crash_ms),))
        first = cluster_replay(trace, config, faults=plan)
        second = cluster_replay(trace, config, faults=plan)
        assert first.makespan_ms == second.makespan_ms
        assert [r.completion_ms for r in first.requests] == [
            r.completion_ms for r in second.requests
        ]


@pytest.fixture(scope="module")
def direct_tasks(tasks):
    return list(Session(tasks=list(tasks)).align())


class TestLiveFaults:
    """The same plan drives real worker processes (small, smoke-level)."""

    def test_live_served_count_triggers(self, tasks, direct_tasks):
        plan = FaultPlan(
            crashes=(CrashFault(shard=1, after_requests=4),),
            delays=(DelayFault(shard=0, delay_ms=5.0, after_requests=2),),
            drops=(DropFault(shard=0, dispatch=1),),
            duplicates=(DuplicateFault(shard=0, dispatch=3),),
        )
        config = ClusterConfig(
            serve=ServeConfig(refill="drain", max_batch_size=4, max_wait_ms=1.0),
            shards=2,
            retry_failed=True,
            faults=plan,
        )
        with ClusterService(config) as cluster:
            futures = [cluster.submit(task) for task in tasks]
            scores = [future.result().score for future in futures]
        assert scores == [r.score for r in direct_tasks]
        summary = cluster.telemetry_summary()
        assert summary["faults"]["crashes"] == 1
        assert summary["faults"]["dropped"] == 1
        assert summary["faults"]["duplicated"] == 1
        assert summary["admission"]["retried"] > 0

    def test_retried_requests_bypass_class_limits(self, tasks, direct_tasks):
        """Crash re-routes go straight to the survivor's queue: admission
        (including per-class budgets) gates *arrivals*, and a retried
        request was already admitted once -- it must never be rejected on
        its second placement."""
        plan = FaultPlan(crashes=(CrashFault(shard=1, after_requests=2),))
        config = ClusterConfig(
            serve=ServeConfig(refill="drain", max_batch_size=4, max_wait_ms=1.0),
            shards=2,
            retry_failed=True,
            class_limits={0: 4},
            faults=plan,
        )
        with ClusterService(config) as cluster:
            futures = []
            for task in tasks:
                while True:
                    try:
                        futures.append(cluster.submit(task))
                        break
                    except Exception:  # class budget full: drain a little
                        futures[0].result()
            scores = [future.result().score for future in futures]
        assert scores == [r.score for r in direct_tasks]
        summary = cluster.telemetry_summary()
        assert summary["admission"]["retried"] > 0
        # Every submit above eventually landed; retries never re-enter
        # admission, so they cannot add rejections of their own.
        assert summary["admission"]["admitted"] == len(tasks)

    def test_live_crash_without_retry_fails_stranded_futures(self, tasks):
        plan = FaultPlan(crashes=(CrashFault(shard=0, after_requests=2),))
        config = ClusterConfig(
            serve=ServeConfig(refill="drain", max_batch_size=2, max_wait_ms=1.0),
            shards=1,
            max_restarts=0,
            faults=plan,
        )
        with ClusterService(config) as cluster:
            futures = [cluster.submit(task) for task in tasks[:8]]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=30))
                except ShardFailedError:
                    outcomes.append(None)
        assert any(outcome is None for outcome in outcomes)
        assert cluster.telemetry_summary()["faults"]["crashes"] == 1
