"""The replayed crash cut: what a dying worker delivers, and what it counts.

A :class:`ShardFaults` view with ``crash_ms`` makes a worker crash an
event of the shard's own :func:`replay`: the dying worker serves the
arrivals before the crash and delivers exactly what completes by then,
and a replacement worker serves the later arrivals from an idle start.
These tests pin the cut against crash-free replays of the two halves of
the trace, and pin that a :func:`cluster_replay` never counts a fault
the dead worker would have met only after it died.
"""

import dataclasses

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.serve import (
    ClusterConfig,
    CrashFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
    ServeConfig,
    ShardFaults,
    cluster_replay,
    replay,
)
from repro.serve.loadgen import LoadGenerator, RequestTrace

from serve_workloads import make_serve_tasks

MODELED = ServeConfig(timing="modeled", max_batch_size=8, max_wait_ms=2.0, refill="drain")

TASKS = make_serve_tasks(seed=5, count=24)

#: The trace of ``test_faults.py``; a crash cut that lets the dead worker
#: run on past its crash over-counts the faults of that shard here.
CHAOS_TRACE = LoadGenerator(TASKS, name="chaos", seed=3).poisson(2000.0, 48)


def _stamps(request):
    return (request.dispatch_ms, request.completion_ms, request.result)


def _subtrace(trace, indices):
    return RequestTrace(
        name=trace.name,
        process=trace.process,
        tasks=tuple(trace.tasks[index] for index in indices),
        arrivals_ms=tuple(trace.arrivals_ms[index] for index in indices),
    )


class TestCrashedShardCounters:
    """A crash of shard 0 at 1.0 ms, 2 shards, retry on."""

    CONFIG = ClusterConfig(serve=MODELED, shards=2, retry_failed=True)
    CRASH = (CrashFault(shard=0, at_ms=1.0),)

    def test_stall_after_the_crash_counts_once(self):
        plan = FaultPlan(
            crashes=self.CRASH,
            delays=(DelayFault(shard=0, delay_ms=1.0, at_ms=1.5),),
        )
        report = cluster_replay(CHAOS_TRACE, self.CONFIG, faults=plan)
        assert report.telemetry["faults"]["delays"] == 1

    def test_dead_worker_drops_no_dispatch(self):
        plan = FaultPlan(crashes=self.CRASH, drops=(DropFault(shard=0, dispatch=0),))
        report = cluster_replay(CHAOS_TRACE, self.CONFIG, faults=plan)
        assert report.telemetry["faults"]["dropped"] == 0


@st.composite
def crashed_replays(draw):
    """A trace, a serve config (drain with 1-3 workers, or continuous)
    and a shard view crashing at ``crash_ms``, with optional stalls,
    drops and duplicates."""
    trace = LoadGenerator(TASKS, name="cut").poisson(
        draw(st.sampled_from([1000.0, 2000.0, 4000.0])),
        draw(st.integers(4, 32)),
        seed=draw(st.integers(0, 50)),
    )
    continuous = draw(st.booleans())
    config = ServeConfig(
        timing="modeled",
        refill="continuous" if continuous else "drain",
        workers=1 if continuous else draw(st.integers(1, 3)),
        max_batch_size=draw(st.integers(2, 8)),
        max_wait_ms=draw(st.sampled_from([0.5, 1.0, 2.0])),
    )
    times = st.floats(min_value=0.0, max_value=12.0)
    stalls = draw(
        st.lists(st.tuples(times, st.floats(min_value=0.1, max_value=3.0)), max_size=2)
    )
    # Drop/duplicate faults index drain-mode dispatches only.
    dispatches = st.sets(st.integers(0, 6), max_size=0 if continuous else 2)
    drops = draw(dispatches)
    duplicates = draw(dispatches) - drops
    faults = ShardFaults(
        stalls=tuple(sorted(stalls)),
        drops=frozenset(drops),
        duplicates=frozenset(duplicates),
        crash_ms=draw(st.floats(min_value=0.0, max_value=12.0)),
    )
    return trace, config, faults


class TestReplayCrashCut:
    @given(case=crashed_replays())
    @settings(max_examples=25, deadline=None)
    def test_dying_worker_delivers_the_crash_free_prefix(self, case):
        trace, config, faults = case
        crash_ms = faults.crash_ms
        report = replay(trace, config, faults=faults)
        before = [i for i, t in enumerate(trace.arrivals_ms) if t < crash_ms]
        reference = replay(
            _subtrace(trace, before),
            config,
            faults=dataclasses.replace(faults, crash_ms=None),
        )
        for index, expected in zip(before, reference.requests):
            request = report.requests[index]
            assert request.dispatch_ms is None or request.dispatch_ms < crash_ms
            if expected.completion_ms <= crash_ms:
                assert _stamps(request) == _stamps(expected)
            else:
                assert request.completion_ms is None
                assert request.result is None

    @given(case=crashed_replays())
    @settings(max_examples=25, deadline=None)
    def test_replacement_serves_later_arrivals_afresh(self, case):
        trace, config, faults = case
        crash_ms = faults.crash_ms
        report = replay(trace, config, faults=faults)
        after = [i for i, t in enumerate(trace.arrivals_ms) if t >= crash_ms]
        fresh = replay(_subtrace(trace, after), config, faults=faults.after(crash_ms))
        assert [
            _stamps(report.requests[index]) + (report.requests[index].batch_occupancy,)
            for index in after
        ] == [_stamps(request) + (request.batch_occupancy,) for request in fresh.requests]


class TestClusterFaultCounters:
    @given(
        shards=st.integers(2, 3),
        shard=st.integers(0, 1),
        crash_ms=st.floats(min_value=0.0, max_value=12.0),
        stall_ms=st.floats(min_value=0.0, max_value=12.0),
        delay_ms=st.floats(min_value=0.1, max_value=3.0),
        drop=st.integers(0, 5),
        duplicate=st.integers(0, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_no_counter_exceeds_the_plan(
        self, shards, shard, crash_ms, stall_ms, delay_ms, drop, duplicate
    ):
        assume(drop != duplicate)
        plan = FaultPlan(
            crashes=(CrashFault(shard=shard, at_ms=crash_ms),),
            delays=(DelayFault(shard=shard, delay_ms=delay_ms, at_ms=stall_ms),),
            drops=(DropFault(shard=shard, dispatch=drop),),
            duplicates=(DuplicateFault(shard=shard, dispatch=duplicate),),
        )
        config = ClusterConfig(serve=MODELED, shards=shards, retry_failed=True)
        counters = cluster_replay(CHAOS_TRACE, config, faults=plan).telemetry["faults"]
        assert counters["crashes"] <= len(plan.crashes)
        assert counters["delays"] <= len(plan.delays)
        assert counters["dropped"] <= len(plan.drops)
        assert counters["duplicated"] <= len(plan.duplicates)
