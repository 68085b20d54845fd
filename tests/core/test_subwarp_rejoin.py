"""Tests for the subwarp rejoining simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.subwarp_rejoin import (
    SliceCost,
    SubwarpRejoinSimulator,
    TaskSliceCosts,
)


def uniform_task(task_id, slices, work=800.0, fixed=2.0):
    return TaskSliceCosts(task_id, [SliceCost(work, fixed) for _ in range(slices)])


class TestWithoutRejoin:
    def test_warp_latency_is_max_of_subwarps(self):
        sim = SubwarpRejoinSimulator(subwarp_size=8, num_subwarps=4)
        queues = [[uniform_task(0, 10)], [uniform_task(1, 2)], [uniform_task(2, 2)], [uniform_task(3, 2)]]
        result = sim.simulate_without_rejoin(queues)
        assert result.warp_cycles == pytest.approx(uniform_task(0, 10).latency(8))
        assert result.rejoin_events == 0
        assert result.idle_thread_cycles > 0

    def test_queue_count_validation(self):
        sim = SubwarpRejoinSimulator(8, 4)
        with pytest.raises(ValueError):
            sim.simulate_without_rejoin([[]])


class TestWithRejoin:
    def test_rejoining_reduces_warp_latency(self):
        sim = SubwarpRejoinSimulator(8, 4, rejoin_overhead_cycles=4)
        queues = [[uniform_task(0, 12)], [uniform_task(1, 1)], [uniform_task(2, 1)], [uniform_task(3, 1)]]
        base = sim.simulate_without_rejoin(queues)
        rejoined = sim.simulate_with_rejoin(queues)
        assert rejoined.warp_cycles < base.warp_cycles
        assert rejoined.rejoin_events >= 3

    def test_balanced_work_gains_little(self):
        sim = SubwarpRejoinSimulator(8, 4, rejoin_overhead_cycles=4)
        queues = [[uniform_task(k, 6)] for k in range(4)]
        base = sim.simulate_without_rejoin(queues)
        rejoined = sim.simulate_with_rejoin(queues)
        # Perfectly balanced queues cannot be improved; overheads may even
        # make rejoining marginally slower, but never by more than the
        # accumulated rejoin overhead.
        assert rejoined.warp_cycles <= base.warp_cycles + 4 * 4

    def test_never_slower_than_half_and_never_faster_than_pool(self):
        sim = SubwarpRejoinSimulator(8, 4)
        queues = [
            [uniform_task(0, 9)],
            [uniform_task(1, 3)],
            [uniform_task(2, 1)],
            [uniform_task(3, 5)],
        ]
        base = sim.simulate_without_rejoin(queues)
        rejoined = sim.simulate_with_rejoin(queues)
        total_compute = sum(
            s.compute_thread_cycles for q in queues for t in q for s in t.slices
        )
        pooled_lower_bound = total_compute / (8 * 4)
        assert rejoined.warp_cycles >= pooled_lower_bound
        assert rejoined.warp_cycles <= base.warp_cycles

    def test_empty_queues(self):
        sim = SubwarpRejoinSimulator(8, 4)
        result = sim.simulate_with_rejoin([[], [], [], []])
        assert result.warp_cycles == 0.0
        assert result.rounds == 0

    def test_multiple_rounds(self):
        sim = SubwarpRejoinSimulator(8, 2)
        queues = [
            [uniform_task(0, 4), uniform_task(1, 1)],
            [uniform_task(2, 1), uniform_task(3, 4)],
        ]
        result = sim.simulate_with_rejoin(queues)
        assert result.rounds == 2
        assert result.warp_cycles > 0

    @given(
        lengths=st.lists(st.integers(1, 12), min_size=4, max_size=4),
        work=st.floats(10.0, 2000.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_rejoin_never_worse_with_zero_overhead(self, lengths, work):
        sim = SubwarpRejoinSimulator(8, 4, rejoin_overhead_cycles=0.0)
        queues = [[uniform_task(k, n, work=work, fixed=1.0)] for k, n in enumerate(lengths)]
        base = sim.simulate_without_rejoin(queues)
        rejoined = sim.simulate_with_rejoin(queues)
        assert rejoined.warp_cycles <= base.warp_cycles + 1e-6


class TestSliceCost:
    def test_latency_scales_with_threads(self):
        cost = SliceCost(compute_thread_cycles=800, fixed_cycles=10)
        assert cost.latency(8) == pytest.approx(110)
        assert cost.latency(16) == pytest.approx(60)

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            SliceCost(10.0).latency(0)
