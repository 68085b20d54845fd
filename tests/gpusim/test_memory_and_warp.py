"""Tests for the memory-traffic records and warp/subwarp structures."""

import pytest

from repro.gpusim.trace import MemoryTraffic
from repro.gpusim.warp import WARP_SIZE, WarpAssignment, split_warp


class TestMemoryTraffic:
    def test_add(self):
        a = MemoryTraffic(global_reads=1, global_writes=2, shared_accesses=3)
        b = MemoryTraffic(global_reads=4, reductions=1)
        c = a + b
        assert c.global_reads == 5 and c.global_words == 7

    def test_latency_and_bytes(self):
        from repro.gpusim.device import CostModel, RTX_A6000

        cost = CostModel()
        t = MemoryTraffic(global_reads=10, shared_accesses=4, reductions=2, termination_checks=1)
        assert t.global_bytes(cost) == 10 * cost.bytes_per_global_access
        expected = (
            10 * cost.global_access_cycles
            + 4 * cost.shared_access_cycles
            + 2 * cost.warp_reduce_cycles
            + 1 * cost.termination_check_cycles
        )
        assert t.latency_cycles(RTX_A6000, cost) == pytest.approx(expected)


class TestWarpStructures:
    def test_split_warp(self):
        assert split_warp(8) == 4
        assert split_warp(32) == 1
        with pytest.raises(ValueError):
            split_warp(5)
        with pytest.raises(ValueError):
            split_warp(0)

    def test_empty_assignment(self):
        warp = WarpAssignment.empty(0, 8)
        assert warp.num_subwarps == 4
        assert warp.num_tasks == 0

    def test_warp_size_constant(self):
        assert WARP_SIZE == 32
