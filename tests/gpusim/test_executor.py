"""Tests for the device-level executor and multi-GPU distribution."""

import pytest

from repro.gpusim.device import DeviceSpec
from repro.gpusim.executor import GpuExecutor, MultiGpuExecutor
from repro.gpusim.trace import KernelLaunchStats, MemoryTraffic, SubwarpWork, TaskWorkload, WarpWork


def make_stats(warp_cycles, traffic_words=0.0):
    warps = []
    for k, cycles in enumerate(warp_cycles):
        warp = WarpWork(warp_id=k, cycles=cycles)
        warp.subwarps.append(
            SubwarpWork(
                subwarp_id=0,
                threads=8,
                workloads=[
                    TaskWorkload(
                        task_id=k,
                        cells=100.0,
                        ideal_cells=90.0,
                        traffic=MemoryTraffic(global_reads=traffic_words),
                    )
                ],
            )
        )
        warps.append(warp)
    return KernelLaunchStats(kernel_name="test", device_name="?", warps=warps)


DEVICE = DeviceSpec("toy", num_sms=1, resident_warps_per_sm=2, clock_ghz=1.0, mem_bandwidth_gbps=1.0)


class TestMakespan:
    def test_fewer_warps_than_slots(self):
        ex = GpuExecutor(DEVICE)
        assert ex.makespan_cycles([10.0]) == 10.0
        assert ex.makespan_cycles([]) == 0.0

    def test_greedy_list_scheduling(self):
        ex = GpuExecutor(DEVICE)  # 2 slots
        # Slots: [7], [5,3] -> makespan 8, or greedy order 7,5,3 -> slot0=7, slot1=5, then 3 -> slot1=8.
        assert ex.makespan_cycles([7.0, 5.0, 3.0]) == pytest.approx(8.0)

    def test_perfectly_divisible(self):
        ex = GpuExecutor(DEVICE)
        assert ex.makespan_cycles([1.0] * 10) == pytest.approx(5.0)


class TestExecute:
    def test_latency_bound(self):
        ex = GpuExecutor(DEVICE)
        stats = make_stats([1e6, 1e6])
        report = ex.execute(stats)
        assert report.latency_bound_ms > report.bandwidth_bound_ms
        assert stats.time_ms == pytest.approx(report.time_ms)
        assert stats.time_ms == pytest.approx(DEVICE.cycles_to_ms(1e6))

    def test_bandwidth_bound(self):
        ex = GpuExecutor(DEVICE)
        stats = make_stats([10.0], traffic_words=1e9)  # 4 GB over 1 GB/s
        report = ex.execute(stats)
        assert report.bandwidth_bound_ms >= report.latency_bound_ms
        assert report.time_ms > 1000.0

    def test_occupancy_bounded(self):
        ex = GpuExecutor(DEVICE)
        report = ex.execute(make_stats([5.0, 10.0, 20.0]))
        assert 0.0 < report.occupancy <= 1.0

    def test_summary_fields(self):
        stats = make_stats([5.0, 10.0])
        GpuExecutor(DEVICE).execute(stats)
        summary = stats.summary()
        assert summary["warps"] == 2
        assert summary["cells"] == 200.0
        assert summary["runahead_cells"] == 20.0
        assert summary["time_ms"] > 0


class TestMultiGpu:
    def test_sharding(self):
        multi = MultiGpuExecutor(DEVICE, num_gpus=3)
        shards = multi.shard_tasks(list(range(10)))
        assert len(shards) == 3
        assert sum(len(s) for s in shards) == 10

    def test_execute_scales_down_time(self):
        single = MultiGpuExecutor(DEVICE, num_gpus=1)
        quad = MultiGpuExecutor(DEVICE, num_gpus=4)
        tasks = list(range(64))

        def run_shard(shard):
            return make_stats([100.0] * len(shard))

        t1, _ = single.execute(tasks, run_shard)
        t4, reports = quad.execute(tasks, run_shard)
        assert t4 < t1
        assert len(reports) == 4

    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            MultiGpuExecutor(DEVICE, num_gpus=0)

    def test_empty_tasks(self):
        multi = MultiGpuExecutor(DEVICE, num_gpus=2)
        total, reports = multi.execute([], lambda shard: make_stats([]))
        assert total == 0.0
        assert len(reports) == 2
