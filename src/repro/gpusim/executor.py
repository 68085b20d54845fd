"""Device-level execution: warp scheduling, rooflines and multi-GPU.

A kernel simulation produces a list of :class:`~repro.gpusim.trace.WarpWork`
records, each with a latency in cycles.  The executor turns those into a
wall-clock estimate for a particular :class:`~repro.gpusim.device.DeviceSpec`:

1. **Warp scheduling.**  The device runs ``concurrent_warps`` warps at a
   time; remaining warps queue.  Warps are assigned to hardware slots with
   greedy list scheduling in launch order (the same first-come-first-served
   behaviour a real grid launch exhibits), so the latency component of the
   estimate is the makespan over slots.
2. **Bandwidth roofline.**  Independently, the launch cannot finish faster
   than its total global-memory traffic divided by the device bandwidth.
   The reported time is the maximum of the two bounds -- designs that
   hammer global memory (the MM2-target GASAL2 baseline) hit the roofline,
   designs that idle threads hit the latency bound.
3. **Multi-GPU.**  Section 5.8 distributes equal numbers of alignment
   tasks to each GPU; :class:`MultiGpuExecutor` reproduces that policy and
   reports the slowest device as the completion time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.gpusim.device import CostModel, DeviceSpec
from repro.gpusim.trace import KernelLaunchStats

__all__ = ["ExecutionReport", "GpuExecutor", "MultiGpuExecutor"]


@dataclass
class ExecutionReport:
    """Timing breakdown of one launch on one device."""

    device_name: str
    time_ms: float
    latency_bound_ms: float
    bandwidth_bound_ms: float
    occupancy: float
    num_warps: int


class GpuExecutor:
    """Schedules simulated warps onto one device."""

    def __init__(self, device: DeviceSpec, cost: CostModel | None = None):
        self.device = device
        self.cost = cost or CostModel()

    # ------------------------------------------------------------------
    def makespan_cycles(self, warp_cycles: Sequence[float]) -> float:
        """Greedy list-scheduling makespan over the device's warp slots.

        Warps are dispatched in order to the slot that frees earliest,
        which models a grid whose thread blocks are issued as resources
        become available.
        """
        cycles = np.asarray(list(warp_cycles), dtype=np.float64)
        if cycles.size == 0:
            return 0.0
        slots = self.device.concurrent_warps
        if cycles.size <= slots:
            return float(cycles.max())
        finish = np.zeros(slots, dtype=np.float64)
        # Greedy list scheduling: heapq would be O(n log s); with the modest
        # warp counts used here an argmin per step is fast enough and keeps
        # the behaviour easy to verify in tests.
        for c in cycles:
            k = int(np.argmin(finish))
            finish[k] += c
        return float(finish.max())

    # ------------------------------------------------------------------
    def execute(self, stats: KernelLaunchStats) -> ExecutionReport:
        """Fill ``stats`` timing fields and return the report."""
        warp_cycles = [w.cycles for w in stats.warps]
        makespan = self.makespan_cycles(warp_cycles)
        latency_ms = self.device.cycles_to_ms(makespan)
        traffic = stats.total_traffic
        bandwidth_ms = self.device.bandwidth_bound_ms(traffic.global_bytes(self.cost))
        time_ms = max(latency_ms, bandwidth_ms)

        total_cycles = float(np.sum(warp_cycles)) if warp_cycles else 0.0
        capacity_cycles = makespan * self.device.concurrent_warps
        occupancy = (total_cycles / capacity_cycles) if capacity_cycles > 0 else 0.0

        stats.time_ms = time_ms
        stats.latency_bound_ms = latency_ms
        stats.bandwidth_bound_ms = bandwidth_ms
        stats.device_name = self.device.name
        return ExecutionReport(
            device_name=self.device.name,
            time_ms=time_ms,
            latency_bound_ms=latency_ms,
            bandwidth_bound_ms=bandwidth_ms,
            occupancy=min(1.0, occupancy),
            num_warps=len(warp_cycles),
        )


class MultiGpuExecutor:
    """Distributes alignment tasks across several identical devices.

    The paper's multi-GPU extension (Section 5.8) splits the task list into
    equal-count contiguous shards, runs the kernel independently on each
    GPU and finishes when the slowest GPU finishes.  The executor follows
    the same policy; the per-shard kernel simulation is delegated back to
    the caller through ``run_shard`` so any kernel can be scaled.
    """

    def __init__(self, device: DeviceSpec, num_gpus: int, cost: CostModel | None = None):
        if num_gpus <= 0:
            raise ValueError("num_gpus must be positive")
        self.device = device
        self.num_gpus = num_gpus
        self.cost = cost or CostModel()

    def shard_tasks(self, tasks: Sequence) -> List[Sequence]:
        """Split tasks into ``num_gpus`` equal-count contiguous shards."""
        n = len(tasks)
        if n == 0:
            return [[] for _ in range(self.num_gpus)]
        per = -(-n // self.num_gpus)
        return [tasks[g * per : (g + 1) * per] for g in range(self.num_gpus)]

    def execute(self, tasks: Sequence, run_shard) -> tuple[float, List[ExecutionReport]]:
        """Run ``run_shard(shard) -> KernelLaunchStats`` per GPU.

        Returns the overall completion time (max over GPUs) and the
        per-GPU execution reports.
        """
        executor = GpuExecutor(self.device, self.cost)
        reports: List[ExecutionReport] = []
        for shard in self.shard_tasks(tasks):
            if len(shard) == 0:
                reports.append(
                    ExecutionReport(
                        device_name=self.device.name,
                        time_ms=0.0,
                        latency_bound_ms=0.0,
                        bandwidth_bound_ms=0.0,
                        occupancy=0.0,
                        num_warps=0,
                    )
                )
                continue
            stats = run_shard(shard)
            reports.append(executor.execute(stats))
        total = max((r.time_ms for r in reports), default=0.0)
        return total, reports
