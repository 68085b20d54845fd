"""Work and traffic accounting records for kernel simulations.

Every kernel design in :mod:`repro.kernels` reduces a batch of alignment
tasks to the same currency:

* :class:`MemoryTraffic` -- counts of global-memory transactions (already
  coalesced, i.e. one entry per 32-bit transaction actually issued),
  shared-memory accesses, warp reductions and termination checks;
* :class:`TaskWorkload` -- the cells a design computes for one task
  (including run-ahead work past the termination point) plus the idle
  thread-slots its schedule creates and the traffic it issues;
* :class:`SubwarpWork` / :class:`WarpWork` -- how task workloads combine
  inside a subwarp and a warp (the paper's ``MAX``/``AVG`` distinction);
* :class:`KernelLaunchStats` -- the whole launch, which the executor turns
  into milliseconds.

Keeping these records explicit (rather than collapsing straight to a
number) is what lets the benchmark harness report not only "who is
faster" but *why*: run-ahead cells, global transactions and idle fractions
are all first-class columns in the experiment output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.gpusim.device import CostModel, DeviceSpec

__all__ = [
    "MemoryTraffic",
    "TaskWorkload",
    "SubwarpWork",
    "WarpWork",
    "KernelLaunchStats",
]


@dataclass
class MemoryTraffic:
    """Counts of memory-system events issued by some unit of work."""

    global_reads: float = 0.0
    global_writes: float = 0.0
    shared_accesses: float = 0.0
    reductions: float = 0.0
    termination_checks: float = 0.0

    # ------------------------------------------------------------------
    def __add__(self, other: "MemoryTraffic") -> "MemoryTraffic":
        return MemoryTraffic(
            global_reads=self.global_reads + other.global_reads,
            global_writes=self.global_writes + other.global_writes,
            shared_accesses=self.shared_accesses + other.shared_accesses,
            reductions=self.reductions + other.reductions,
            termination_checks=self.termination_checks + other.termination_checks,
        )

    def __iadd__(self, other: "MemoryTraffic") -> "MemoryTraffic":
        self.global_reads += other.global_reads
        self.global_writes += other.global_writes
        self.shared_accesses += other.shared_accesses
        self.reductions += other.reductions
        self.termination_checks += other.termination_checks
        return self

    # ------------------------------------------------------------------
    @property
    def global_words(self) -> float:
        """Total global-memory transactions (reads + writes)."""
        return self.global_reads + self.global_writes

    def global_bytes(self, cost: CostModel) -> float:
        """Bytes moved over the global-memory interface."""
        return self.global_words * cost.bytes_per_global_access

    def latency_cycles(self, device: DeviceSpec, cost: CostModel) -> float:
        """Cycles a subwarp spends waiting on this traffic."""
        return (
            self.global_words * cost.global_access_cycles
            + self.shared_accesses * cost.shared_access_cycles
            + self.reductions * device.reduce_cycles(cost)
            + self.termination_checks * cost.termination_check_cycles
        )


@dataclass
class TaskWorkload:
    """The work one kernel design performs for one alignment task.

    Attributes
    ----------
    task_id:
        Identifier of the originating :class:`~repro.align.types.AlignmentTask`.
    cells:
        In-band cells the design computes, *including* run-ahead work.
    ideal_cells:
        Cells an ideal per-anti-diagonal termination would compute (the CPU
        baseline's work); ``cells - ideal_cells`` is the run-ahead waste.
    idle_cell_slots:
        Thread-slots left idle by the schedule while other threads of the
        same subwarp compute (external/internal fragmentation).
    traffic:
        Memory traffic issued for this task.
    steps:
        Number of synchronisation steps (chunks or slices) the schedule
        used -- the granularity at which subwarp rejoining can engage.
    """

    task_id: int
    cells: float
    ideal_cells: float
    idle_cell_slots: float = 0.0
    traffic: MemoryTraffic = field(default_factory=MemoryTraffic)
    steps: int = 0

    @property
    def runahead_cells(self) -> float:
        """Cells computed beyond what per-anti-diagonal termination needs."""
        return max(0.0, self.cells - self.ideal_cells)

    def cycles(self, device: DeviceSpec, cost: CostModel, threads: int) -> float:
        """Latency (in cycles) of this task on a subwarp of ``threads``."""
        if threads <= 0:
            raise ValueError("threads must be positive")
        cell_cycles = device.effective_cell_cycles(cost)
        compute = (self.cells + self.idle_cell_slots) * cell_cycles / threads
        return compute + self.traffic.latency_cycles(device, cost)


@dataclass
class SubwarpWork:
    """Tasks assigned to one subwarp and their combined latency."""

    subwarp_id: int
    threads: int
    workloads: List[TaskWorkload] = field(default_factory=list)

    def cycles(self, device: DeviceSpec, cost: CostModel) -> float:
        """Sequential latency of all tasks assigned to this subwarp."""
        return sum(w.cycles(device, cost, self.threads) for w in self.workloads)

    @property
    def total_cells(self) -> float:
        return sum(w.cells for w in self.workloads)

    @property
    def traffic(self) -> MemoryTraffic:
        total = MemoryTraffic()
        for w in self.workloads:
            total += w.traffic
        return total


@dataclass
class WarpWork:
    """One warp's workload: its subwarps and the resulting latency.

    ``cycles`` is filled by the kernel (it depends on whether subwarp
    rejoining is active); the executor only consumes it.
    """

    warp_id: int
    subwarps: List[SubwarpWork] = field(default_factory=list)
    cycles: float = 0.0
    rejoin_events: int = 0

    @property
    def traffic(self) -> MemoryTraffic:
        total = MemoryTraffic()
        for sw in self.subwarps:
            total += sw.traffic
        return total

    @property
    def total_cells(self) -> float:
        return sum(sw.total_cells for sw in self.subwarps)


@dataclass
class KernelLaunchStats:
    """Aggregate record of one simulated kernel launch."""

    kernel_name: str
    device_name: str
    warps: List[WarpWork] = field(default_factory=list)
    #: Wall-clock estimate filled by the executor (milliseconds).
    time_ms: float = 0.0
    #: Portion of ``time_ms`` attributable to the bandwidth roofline.
    bandwidth_bound_ms: float = 0.0
    #: Portion attributable to warp latency (makespan of warp cycles).
    latency_bound_ms: float = 0.0

    # ------------------------------------------------------------------
    @property
    def num_warps(self) -> int:
        return len(self.warps)

    @property
    def total_cells(self) -> float:
        """Cells computed across the launch (including run-ahead)."""
        return sum(w.total_cells for w in self.warps)

    @property
    def total_runahead_cells(self) -> float:
        return sum(
            wl.runahead_cells
            for warp in self.warps
            for sw in warp.subwarps
            for wl in sw.workloads
        )

    @property
    def total_traffic(self) -> MemoryTraffic:
        total = MemoryTraffic()
        for w in self.warps:
            total += w.traffic
        return total

    @property
    def warp_cycles(self) -> np.ndarray:
        return np.asarray([w.cycles for w in self.warps], dtype=np.float64)

    @property
    def total_rejoin_events(self) -> int:
        return sum(w.rejoin_events for w in self.warps)

    def imbalance(self) -> float:
        """Max-over-mean warp latency: 1.0 means perfectly balanced."""
        cycles = self.warp_cycles
        if cycles.size == 0 or cycles.mean() == 0:
            return 1.0
        return float(cycles.max() / cycles.mean())

    def summary(self) -> dict:
        """Dictionary summary used by the benchmark reporters."""
        traffic = self.total_traffic
        return {
            "kernel": self.kernel_name,
            "device": self.device_name,
            "time_ms": self.time_ms,
            "latency_bound_ms": self.latency_bound_ms,
            "bandwidth_bound_ms": self.bandwidth_bound_ms,
            "warps": self.num_warps,
            "cells": self.total_cells,
            "runahead_cells": self.total_runahead_cells,
            "global_words": traffic.global_words,
            "shared_accesses": traffic.shared_accesses,
            "imbalance": self.imbalance(),
            "rejoin_events": self.total_rejoin_events,
        }
