"""The AGAThA kernel: rolling window + sliced diagonal + subwarp rejoining
+ uneven bucketing, individually switchable for the ablation study.

The kernel composes the four schemes implemented in :mod:`repro.core`:

* **Rolling window (RW)** keeps the per-anti-diagonal partial maxima in
  shared memory and reduces them with warp intrinsics, removing the
  per-cell global-memory updates of the naive exact baseline.
* **Sliced diagonal (SD)** tiles the band into diagonal slices of
  ``slice_width`` blocks, so the termination condition is evaluated every
  ``slice_width * block_size`` anti-diagonals instead of once per
  horizontal chunk pass, bounding run-ahead and letting the LMB cover a
  whole slice (no spills).
* **Subwarp rejoining (SR)** merges idle subwarps into the remaining
  active one at slice boundaries (work stealing inside the warp).
* **Uneven bucketing (UB)** deals exactly one of the longest tasks to each
  warp before filling the remaining subwarp slots in input order.

Every combination used by Figure 9 (the ablation ladder), Figure 10
(slice-width sweep), Figure 11 (scheduling policies), Figure 13 (long-read
fractions) and Figure 14 (subwarp sizes) is reachable through the
constructor flags.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.align.types import AlignmentProfile, AlignmentTask
from repro.core.sliced_diagonal import HorizontalChunkSchedule, SlicedDiagonalSchedule
from repro.core.subwarp_rejoin import SliceCost, SubwarpRejoinSimulator, TaskSliceCosts
from repro.core.uneven_bucketing import (
    original_order,
    sorted_order,
    uneven_bucketing_order,
)
from repro.gpusim.device import CostModel, DeviceSpec
from repro.gpusim.trace import MemoryTraffic, TaskWorkload
from repro.gpusim.warp import WarpAssignment
from repro.kernels.base import GuidedKernel, KernelConfig

__all__ = ["AgathaKernel"]


class AgathaKernel(GuidedKernel):
    """AGAThA and its ablation variants.

    Parameters
    ----------
    config:
        Launch geometry (subwarp size, block size, slice width).
    rolling_window, sliced_diagonal, subwarp_rejoining, uneven_bucketing:
        Scheme flags; all enabled reproduces the full AGAThA design, all
        disabled degenerates to the naive exact baseline.
    scheduling:
        Optional explicit task-ordering policy (``"original"``,
        ``"sorted"`` or ``"uneven"``) used by the Figure 11 study.  When
        omitted it follows ``uneven_bucketing``.
    """

    name = "AGAThA"
    exact = True
    target = "mm2"

    def __init__(
        self,
        config: KernelConfig | None = None,
        *,
        rolling_window: bool = True,
        sliced_diagonal: bool = True,
        subwarp_rejoining: bool = True,
        uneven_bucketing: bool = True,
        scheduling: Optional[str] = None,
    ):
        super().__init__(config)
        self.rolling_window = rolling_window
        self.sliced_diagonal = sliced_diagonal
        self.subwarp_rejoining = subwarp_rejoining
        self.uneven_bucketing = uneven_bucketing
        if scheduling is None:
            scheduling = "uneven" if uneven_bucketing else "original"
        if scheduling not in {"original", "sorted", "uneven"}:
            raise ValueError("scheduling must be 'original', 'sorted' or 'uneven'")
        self.scheduling = scheduling
        # Per-simulate cache of slice costs, in task order (index-aligned
        # with the workload list the base class builds).
        self._slice_costs: List[TaskSliceCosts] = []

    # ------------------------------------------------------------------
    @property
    def feature_label(self) -> str:
        """Ablation label, e.g. ``"+RW+SD"`` (``"Baseline"`` when bare)."""
        parts = []
        if self.rolling_window:
            parts.append("RW")
        if self.sliced_diagonal:
            parts.append("SD")
        if self.subwarp_rejoining:
            parts.append("SR")
        if self.uneven_bucketing:
            parts.append("UB")
        return "Baseline" if not parts else "+" + "+".join(parts)

    @property
    def display_name(self) -> str:
        if (
            self.rolling_window
            and self.sliced_diagonal
            and self.subwarp_rejoining
            and self.uneven_bucketing
        ):
            return "AGAThA"
        return f"AGAThA[{self.feature_label}]"

    # ------------------------------------------------------------------
    def _schedule(self, grid):
        if self.sliced_diagonal:
            return SlicedDiagonalSchedule(
                grid, self.config.slice_width, self.config.subwarp_size
            )
        return HorizontalChunkSchedule(grid, self.config.subwarp_size)

    # ------------------------------------------------------------------
    def task_workload(
        self,
        task: AlignmentTask,
        profile: AlignmentProfile,
        device: DeviceSpec,
        cost: CostModel,
    ) -> TaskWorkload:
        grid = self._block_grid(profile)
        schedule = self._schedule(grid)
        block_cells = grid.block_size * grid.block_size
        threads = self.config.subwarp_size
        band = profile.geometry.band_width or profile.geometry.ref_len

        slices = schedule.work_until_termination(profile.antidiagonals_processed)
        blocks = sum(s.blocks for s in slices)
        idle_blocks = sum(s.idle_block_slots for s in slices)
        completed = slices[-1].completed_cell_antidiagonals if slices else 0
        num_steps = len(slices)

        traffic = MemoryTraffic()
        # Packed sequence reads.
        traffic.global_reads += self._sequence_read_traffic(profile, blocks)

        # ----- anti-diagonal maximum tracking --------------------------------
        if self.rolling_window:
            # LMB updates stay in shared memory; charge one shared
            # transaction per subwarp step (all threads hit distinct banks).
            traffic.shared_accesses += blocks * block_cells / max(threads, 1)
            traffic.reductions += completed
            if not self.sliced_diagonal:
                # The window cannot cover every anti-diagonal left open by a
                # horizontal chunk pass, so partial maxima spill to the GMB
                # and must be re-read and re-merged on the next pass.  The
                # spill of a 3*block_size window only partially coalesces.
                open_per_pass = band + threads * grid.block_size
                traffic.global_writes += num_steps * open_per_pass / 4.0
                traffic.global_reads += num_steps * open_per_pass / 4.0
        else:
            # Naive tracking: every cell folds its value into global memory.
            traffic.global_writes += blocks * block_cells
            traffic.global_reads += completed / 8.0

        # ----- termination condition ------------------------------------------
        traffic.termination_checks += completed
        if not self.rolling_window:
            traffic.global_reads += completed / 8.0

        # ----- intermediate values --------------------------------------------
        if self.sliced_diagonal:
            # Horizontal intermediate values cross slice boundaries: each
            # block row writes its boundary column once per slice and reads
            # the previous slice's column back (Figure 5b).  Only H needs to
            # round-trip -- F is re-derived from H at the boundary column --
            # so this is one transaction each way per block row.
            chunk_rows = sum(s.chunks for s in slices) * threads
            traffic.global_writes += 1.0 * chunk_rows
            traffic.global_reads += 1.0 * chunk_rows
        else:
            traffic.global_writes += num_steps * band / 4.0
            traffic.global_reads += num_steps * band / 4.0

        workload = TaskWorkload(
            task_id=task.task_id,
            cells=float(blocks * block_cells),
            ideal_cells=float(profile.cells_computed),
            idle_cell_slots=float(idle_blocks * block_cells),
            traffic=traffic,
            steps=num_steps,
        )

        # Per-slice cost breakdown for the subwarp-rejoining simulation.
        if self.subwarp_rejoining:
            cell_cycles = device.effective_cell_cycles(cost)
            total_fixed = traffic.latency_cycles(device, cost)
            per_slice_fixed = total_fixed / max(len(slices), 1)
            slice_costs = [
                SliceCost(
                    compute_thread_cycles=(s.blocks + s.idle_block_slots)
                    * block_cells
                    * cell_cycles,
                    fixed_cycles=per_slice_fixed,
                )
                for s in slices
            ]
            if not slice_costs:
                slice_costs = [SliceCost(0.0, 0.0)]
            self._slice_costs.append(
                TaskSliceCosts(task_id=task.task_id, slices=slice_costs)
            )

        return workload

    # ------------------------------------------------------------------
    def order_tasks(self, tasks, profiles):
        workloads = [p.antidiagonals_processed for p in profiles]
        if self.scheduling == "uneven":
            return uneven_bucketing_order(workloads, self.config.subwarps_per_warp)
        if self.scheduling == "sorted":
            return sorted_order(workloads)
        return original_order(workloads)

    # ------------------------------------------------------------------
    def warp_cycles(
        self,
        assignment: WarpAssignment,
        workloads: Sequence[TaskWorkload],
        device: DeviceSpec,
        cost: CostModel,
    ) -> tuple[float, int]:
        if not self.subwarp_rejoining:
            return super().warp_cycles(assignment, workloads, device, cost)
        simulator = SubwarpRejoinSimulator(
            subwarp_size=self.config.subwarp_size,
            num_subwarps=assignment.num_subwarps,
            rejoin_overhead_cycles=cost.rejoin_overhead_cycles,
        )
        queues = [
            [self._slice_costs[idx] for idx in sw.task_indices]
            for sw in assignment.subwarps
        ]
        result = simulator.simulate_with_rejoin(queues)
        return (result.warp_cycles, result.rejoin_events)

    # ------------------------------------------------------------------
    def simulate(self, tasks, device=None, cost=None):
        from repro.gpusim.device import RTX_A6000

        self._slice_costs = []
        return super().simulate(tasks, device or RTX_A6000, cost)
