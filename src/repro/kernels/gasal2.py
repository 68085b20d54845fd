"""GASAL2-style inter-query-parallel kernel.

GASAL2 (Ahmed et al., 2019) parallelises *across* alignments: every GPU
thread computes one whole alignment by itself, walking the (banded) score
table row by row.  Input packing keeps the sequence traffic low, but the
per-thread working set (the intermediate ``H``/``F`` row of the band) no
longer fits in registers and round-trips through memory, and because the
32 threads of a warp work on 32 unrelated alignments, those accesses do
not coalesce.

Two variants are simulated, mirroring Section 5.2:

* ``target="diff"`` -- GASAL2's banded kernel as published: no termination
  condition, full band computed.
* ``target="mm2"`` -- extended with the reference guiding.  Each thread
  must additionally maintain every anti-diagonal's running maximum in
  global memory (scattered, uncoalesced) and can only evaluate the
  termination condition for anti-diagonals completed by whole query rows.
  This is the variant the paper reports as slower than the CPU baseline.
"""

from __future__ import annotations

from repro.align.types import AlignmentProfile, AlignmentTask
from repro.gpusim.device import CostModel, DeviceSpec
from repro.gpusim.trace import MemoryTraffic, TaskWorkload
from repro.kernels.base import GuidedKernel, KernelConfig

__all__ = ["Gasal2Kernel"]


class Gasal2Kernel(GuidedKernel):
    """One-thread-per-alignment (inter-query parallel) kernel."""

    name = "GASAL2"

    def __init__(self, config: KernelConfig | None = None, target: str = "diff"):
        config = (config or KernelConfig()).replace(subwarp_size=1)
        super().__init__(config)
        if target not in {"diff", "mm2"}:
            raise ValueError("target must be 'diff' or 'mm2'")
        self.target = target
        self.exact = True

    # ------------------------------------------------------------------
    def run(self, tasks):
        """Scores of the targeted algorithm (see :class:`SALoBaKernel`)."""
        if self.target == "mm2":
            return super().run(tasks)
        return self._batched_scores(tasks, termination="none")

    # ------------------------------------------------------------------
    def task_workload(
        self,
        task: AlignmentTask,
        profile: AlignmentProfile,
        device: DeviceSpec,
        cost: CostModel,
    ) -> TaskWorkload:
        geometry = profile.geometry

        if self.target == "mm2":
            # Row-granular termination: the thread sweeps query rows and can
            # only evaluate the condition once every cell of an
            # anti-diagonal has been produced, i.e. roughly band_width / 2
            # rows after the cells were first touched.
            rows_needed = geometry.rows_needed_for_antidiagonals(
                profile.antidiagonals_processed
            )
            cells = geometry.cells_in_row_prefix(rows_needed)
            completed = profile.antidiagonals_processed
        else:
            rows_needed = geometry.query_len
            cells = geometry.total_cells
            completed = 0

        traffic = MemoryTraffic()
        # Because each of the 32 threads of a warp streams an unrelated
        # alignment, none of the per-thread accesses coalesce: every 4-byte
        # access occupies (most of) a 32-byte sector.  The wasted sectors
        # are charged explicitly.
        sector_waste = 4.0
        # Packed sequence reads: one word per 8 cells in each direction.
        traffic.global_reads += sector_waste * cells / 4.0
        # Intermediate H/F row of the band spills to memory and is read
        # back on the next row.
        traffic.global_reads += sector_waste * cells / 2.0
        traffic.global_writes += sector_waste * cells / 2.0

        if self.target == "mm2":
            # Scattered per-cell read-modify-write of the anti-diagonal
            # maxima kept in global memory.
            traffic.global_reads += sector_waste * cells
            traffic.global_writes += sector_waste * cells
            traffic.global_reads += completed / 8.0
            traffic.termination_checks += completed

        return TaskWorkload(
            task_id=task.task_id,
            cells=float(cells),
            ideal_cells=float(profile.cells_computed),
            idle_cell_slots=0.0,
            traffic=traffic,
            steps=rows_needed,
        )
