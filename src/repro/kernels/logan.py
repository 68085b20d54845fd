"""LOGAN-style X-drop kernel with adaptive banding.

LOGAN (Zeni et al., IPDPS'20) implements its *own* guiding algorithm
rather than Minimap2's: a BLAST-style X-drop termination with a band that
adapts every anti-diagonal (only the neighbourhood of cells still within
``x`` of the best score is carried forward), and a linear (non-affine) gap
model that keeps the per-cell state small.  Because the algorithm differs,
the paper only reports LOGAN in its original form (Diff-Target); its
scores are *not* expected to match the reference and the exactness tests
treat it accordingly.

The timing model reflects the algorithm's character: no run-ahead (the
band adapts per anti-diagonal), cheap cells (one score lane instead of
three), warp-per-alignment execution with the usual lane idling at the
band fringes, and modest memory traffic because the adaptive band's
wavefronts fit in shared memory / registers.
"""

from __future__ import annotations

import numpy as np

from repro.align.types import AlignmentProfile, AlignmentTask
from repro.gpusim.device import CostModel, DeviceSpec
from repro.gpusim.trace import MemoryTraffic, TaskWorkload
from repro.kernels.base import GuidedKernel, KernelConfig

__all__ = ["LoganKernel"]


class LoganKernel(GuidedKernel):
    """X-drop, adaptive-band, linear-gap kernel (Diff-Target only)."""

    name = "LOGAN"
    exact = False
    target = "diff"

    #: Relative per-cell compute cost: a linear-gap cell updates one score
    #: lane instead of H/E/F, roughly 60% of the affine cell's work.
    cell_cost_factor: float = 0.6

    def __init__(self, config: KernelConfig | None = None):
        config = (config or KernelConfig()).replace(subwarp_size=32)
        super().__init__(config)

    # ------------------------------------------------------------------
    def run(self, tasks):
        """Scores under LOGAN's guiding: X-drop termination.

        The linear-gap simplification is not applied to the scores (the
        affine engine is reused) -- the observable algorithmic difference
        the paper discusses is the termination heuristic, and that is what
        the comparison tests exercise.
        """
        return self._batched_scores(tasks, termination="xdrop")

    # ------------------------------------------------------------------
    def task_workload(
        self,
        task: AlignmentTask,
        profile: AlignmentProfile,
        device: DeviceSpec,
        cost: CostModel,
    ) -> TaskWorkload:
        cells_per_antidiag = profile.cells_per_antidiag
        # Adaptive banding prunes the fringes of the band where scores have
        # already dropped; the linear-gap state makes each remaining cell a
        # little cheaper.  Together the two effects roughly cancel the
        # extra band-bound bookkeeping the adaptive scheme performs per
        # anti-diagonal, so the cell count is taken at face value.
        cells = float(cells_per_antidiag.sum()) * 0.85
        antidiags = profile.antidiagonals_processed
        threads = self.config.subwarp_size

        steps = np.ceil(cells_per_antidiag / threads)
        idle = float(steps.sum() * threads - cells_per_antidiag.sum())

        traffic = MemoryTraffic()
        # Sequences are read per anti-diagonal tile (LOGAN does not pack
        # inputs), and the wavefront spills past shared memory for long
        # anti-diagonals.
        traffic.global_reads += cells / 8.0
        traffic.global_writes += cells / 16.0
        traffic.reductions += antidiags
        traffic.termination_checks += antidiags

        return TaskWorkload(
            task_id=task.task_id,
            cells=cells,
            ideal_cells=float(profile.cells_computed),
            idle_cell_slots=idle,
            traffic=traffic,
            steps=antidiags,
        )
