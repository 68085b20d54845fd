"""SALoBa-style intra-query-parallel kernel and its exact-guiding extension.

SALoBa (Park et al., IPDPS'22) is the strongest GPU baseline in the paper's
comparison.  It assigns one alignment to a *subwarp*, packs inputs 4 bits
per literal, and sweeps the banded score table in horizontal chunks of
``subwarp_size`` block rows (Section 2.2, Figure 2b).  Two variants are
evaluated:

* ``target="diff"`` -- the algorithm SALoBa originally targets: k-banding
  only, no termination condition.  The whole band is computed, but no
  anti-diagonal maxima need to be tracked and no checks are performed.
* ``target="mm2"`` -- the faithful extension to Minimap2's guided
  algorithm used in the paper's main comparison (and, under the name
  "Baseline", as the starting point of the Figure 9 ablation): local
  maxima are stored straight to global memory and the termination
  condition can only be evaluated for anti-diagonals completed by whole
  chunk passes, which creates the large run-ahead Section 3.1 diagnoses.
"""

from __future__ import annotations

from repro.align.types import AlignmentProfile, AlignmentTask
from repro.core.sliced_diagonal import HorizontalChunkSchedule
from repro.gpusim.device import CostModel, DeviceSpec
from repro.gpusim.trace import MemoryTraffic, TaskWorkload
from repro.kernels.base import GuidedKernel, KernelConfig

__all__ = ["SALoBaKernel", "BaselineExactKernel"]


class SALoBaKernel(GuidedKernel):
    """Intra-query parallel, horizontally chunked kernel.

    Parameters
    ----------
    config:
        Launch geometry.
    target:
        ``"diff"`` (banding only, SALoBa's own algorithm) or ``"mm2"``
        (extended with the exact reference guiding).
    """

    name = "SALoBa"

    def __init__(self, config: KernelConfig | None = None, target: str = "diff"):
        super().__init__(config)
        if target not in {"diff", "mm2"}:
            raise ValueError("target must be 'diff' or 'mm2'")
        self.target = target
        self.exact = True  # banding-only output still matches the engine it targets

    # ------------------------------------------------------------------
    def run(self, tasks):
        """Scores of the algorithm this variant targets.

        The MM2-target variant reproduces the reference guided algorithm
        exactly.  The Diff-target variant computes the same recurrence but
        without the termination condition, so its scores are obtained from
        the engine with Z-drop disabled.
        """
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
        grid = self._block_grid(profile)
        schedule = HorizontalChunkSchedule(grid, self.config.subwarp_size)
        block_cells = self.config.block_size * self.config.block_size
        band = profile.geometry.band_width or profile.geometry.ref_len

        if self.target == "mm2":
            slices = schedule.work_until_termination(profile.antidiagonals_processed)
        else:
            slices = schedule.all_slices()

        blocks = sum(s.blocks for s in slices)
        idle_blocks = sum(s.idle_block_slots for s in slices)
        passes = len(slices)
        completed = slices[-1].completed_cell_antidiagonals if slices else 0

        traffic = MemoryTraffic()
        # Packed-sequence reads: one reference + one query word per block.
        traffic.global_reads += self._sequence_read_traffic(profile, blocks)
        # Intermediate values crossing chunk-pass boundaries: the bottom
        # row of each pass (H and F for every in-band column) is written
        # and read back, coalesced into 8-value transactions.
        traffic.global_reads += passes * band / 4.0
        traffic.global_writes += passes * band / 4.0

        if self.target == "mm2":
            # Naive exact guiding: every cell folds its value into the
            # per-anti-diagonal maximum kept in global memory (the
            # AR_anti ~ 1 term of the paper's model) ...
            traffic.global_writes += blocks * block_cells
            # ... and after each pass the newly completed anti-diagonals
            # are reduced and checked against the Z-drop condition.
            traffic.global_reads += completed / 8.0
            traffic.termination_checks += completed
            traffic.reductions += passes

        return TaskWorkload(
            task_id=task.task_id,
            cells=float(blocks * block_cells),
            ideal_cells=float(profile.cells_computed),
            idle_cell_slots=float(idle_blocks * block_cells),
            traffic=traffic,
            steps=passes,
        )


class BaselineExactKernel(SALoBaKernel):
    """The naive exact implementation of the guided algorithm.

    This is the "Baseline" of the ablation study (Figure 9) and the
    "Baseline (MM2-Target)" of the motivational study (Figure 3a): the
    state-of-the-art intra-query-parallel design with the reference
    guiding bolted on without any of AGAThA's schemes.
    """

    name = "Baseline"

    def __init__(self, config: KernelConfig | None = None):
        super().__init__(config, target="mm2")
