"""Manymap-style anti-diagonal-wise kernel.

Manymap (Feng et al., ICPP'19) ports Minimap2's extension kernel to the
GPU by computing the banded table strictly anti-diagonal by anti-diagonal
with a full warp (or block) per alignment.  That removes run-ahead
entirely -- the termination condition can be evaluated after every
anti-diagonal -- but has two costs the paper highlights:

* the intermediate wavefronts live in global memory and their access
  pattern is strided, so the kernel is memory-bound;
* it processes one alignment at a time (the paper's authors fixed it to
  accept multiple reads in parallel via CUDA streams), so utilisation is
  poor compared to subwarp-based designs.

Variants:

* ``target="diff"`` -- Manymap's own, *inexact* interpretation of the
  termination condition: the diagonal-offset correction term of Z-drop is
  dropped, so the check degenerates to an X-drop-like comparison and may
  terminate earlier or later than the reference.
* ``target="mm2"`` -- the corrected, exact condition.
"""

from __future__ import annotations

import numpy as np

from repro.align.types import AlignmentProfile, AlignmentTask
from repro.gpusim.device import CostModel, DeviceSpec
from repro.gpusim.trace import MemoryTraffic, TaskWorkload
from repro.kernels.base import GuidedKernel, KernelConfig

__all__ = ["ManymapKernel"]


class ManymapKernel(GuidedKernel):
    """Full-warp-per-alignment, anti-diagonal-wise kernel."""

    name = "Manymap"

    #: Fraction of the device's warp slots the stream-based launch manages
    #: to keep busy (Manymap processes alignments through a small number of
    #: CUDA streams rather than one packed grid).
    stream_occupancy: float = 0.9

    def __init__(self, config: KernelConfig | None = None, target: str = "diff"):
        config = (config or KernelConfig()).replace(subwarp_size=32)
        super().__init__(config)
        if target not in {"diff", "mm2"}:
            raise ValueError("target must be 'diff' or 'mm2'")
        self.target = target
        self.exact = target == "mm2"

    # ------------------------------------------------------------------
    def run(self, tasks):
        """Scores: exact for MM2-target, inexact X-drop-like for Diff-target."""
        if self.target == "mm2":
            return super().run(tasks)
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
        cells = float(cells_per_antidiag.sum())
        antidiags = profile.antidiagonals_processed
        if self.target == "diff":
            # Manymap's own looser interpretation of the condition stops
            # later than exact Z-drop on the terminating alignments, which
            # is why the paper observes the MM2-target port to be the one
            # baseline that (slightly) benefits from exactness.
            cells *= 1.35
            antidiags = int(antidiags * 1.35)
        threads = self.config.subwarp_size

        # The warp advances anti-diagonal by anti-diagonal; lanes beyond the
        # anti-diagonal's in-band width idle, and partial last groups idle.
        steps = np.ceil(cells_per_antidiag / threads)
        idle = float(steps.sum() * threads - cells)

        traffic = MemoryTraffic()
        # Sequence reads: one packed word per 8 cells per side.
        traffic.global_reads += cells / 8.0
        # The H/E/F wavefronts round-trip through global memory between
        # anti-diagonals; accesses along an anti-diagonal are strided but a
        # fraction of them still falls into common sectors.
        traffic.global_reads += cells / 8.0
        traffic.global_writes += cells / 8.0
        # Per-anti-diagonal maximum: a warp reduction and one global write,
        # then the termination check.
        traffic.reductions += antidiags
        traffic.global_writes += antidiags / 8.0
        traffic.termination_checks += antidiags

        return TaskWorkload(
            task_id=task.task_id,
            cells=cells,
            ideal_cells=float(profile.cells_computed),
            idle_cell_slots=idle,
            traffic=traffic,
            steps=antidiags,
        )

    # ------------------------------------------------------------------
    def simulate(self, tasks, device=None, cost=None):
        """Simulate with the stream-limited occupancy of the original code."""
        from repro.gpusim.device import RTX_A6000

        device = device or RTX_A6000
        limited = device.replace(
            resident_warps_per_sm=max(
                1, int(device.resident_warps_per_sm * self.stream_occupancy)
            )
        )
        return super().simulate(tasks, limited, cost)
