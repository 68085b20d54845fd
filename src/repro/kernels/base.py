"""Common machinery for the simulated GPU alignment kernels.

Every kernel design in this package -- the Section 5.2 baselines and
AGAThA itself -- is expressed in the same two-part form:

* :meth:`GuidedKernel.run` produces the *alignment results* (scores).  For
  exact kernels the scheduling scheme cannot change the arithmetic, so the
  scores come from one batched sweep of the shared vector engine
  (:func:`repro.align.vector.vector_align`) and must equal the scalar
  oracle bit for bit (that is the paper's "exactness" claim and the test
  suite enforces it).  Diff-Target kernels (LOGAN's X-drop, Manymap's
  inexact termination, banding-only GASAL2/SALoBa) run the same sweep
  under their own termination condition and may legitimately differ.
* :meth:`GuidedKernel.simulate` produces a :class:`KernelLaunchStats` for a
  device: how many cells the design computes (run-ahead included), what
  memory traffic it issues and how its warps are loaded.  This is where
  the designs differ and where the speedups of the paper come from.

Subclasses implement :meth:`task_workload` (per-task cells + traffic) and
may override :meth:`order_tasks` (scheduling) and :meth:`warp_cycles`
(intra-warp combination, e.g. subwarp rejoining).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from typing import List, Sequence

from repro.align.blocks import BlockGrid
from repro.align.types import AlignmentProfile, AlignmentResult, AlignmentTask
from repro.align.vector import DEFAULT_BUCKET_SIZE, vector_align
from repro.gpusim.device import CostModel, DeviceSpec, RTX_A6000
from repro.gpusim.executor import GpuExecutor
from repro.gpusim.trace import (
    KernelLaunchStats,
    SubwarpWork,
    TaskWorkload,
    WarpWork,
)
from repro.gpusim.warp import WarpAssignment, split_warp
from repro.core.uneven_bucketing import assign_tasks_to_warps

__all__ = ["KernelConfig", "GuidedKernel"]


@dataclass(frozen=True)
class KernelConfig:
    """Launch-geometry knobs shared by all kernel designs.

    Attributes
    ----------
    subwarp_size:
        Threads per subwarp (8 in AGAThA's default configuration; the
        Section 5.7 study sweeps 8/16/32).
    block_size:
        Cells per block edge (8, from the 4-bit input packing).
    slice_width:
        Sliced-diagonal slice width in blocks (AGAThA settles on 3).
    tasks_per_subwarp:
        Batching factor: how many tasks one subwarp slot processes
        sequentially before the launch is considered a new wave.  The
        executor's warp-slot scheduling already models queuing, so this is
        left at 1 unless a kernel needs grid-stride batching.
    batch_bucket_size:
        Tasks swept simultaneously by the vector engine
        (:mod:`repro.align.vector`) that scores every kernel's tasks.
    """

    subwarp_size: int = 8
    block_size: int = 8
    slice_width: int = 3
    tasks_per_subwarp: int = 1
    batch_bucket_size: int = DEFAULT_BUCKET_SIZE

    def replace(self, **changes) -> "KernelConfig":
        """Return a copy with the given fields replaced."""
        return _dc_replace(self, **changes)

    @property
    def subwarps_per_warp(self) -> int:
        return split_warp(self.subwarp_size)


class GuidedKernel:
    """Base class of all simulated GPU alignment kernels."""

    #: Human-readable kernel name used in reports.
    name: str = "kernel"
    #: Whether the kernel reproduces the reference guided algorithm exactly.
    exact: bool = True
    #: Which algorithm the kernel targets: "mm2" (reference guiding) or
    #: "diff" (the kernel's original, different heuristics).
    target: str = "mm2"

    def __init__(self, config: KernelConfig | None = None):
        self.config = config or KernelConfig()

    # ------------------------------------------------------------------
    # score computation
    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[AlignmentTask]) -> List[AlignmentResult]:
        """Compute alignment scores for every task.

        Exact kernels share the wavefront engine; the scheduling scheme
        affects *when* cells are computed, never their values, so this is
        the faithful output of the simulated kernel.  Uncached tasks are
        scored by the struct-of-arrays vector engine in one sweep per
        bucket; the results are bit-identical to the scalar path.
        """
        self._ensure_profiles(tasks)
        return [task.profile().result for task in tasks]

    def _ensure_profiles(self, tasks: Sequence[AlignmentTask]) -> None:
        """Prime the per-task profile caches in one batched sweep.

        Tasks that already carry a cached profile are left untouched; the
        remainder is swept by the vector engine and the resulting profiles
        (bit-identical to the scalar engine's) are cached on the tasks so
        every later consumer -- scoring, workload accounting, other
        kernels -- reuses them.
        """
        missing = [task for task in tasks if task._profile is None]
        if not missing:
            return
        profiles = vector_align(
            missing,
            bucket_size=self.config.batch_bucket_size,
            return_profiles=True,
        )
        for task, profile in zip(missing, profiles):
            task._profile = profile

    def _batched_scores(
        self, tasks: Sequence[AlignmentTask], termination: str
    ) -> List[AlignmentResult]:
        """Batched scoring under a non-default termination condition.

        Used by the Diff-Target kernels (X-drop / no-termination guiding);
        those results deliberately differ from the cached Z-drop profiles,
        so they are computed fresh and not cached on the tasks.
        """
        return vector_align(
            tasks,
            termination=termination,
            bucket_size=self.config.batch_bucket_size,
        )

    # ------------------------------------------------------------------
    # workload accounting -- subclasses implement
    # ------------------------------------------------------------------
    def task_workload(
        self,
        task: AlignmentTask,
        profile: AlignmentProfile,
        device: DeviceSpec,
        cost: CostModel,
    ) -> TaskWorkload:
        """Cells and traffic this design spends on one task."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # scheduling -- overridable
    # ------------------------------------------------------------------
    def order_tasks(
        self, tasks: Sequence[AlignmentTask], profiles: Sequence[AlignmentProfile]
    ):
        """Task order (flat list of indices) or per-warp buckets.

        The default is the input order, which is exactly the behaviour the
        paper criticises for inter-warp imbalance.
        """
        return list(range(len(tasks)))

    def assign_warps(
        self, tasks: Sequence[AlignmentTask], profiles: Sequence[AlignmentProfile]
    ) -> List[WarpAssignment]:
        """Materialise the task-to-warp/subwarp assignment."""
        order = self.order_tasks(tasks, profiles)
        return assign_tasks_to_warps(order, self.config.subwarp_size)

    def warp_cycles(
        self,
        assignment: WarpAssignment,
        workloads: Sequence[TaskWorkload],
        device: DeviceSpec,
        cost: CostModel,
    ) -> tuple[float, int]:
        """Latency of one warp and the number of rejoin events.

        Default: subwarps drain their queues independently and the warp
        finishes with its slowest subwarp (the ``MAX`` combination of the
        paper's model).
        """
        sub_cycles = []
        for sw in assignment.subwarps:
            total = 0.0
            for idx in sw.task_indices:
                total += workloads[idx].cycles(device, cost, sw.threads)
            sub_cycles.append(total)
        return (max(sub_cycles, default=0.0), 0)

    # ------------------------------------------------------------------
    # simulation driver
    # ------------------------------------------------------------------
    def simulate(
        self,
        tasks: Sequence[AlignmentTask],
        device: DeviceSpec = RTX_A6000,
        cost: CostModel | None = None,
    ) -> KernelLaunchStats:
        """Simulate one launch of this kernel over ``tasks`` on ``device``."""
        cost = cost or CostModel()
        self._ensure_profiles(tasks)
        profiles = [task.profile() for task in tasks]
        workloads = [
            self.task_workload(task, profile, device, cost)
            for task, profile in zip(tasks, profiles)
        ]
        warps = self.assign_warps(tasks, profiles)
        warp_works: List[WarpWork] = []
        for assignment in warps:
            work = WarpWork(warp_id=assignment.warp_id)
            for sw in assignment.subwarps:
                work.subwarps.append(
                    SubwarpWork(
                        subwarp_id=sw.subwarp_id,
                        threads=sw.threads,
                        workloads=[workloads[i] for i in sw.task_indices],
                    )
                )
            cycles, rejoins = self.warp_cycles(assignment, workloads, device, cost)
            work.cycles = cycles
            work.rejoin_events = rejoins
            warp_works.append(work)
        stats = KernelLaunchStats(
            kernel_name=self.display_name, device_name=device.name, warps=warp_works
        )
        GpuExecutor(device, cost).execute(stats)
        return stats

    # ------------------------------------------------------------------
    @property
    def display_name(self) -> str:
        """Name plus target annotation, e.g. ``"SALoBa (MM2-Target)"``."""
        suffix = "MM2-Target" if self.target == "mm2" else "Diff-Target"
        return f"{self.name} ({suffix})"

    # ------------------------------------------------------------------
    # shared helpers for subclasses
    # ------------------------------------------------------------------
    def _block_grid(self, profile: AlignmentProfile) -> BlockGrid:
        return BlockGrid(profile.geometry, self.config.block_size)

    @staticmethod
    def _sequence_read_traffic(profile: AlignmentProfile, blocks: float) -> float:
        """Packed-sequence reads: one reference word and one query word per
        block (they are reused across the block's 64 cells)."""
        return 2.0 * blocks

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(config={self.config})"
