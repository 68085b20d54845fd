"""Warp and subwarp composition.

CUDA executes threads in warps of 32; the aligner kernels subdivide warps
into *subwarps* (8 threads by default) and assign one alignment task to
each subwarp (Section 2.2, Figure 2c).  This module provides the small
amount of structure the kernel simulations need:

* :func:`split_warp` -- how many subwarps a warp holds for a given subwarp
  size, validating the divisibility constraints;
* :class:`SubwarpSlot` -- a queue of task indices assigned to one subwarp;
* :class:`WarpAssignment` -- the full task-to-subwarp map of one warp,
  produced by the schedulers in :mod:`repro.core.uneven_bucketing` and
  consumed by the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["WARP_SIZE", "split_warp", "SubwarpSlot", "WarpAssignment"]

#: Threads per hardware warp.
WARP_SIZE: int = 32


def split_warp(subwarp_size: int) -> int:
    """Number of subwarps a 32-thread warp is split into.

    ``subwarp_size`` must divide 32 (the hardware constraint the paper's
    Section 5.7 sensitivity study sweeps: 8, 16 and 32).
    """
    if subwarp_size <= 0:
        raise ValueError("subwarp_size must be positive")
    if WARP_SIZE % subwarp_size != 0:
        raise ValueError(
            f"subwarp_size must divide the warp size ({WARP_SIZE}); got {subwarp_size}"
        )
    return WARP_SIZE // subwarp_size


@dataclass
class SubwarpSlot:
    """Task queue of one subwarp within a warp."""

    subwarp_id: int
    threads: int
    task_indices: List[int] = field(default_factory=list)

    def assign(self, task_index: int) -> None:
        """Append a task to this subwarp's queue."""
        self.task_indices.append(task_index)

    @property
    def num_tasks(self) -> int:
        return len(self.task_indices)


@dataclass
class WarpAssignment:
    """Task-to-subwarp assignment of one warp."""

    warp_id: int
    subwarps: List[SubwarpSlot]

    @classmethod
    def empty(cls, warp_id: int, subwarp_size: int) -> "WarpAssignment":
        """Create a warp with empty subwarp queues."""
        num = split_warp(subwarp_size)
        slots = [SubwarpSlot(subwarp_id=k, threads=subwarp_size) for k in range(num)]
        return cls(warp_id=warp_id, subwarps=slots)

    @property
    def num_subwarps(self) -> int:
        return len(self.subwarps)

    @property
    def task_indices(self) -> List[int]:
        """All task indices handled by this warp, subwarp-major."""
        out: List[int] = []
        for sw in self.subwarps:
            out.extend(sw.task_indices)
        return out

    @property
    def num_tasks(self) -> int:
        return sum(sw.num_tasks for sw in self.subwarps)
