"""CPU reference aligners (Minimap2- and BWA-MEM-style).

A :class:`CpuAligner` combines the exact guided alignment engine with a
:class:`~repro.baselines.cpu_model.CpuSpec` throughput model.  ``run``
returns the exact scores (identical to the oracle); ``time_ms`` returns
the wall-clock estimate for a batch of tasks, which is what every speedup
in the benchmark harness is normalised against.

The distinction between the Minimap2 and BWA-MEM flavours is carried by
the *tasks* (their scoring schemes hold the different band widths and
termination thresholds); the subclasses exist so reports carry the right
name and so the BWA-MEM experiment of Section 5.9 reads naturally.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.align.types import AlignmentResult, AlignmentTask
from repro.align.vector import task_profiles
from repro.baselines.cpu_model import CpuSpec, EPYC_16C_SSE4

__all__ = ["CpuAligner", "Minimap2CpuAligner", "BwaMemCpuAligner"]


class CpuAligner:
    """Exact guided aligner with a multi-core SIMD cost model."""

    name = "CPU"

    def __init__(self, cpu: CpuSpec | None = None):
        self.cpu = cpu or EPYC_16C_SSE4

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[AlignmentTask]) -> List[AlignmentResult]:
        """Exact alignment results (the reference output)."""
        return [profile.result for profile in task_profiles(tasks)]

    # ------------------------------------------------------------------
    def total_cells(self, tasks: Sequence[AlignmentTask]) -> float:
        """Banded cells the guided algorithm computes (no run-ahead: the
        CPU checks the termination condition after every anti-diagonal)."""
        return float(sum(p.cells_computed for p in task_profiles(tasks)))

    def time_ms(self, tasks: Sequence[AlignmentTask]) -> float:
        """Wall-clock estimate of aligning ``tasks`` on this machine."""
        return self.cpu.time_ms(self.total_cells(tasks))

    @property
    def display_name(self) -> str:
        return f"{self.name} ({self.cpu.name})"

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(cpu={self.cpu.name!r})"


class Minimap2CpuAligner(CpuAligner):
    """Minimap2's guided extension kernel on the CPU (the default anchor)."""

    name = "Minimap2"


class BwaMemCpuAligner(CpuAligner):
    """BWA-MEM's guided extension kernel on the CPU (Section 5.9)."""

    name = "BWA-MEM"
