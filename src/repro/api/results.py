"""Typed result objects returned by the :class:`repro.api.Session` façade.

The legacy entry points returned ad-hoc shapes -- bare lists,
``dict``-of-``dict`` summaries, ``(device, cpu)`` tuples.  The façade
returns small frozen dataclasses instead; each one keeps a lossless
``to_dict()`` view that reproduces the legacy shape bit for bit, which
is what the golden-equivalence suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, TYPE_CHECKING

from repro.align.traceback import TracebackResult
from repro.align.types import AlignmentResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.gpusim.trace import KernelLaunchStats
    from repro.pipeline.mapper import ReadMapping

__all__ = [
    "AlignmentOutcome",
    "KernelSummary",
    "CpuSummary",
    "ComparisonOutcome",
    "SimulationOutcome",
    "MappingOutcome",
]


@dataclass(frozen=True)
class AlignmentOutcome:
    """A scored workload: which engine ran and what it produced.

    ``cigars`` is populated only when the workload was scored with
    ``cigars=True``: one traceback per task, in task order, from the
    batched traceback sweep, whose own alignment result for each task is
    cross-checked field by field against the engine result (see
    :func:`repro.align.traceback.batch_traceback`).
    """

    engine: str
    batch_size: int
    results: Tuple[AlignmentResult, ...]
    cigars: Optional[Tuple[TracebackResult, ...]] = None

    @property
    def scores(self) -> List[int]:
        """Alignment scores in task order."""
        return [result.score for result in self.results]

    @property
    def cigar_strings(self) -> List[str]:
        """Rendered CIGAR strings in task order.

        Raises ``ValueError`` when the workload was scored without
        ``cigars=True`` (scores exist, but no paths were reconstructed).
        """
        if self.cigars is None:
            raise ValueError(
                "no CIGARs were emitted; score the workload with "
                "cigars=True to replay winners through the traceback"
            )
        return [tb.cigar.to_string() for tb in self.cigars]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[AlignmentResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> AlignmentResult:
        return self.results[index]


@dataclass(frozen=True)
class KernelSummary:
    """One simulated kernel launch, as the benchmark reporters consume it.

    Field-for-field the mapping :meth:`KernelLaunchStats.summary` returns,
    plus the ``speedup_vs_cpu`` the comparison harness appends (``None``
    when no CPU anchor was involved, e.g. :meth:`Session.simulate`).
    """

    kernel: str
    device: str
    time_ms: float
    latency_bound_ms: float
    bandwidth_bound_ms: float
    warps: int
    cells: int
    runahead_cells: int
    global_words: float
    shared_accesses: float
    imbalance: float
    rejoin_events: int
    speedup_vs_cpu: Optional[float] = None

    @classmethod
    def from_summary(cls, summary: Mapping[str, object]) -> "KernelSummary":
        """Build from a legacy ``stats.summary()``-shaped mapping."""
        return cls(**{k: summary[k] for k in summary})  # type: ignore[arg-type]

    def to_dict(self) -> Dict[str, object]:
        """The legacy summary mapping, bit-identical to the old harness."""
        out: Dict[str, object] = {
            "kernel": self.kernel,
            "device": self.device,
            "time_ms": self.time_ms,
            "latency_bound_ms": self.latency_bound_ms,
            "bandwidth_bound_ms": self.bandwidth_bound_ms,
            "warps": self.warps,
            "cells": self.cells,
            "runahead_cells": self.runahead_cells,
            "global_words": self.global_words,
            "shared_accesses": self.shared_accesses,
            "imbalance": self.imbalance,
            "rejoin_events": self.rejoin_events,
        }
        if self.speedup_vs_cpu is not None:
            out["speedup_vs_cpu"] = self.speedup_vs_cpu
        return out


@dataclass(frozen=True)
class CpuSummary:
    """The CPU anchor of a comparison (always speedup 1.0)."""

    kernel: str
    time_ms: float
    speedup_vs_cpu: float = 1.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "time_ms": self.time_ms,
            "speedup_vs_cpu": self.speedup_vs_cpu,
        }


@dataclass(frozen=True)
class ComparisonOutcome:
    """One suite simulated over one workload, anchored to the CPU."""

    cpu: CpuSummary
    kernels: Mapping[str, KernelSummary]

    def speedups(self) -> Dict[str, float]:
        """Per-kernel speedup over the CPU anchor."""
        return {
            name: summary.speedup_vs_cpu
            for name, summary in self.kernels.items()
            if summary.speedup_vs_cpu is not None
        }

    def __getitem__(self, kernel: str) -> KernelSummary:
        return self.kernels[kernel]

    def __iter__(self) -> Iterator[str]:
        return iter(self.kernels)

    def __len__(self) -> int:
        return len(self.kernels)

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """The plain ``name -> summary`` mapping (CPU anchor first)."""
        out: Dict[str, Dict[str, object]] = {"CPU": self.cpu.to_dict()}
        for name, summary in self.kernels.items():
            out[name] = summary.to_dict()
        return out


@dataclass(frozen=True)
class SimulationOutcome:
    """One kernel launch simulated over a workload."""

    kernel: str
    stats: "KernelLaunchStats"

    @property
    def time_ms(self) -> float:
        return self.stats.time_ms

    @property
    def summary(self) -> KernelSummary:
        """Typed view of ``stats.summary()`` (no CPU anchor)."""
        return KernelSummary.from_summary(self.stats.summary())


@dataclass(frozen=True)
class MappingOutcome:
    """A batch of reads mapped end to end."""

    mappings: Tuple["ReadMapping", ...]

    @property
    def mapped(self) -> List["ReadMapping"]:
        """The successfully mapped subset, in read order."""
        return [m for m in self.mappings if m.mapped]

    @property
    def num_mapped(self) -> int:
        return len(self.mapped)

    def __len__(self) -> int:
        return len(self.mappings)

    def __iter__(self) -> Iterator["ReadMapping"]:
        return iter(self.mappings)

    def __getitem__(self, index: int) -> "ReadMapping":
        return self.mappings[index]
