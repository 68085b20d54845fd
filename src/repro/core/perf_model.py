"""Analytic performance model of the AGAThA design points (Table 1).

The paper summarises each design's expected latency with a closed-form
model:

.. code-block:: text

    Latency = Combine_Warps( Combine_Subwarps(
        Cells * ( 1/Comp.TP  +  (AR_anti + AR_inter + AR_term) / Mem.TP ) ))

where ``Cells`` is the number of score-table cells a subwarp computes
(including run-ahead), ``Comp.TP`` / ``Mem.TP`` are compute and memory
throughputs, and the ``AR_*`` terms are the fraction of cells that issue a
global-memory access for anti-diagonal maxima, intermediate values and
termination checks respectively.  The design points differ in which terms
shrink (or grow) and in whether the subwarp / warp combination is
dominated by the maximum (imbalanced) or the average (balanced):

=================  =========================================================
design             change relative to the previous row
=================  =========================================================
``baseline``       AR_anti ~ 1, AR_inter ~ 1/8, AR_term ~ 1/band_width,
                   large run-ahead, MAX over subwarps, MAX over warps
``+RW``            AR_anti drops to ~1/block_size (shared-memory window)
``+RW+SD``         Cells drop (run-ahead bounded by slice), AR_anti and
                   AR_term drop further, AR_inter grows slightly
``+RW+SD+SR``      subwarp combination becomes an average (work stealing)
``+RW+SD+SR+UB``   warp combination becomes an average (uneven bucketing)
=================  =========================================================

The model is *relative*: it predicts ordering and rough ratios, not
milliseconds.  The benchmark ``benchmarks/test_table1_perf_model.py``
checks that the model and the full simulator agree on the ranking of the
design points and on the direction of every per-scheme change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.align.blocks import DEFAULT_BLOCK_SIZE

__all__ = ["DesignPoint", "WorkloadSummary", "PerformanceModel", "DESIGN_LADDER"]


@dataclass(frozen=True)
class DesignPoint:
    """Feature flags of one row of Table 1."""

    rolling_window: bool = False
    sliced_diagonal: bool = False
    subwarp_rejoining: bool = False
    uneven_bucketing: bool = False

    @property
    def label(self) -> str:
        """Row label in the paper's notation."""
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

    def validate(self) -> None:
        """The schemes build on each other in the paper's ladder."""
        if self.sliced_diagonal and not self.rolling_window:
            raise ValueError("sliced diagonal presumes rolling window")
        if self.subwarp_rejoining and not self.sliced_diagonal:
            raise ValueError("subwarp rejoining presumes sliced diagonal (slice boundaries)")
        if self.uneven_bucketing and not self.subwarp_rejoining:
            raise ValueError("uneven bucketing presumes subwarp rejoining")


#: The five rows of Table 1 in order.
DESIGN_LADDER: tuple[DesignPoint, ...] = (
    DesignPoint(),
    DesignPoint(rolling_window=True),
    DesignPoint(rolling_window=True, sliced_diagonal=True),
    DesignPoint(rolling_window=True, sliced_diagonal=True, subwarp_rejoining=True),
    DesignPoint(
        rolling_window=True,
        sliced_diagonal=True,
        subwarp_rejoining=True,
        uneven_bucketing=True,
    ),
)


@dataclass
class WorkloadSummary:
    """Per-task quantities the analytic model needs.

    Attributes
    ----------
    antidiagonals:
        Anti-diagonals processed per task under ideal (per-anti-diagonal)
        termination.
    band_width:
        Band width in cells (shared by all tasks of a dataset).
    threads_per_subwarp / subwarps_per_warp:
        Kernel launch geometry.
    slice_width:
        Sliced-diagonal slice width in blocks.
    """

    antidiagonals: np.ndarray
    band_width: int
    threads_per_subwarp: int = 8
    subwarps_per_warp: int = 4
    slice_width: int = 3

    def __post_init__(self) -> None:
        self.antidiagonals = np.asarray(self.antidiagonals, dtype=np.float64)
        if self.band_width <= 0:
            raise ValueError("band_width must be positive")

    @property
    def num_tasks(self) -> int:
        return int(self.antidiagonals.size)


@dataclass
class PerformanceModel:
    """Evaluates the Table 1 model for a workload and a design point.

    ``comp_throughput`` and ``mem_throughput`` play the role of
    ``Comp.TP`` and ``Mem.TP``; only their ratio matters for the relative
    predictions.
    """

    comp_throughput: float = 1.0
    mem_throughput: float = 0.25

    # ------------------------------------------------------------------
    def access_ratios(self, design: DesignPoint, workload: WorkloadSummary) -> dict:
        """The three ``AR`` terms for a design point."""
        design.validate()
        b = DEFAULT_BLOCK_SIZE
        w = workload.band_width
        s = workload.slice_width
        ar_anti = 1.0
        ar_inter = 1.0 / b
        ar_term = 1.0 / max(w, 1)
        if design.rolling_window:
            # With the rolling window each thread folds its cells into the
            # shared-memory LMB and only the spills touch global memory:
            # roughly one write per block row (8 cells) instead of one per
            # cell.
            ar_anti = 1.0 / b
        if design.sliced_diagonal:
            # The LMB covers the whole slice, so anti-diagonal maxima only
            # leave shared memory once per slice; the termination check is
            # evaluated per slice instead of per chunk pass; intermediate
            # values cross slice boundaries once per row per slice.
            ar_anti = 1.0 / (s * b * w)
            ar_term = 1.0 / (s * b * w)
            ar_inter = 1.0 / b + 2.0 / (s * b)
        return {"anti": ar_anti, "inter": ar_inter, "term": ar_term}

    def cells_per_task(self, design: DesignPoint, workload: WorkloadSummary) -> np.ndarray:
        """``Cells`` per task: ideal banded cells plus design run-ahead."""
        w = workload.band_width
        b = DEFAULT_BLOCK_SIZE
        t = workload.threads_per_subwarp
        ideal = workload.antidiagonals * w
        if design.sliced_diagonal:
            runahead = float(workload.slice_width * b * w)
        else:
            # Horizontal chunks: the termination condition only becomes
            # checkable about band_width/2 query rows (= band_width
            # anti-diagonals) after the cells were first touched, plus the
            # chunk-height rounding.
            runahead = float((w / 2 + t * b) * w)
        return ideal + runahead

    # ------------------------------------------------------------------
    def task_latencies(self, design: DesignPoint, workload: WorkloadSummary) -> np.ndarray:
        """Per-task subwarp latency (arbitrary units)."""
        ar = self.access_ratios(design, workload)
        cells = self.cells_per_task(design, workload)
        per_cell = 1.0 / self.comp_throughput + (
            ar["anti"] + ar["inter"] + ar["term"]
        ) / self.mem_throughput
        return cells * per_cell

    def predict(self, design: DesignPoint, workload: WorkloadSummary) -> float:
        """Relative launch latency of a design point on a workload."""
        lat = self.task_latencies(design, workload)
        n_sub = workload.subwarps_per_warp
        if lat.size == 0:
            return 0.0
        # Group tasks into warps of `subwarps_per_warp` in input order.
        pad = (-lat.size) % n_sub
        padded = np.concatenate([lat, np.zeros(pad)]) if pad else lat
        per_warp = padded.reshape(-1, n_sub)
        if design.subwarp_rejoining:
            # Work stealing is work conserving: the warp finishes when the
            # pooled work divided over all lanes is done.
            warp_lat = per_warp.sum(axis=1) / n_sub
        else:
            warp_lat = per_warp.max(axis=1)
        if design.uneven_bucketing:
            combined = float(warp_lat.mean())
        else:
            # "MeAX": dominated by the maximum -- straggler warps serialise
            # the tail of the launch.
            combined = float(0.5 * warp_lat.max() + 0.5 * warp_lat.mean())
        return combined * len(warp_lat)

    def ladder(self, workload: WorkloadSummary) -> List[tuple[str, float]]:
        """Evaluate every row of Table 1 on a workload."""
        return [(d.label, self.predict(d, workload)) for d in DESIGN_LADDER]
