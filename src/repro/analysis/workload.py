"""Workload-distribution analysis (Figures 3b and 12).

Figure 3(b) plots, for one dataset, the distribution of per-task workload
(the paper measures it in anti-diagonals): most alignments are small, but
a heavy tail of tasks is orders of magnitude larger and those dominate the
total work.  Figure 12 plots how many blocks each *subwarp/thread* ends up
computing under the different balancing schemes -- the mechanism by which
subwarp rejoining and uneven bucketing flatten the same tail.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.align.blocks import DEFAULT_BLOCK_SIZE
from repro.align.types import AlignmentTask
from repro.align.vector import task_profiles
from repro.gpusim.trace import KernelLaunchStats

__all__ = [
    "task_workload_antidiagonals",
    "workload_histogram",
    "per_subwarp_block_distribution",
    "long_task_fraction",
]


def task_workload_antidiagonals(tasks: Sequence[AlignmentTask]) -> np.ndarray:
    """Per-task workload in processed anti-diagonals (Figure 3b's measure)."""
    return np.asarray(
        [p.antidiagonals_processed for p in task_profiles(tasks)], dtype=np.int64
    )


def workload_histogram(
    workloads: Sequence[float], num_bins: int = 20, bin_width: float | None = None
) -> Dict[str, np.ndarray]:
    """Histogram of per-task workloads with accumulated workload per bin.

    Returns the bin edges, the task count per bin (Figure 3b's
    "alignment count") and the summed workload per bin ("amount of
    workload"), the two series of the paper's plot.
    """
    w = np.asarray(list(workloads), dtype=np.float64)
    if w.size == 0:
        edges = np.zeros(1)
        empty = np.zeros(0)
        return {"bin_edges": edges, "task_count": empty, "total_workload": empty}
    if bin_width is not None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        top = float(w.max()) + bin_width
        edges = np.arange(0.0, top + bin_width, bin_width)
    else:
        edges = np.linspace(0.0, float(w.max()) * 1.0001, num_bins + 1)
    counts, _ = np.histogram(w, bins=edges)
    sums, _ = np.histogram(w, bins=edges, weights=w)
    return {"bin_edges": edges, "task_count": counts, "total_workload": sums}


def per_subwarp_block_distribution(stats: KernelLaunchStats) -> np.ndarray:
    """Blocks computed per subwarp slot in one simulated launch.

    This is the quantity Figure 12 accumulates: with the original ordering
    a few subwarps process enormous block counts; subwarp rejoining and
    uneven bucketing shift the distribution toward many subwarps with
    moderate counts.
    """
    blocks: List[float] = []
    cells_per_block = float(DEFAULT_BLOCK_SIZE * DEFAULT_BLOCK_SIZE)
    for warp in stats.warps:
        for sw in warp.subwarps:
            total = sum(wl.cells for wl in sw.workloads)
            blocks.append(total / cells_per_block)
    return np.asarray(blocks, dtype=np.float64)


def long_task_fraction(
    workloads: Sequence[float], threshold_quantile: float = 0.9
) -> float:
    """Fraction of the *total* workload carried by tasks above a quantile.

    The paper observes that the top 5-20 % of alignments carry the far
    right peak of Figure 3(b); this helper quantifies that concentration
    for the synthetic datasets so tests can assert the tail exists.
    """
    w = np.asarray(list(workloads), dtype=np.float64)
    if w.size == 0 or w.sum() == 0:
        return 0.0
    if not 0.0 < threshold_quantile < 1.0:
        raise ValueError("threshold_quantile must be in (0, 1)")
    cutoff = np.quantile(w, threshold_quantile)
    return float(w[w >= cutoff].sum() / w.sum())
