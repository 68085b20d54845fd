"""Rolling-window tracking of anti-diagonal maxima (paper Section 4.1).

The termination condition needs, for every anti-diagonal, the maximum
``H`` value over the cells of that anti-diagonal.  When threads sweep the
table block by block, the cells of one anti-diagonal are computed by
different threads at different times, so the partial maxima must be kept
somewhere until the anti-diagonal is complete.  Storing them directly in
global memory (what a naive exact port does, Section 3.1) costs one global
transaction per cell; the rolling window instead keeps them in a small
shared-memory table -- the **local maximum buffer (LMB)** -- laid out as
``window_rows x num_threads``:

* each thread owns one column and updates only its own entries (no bank
  conflicts, no atomics);
* the window covers the anti-diagonals spanned by the blocks currently in
  flight (``3 * block_size`` rows in the paper's configuration, or the
  whole slice when sliced-diagonal tiling makes that small enough);
* when every cell of the leading anti-diagonals has been computed, those
  rows are *spilled*: a warp max-reduction collapses the per-thread values
  and the result is written (coalesced) to the **global maximum buffer
  (GMB)**, after which the rows are cleared and the window rolls forward.

:class:`RollingWindowTracker` is a functional implementation of exactly
that protocol and the correctness oracle of Section 4.1.  The unit and
property tests drive it with arbitrary cell-completion orders, and in the
sliced-diagonal traversal order with the window that
:class:`~repro.core.sliced_diagonal.SliceWork` requires, and assert that
no cell falls outside the window and that the GMB ends up identical to
the directly computed anti-diagonal maxima.  The kernel simulations do
not run it: :meth:`repro.kernels.agatha.AgathaKernel.task_workload`
charges closed-form rolling-window traffic, which differs from this
tracker's operation counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.termination import NEG_INF

__all__ = ["RollingWindowStats", "RollingWindowTracker"]


@dataclass
class RollingWindowStats:
    """Operation counts accumulated by a :class:`RollingWindowTracker`."""

    #: Shared-memory accesses (every read-modify-write of an LMB entry).
    shared_accesses: int = 0
    #: Warp/subwarp max-reductions performed while spilling.
    reductions: int = 0
    #: 32-bit words written to the GMB in global memory.
    global_writes: int = 0
    #: Number of times the window rolled forward.
    rolls: int = 0


class RollingWindowTracker:
    """Shared-memory rolling window over anti-diagonal partial maxima.

    Parameters
    ----------
    num_threads:
        Threads of the subwarp (columns of the LMB).
    window_rows:
        Anti-diagonals the window covers at once (rows of the LMB).  The
        paper uses ``3 * block_size``; with sliced-diagonal tiling a window
        covering the whole slice eliminates spills entirely.
    num_antidiagonals:
        Total anti-diagonals of the task; defines the GMB size.
    """

    def __init__(self, num_threads: int, window_rows: int, num_antidiagonals: int):
        if num_threads <= 0:
            raise ValueError("num_threads must be positive")
        if window_rows <= 0:
            raise ValueError("window_rows must be positive")
        if num_antidiagonals < 0:
            raise ValueError("num_antidiagonals must be non-negative")
        self.num_threads = num_threads
        self.window_rows = window_rows
        self.num_antidiagonals = num_antidiagonals

        #: First anti-diagonal currently covered by the window.
        self.window_base = 0
        #: The LMB: ``window_rows x num_threads`` of partial maxima.
        self.lmb = np.full((window_rows, num_threads), NEG_INF, dtype=np.int64)
        #: The GMB in (simulated) global memory: one maximum per anti-diagonal.
        self.gmb = np.full(num_antidiagonals, NEG_INF, dtype=np.int64)
        self.stats = RollingWindowStats()

    # ------------------------------------------------------------------
    def covers(self, antidiag: int) -> bool:
        """Whether ``antidiag`` currently falls inside the window."""
        return self.window_base <= antidiag < self.window_base + self.window_rows

    # ------------------------------------------------------------------
    def record(self, thread: int, antidiag: int, value: int) -> None:
        """Fold ``value`` into ``thread``'s partial maximum of ``antidiag``.

        The anti-diagonal must lie inside the current window; the kernel
        guarantees this by construction (the window spans the blocks in
        flight) and the tracker enforces it so that tests catch traversals
        that violate the invariant.
        """
        if not 0 <= thread < self.num_threads:
            raise IndexError(f"thread {thread} out of range")
        if not 0 <= antidiag < self.num_antidiagonals:
            raise IndexError(f"anti-diagonal {antidiag} out of range")
        if not self.covers(antidiag):
            raise ValueError(
                f"anti-diagonal {antidiag} outside window "
                f"[{self.window_base}, {self.window_base + self.window_rows})"
            )
        row = antidiag - self.window_base
        if value > self.lmb[row, thread]:
            self.lmb[row, thread] = value
        self.stats.shared_accesses += 1

    # ------------------------------------------------------------------
    def spill(self, completed_rows: int) -> np.ndarray:
        """Spill the leading ``completed_rows`` window rows to the GMB.

        Every spilled row is max-reduced across threads (one reduction per
        row), merged into the GMB with a coalesced write, cleared, and the
        window rolls forward by ``completed_rows``.

        Returns the reduced maxima of the spilled anti-diagonals.
        """
        if completed_rows < 0:
            raise ValueError("completed_rows must be non-negative")
        if completed_rows == 0:
            return np.empty(0, dtype=np.int64)
        if completed_rows > self.window_rows:
            raise ValueError("cannot spill more rows than the window holds")
        reduced = self.lmb[:completed_rows].max(axis=1)
        start = self.window_base
        stop = min(start + completed_rows, self.num_antidiagonals)
        if stop > start:
            np.maximum(self.gmb[start:stop], reduced[: stop - start], out=self.gmb[start:stop])
            self.stats.global_writes += stop - start
        self.stats.reductions += completed_rows
        # Roll: drop the spilled rows, shift the rest up, clear the tail.
        remaining = self.lmb[completed_rows:].copy()
        self.lmb[: self.window_rows - completed_rows] = remaining
        self.lmb[self.window_rows - completed_rows :] = NEG_INF
        self.window_base += completed_rows
        self.stats.rolls += 1
        return reduced

    def flush(self) -> None:
        """Spill whatever the window still holds (end of the task)."""
        remaining = min(self.window_rows, self.num_antidiagonals - self.window_base)
        if remaining > 0:
            self.spill(remaining)

    # ------------------------------------------------------------------
    def antidiagonal_maxima(self) -> np.ndarray:
        """Current contents of the GMB (NEG_INF where never updated)."""
        return self.gmb.copy()
