"""Band geometry of the guided score table.

k-banding (paper Figure 1, yellow region) restricts the dynamic program to
a diagonal band of the score table.  All engines and kernels in this
repository share one definition of that band, provided by
:class:`BandGeometry`:

* the *band width* ``w`` is the total number of diagonals kept (the
  paper's example uses ``w = 3``);
* a cell ``(i, j)`` (``i`` indexes the reference, ``j`` the query) is in
  the band iff its diagonal ``d = i - j`` lies in
  ``[-(w // 2), -(w // 2) + w - 1]``;
* ``w = 0`` means "unbanded" -- every cell is kept.

Besides membership tests the class precomputes, for every anti-diagonal
``c = i + j``, the range of in-band query rows.  Those ranges are what the
GPU kernel simulations need to reason about *completion*: a scheduling
scheme that sweeps the table in horizontal chunks (the baseline design of
Section 2.2) can only evaluate the termination condition for
anti-diagonals whose last in-band row has already been processed, which is
exactly the run-ahead problem AGAThA's sliced-diagonal scheme attacks.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = ["BandGeometry"]


class BandGeometry:
    """Geometry of a (possibly banded) ``n x m`` score table.

    Parameters
    ----------
    ref_len:
        Number of reference characters ``n`` (table columns ``i``).
    query_len:
        Number of query characters ``m`` (table rows ``j``).
    band_width:
        Total band width ``w`` in diagonals; ``0`` disables banding.
    """

    def __init__(self, ref_len: int, query_len: int, band_width: int = 0):
        if ref_len < 0 or query_len < 0:
            raise ValueError("sequence lengths must be non-negative")
        if band_width < 0:
            raise ValueError("band_width must be non-negative")
        self.ref_len = int(ref_len)
        self.query_len = int(query_len)
        self.band_width = int(band_width)
        if self.band_width == 0:
            # Unbanded: the band covers every diagonal of the table.
            self.diag_lo = -(self.query_len - 1) if self.query_len else 0
            self.diag_hi = self.ref_len - 1 if self.ref_len else 0
        else:
            self.diag_lo = -(self.band_width // 2)
            self.diag_hi = self.diag_lo + self.band_width - 1

    # ------------------------------------------------------------------
    # basic quantities
    # ------------------------------------------------------------------
    @property
    def num_antidiagonals(self) -> int:
        """Number of anti-diagonals in the full table (``n + m - 1``)."""
        if self.ref_len == 0 or self.query_len == 0:
            return 0
        return self.ref_len + self.query_len - 1

    def in_band(self, i: int, j: int) -> bool:
        """Whether cell ``(i, j)`` lies inside the table and the band."""
        if not (0 <= i < self.ref_len and 0 <= j < self.query_len):
            return False
        d = i - j
        return self.diag_lo <= d <= self.diag_hi

    # ------------------------------------------------------------------
    # per anti-diagonal ranges
    # ------------------------------------------------------------------
    def row_range(self, c: int) -> tuple[int, int]:
        """Inclusive range ``(j_lo, j_hi)`` of in-band query rows on
        anti-diagonal ``c``; returns an empty range (``j_lo > j_hi``) when
        no cell of that anti-diagonal is in the band."""
        if not 0 <= c < self.num_antidiagonals:
            return (0, -1)
        # i = c - j and d = i - j = c - 2j  =>  j = (c - d) / 2, so the band
        # constraint diag_lo <= d <= diag_hi becomes a range on j.
        j_lo = max(0, c - self.ref_len + 1, -((self.diag_hi - c) // 2))
        j_hi = min(self.query_len - 1, c, (c - self.diag_lo) // 2)
        return (j_lo, j_hi)

    # ------------------------------------------------------------------
    # vectorised per-anti-diagonal tables
    # ------------------------------------------------------------------
    @cached_property
    def row_lo(self) -> np.ndarray:
        """Array of ``j_lo`` per anti-diagonal (``int64``)."""
        if self.num_antidiagonals == 0:
            return np.empty(0, dtype=np.int64)
        c = np.arange(self.num_antidiagonals, dtype=np.int64)
        j_lo = np.maximum.reduce(
            [
                np.zeros_like(c),
                c - self.ref_len + 1,
                np.ceil((c - self.diag_hi) / 2).astype(np.int64),
            ]
        )
        return j_lo

    @cached_property
    def row_hi(self) -> np.ndarray:
        """Array of ``j_hi`` per anti-diagonal (``int64``)."""
        if self.num_antidiagonals == 0:
            return np.empty(0, dtype=np.int64)
        c = np.arange(self.num_antidiagonals, dtype=np.int64)
        j_hi = np.minimum.reduce(
            [
                np.full_like(c, self.query_len - 1),
                c,
                np.floor((c - self.diag_lo) / 2).astype(np.int64),
            ]
        )
        return j_hi

    @cached_property
    def cells_per_antidiagonal(self) -> np.ndarray:
        """Number of in-band cells per anti-diagonal (``int64``)."""
        return np.maximum(0, self.row_hi - self.row_lo + 1)

    @property
    def total_cells(self) -> int:
        """Total number of in-band cells in the table."""
        return int(self.cells_per_antidiagonal.sum())

    # ------------------------------------------------------------------
    # completion bookkeeping for chunked schedules
    # ------------------------------------------------------------------
    def completed_antidiagonals_after_rows(self, rows_done: int) -> int:
        """Number of leading anti-diagonals fully computed once query rows
        ``0 .. rows_done - 1`` have been processed.

        A horizontal-chunk schedule (baseline kernel) processes whole query
        rows at a time; anti-diagonal ``c`` is *complete* only when its
        deepest in-band row ``row_hi[c]`` has been processed.  The returned
        count is the largest prefix of complete anti-diagonals, which is
        the set on which the termination condition may legally be
        evaluated.
        """
        if rows_done <= 0 or self.num_antidiagonals == 0:
            return 0
        if rows_done >= self.query_len:
            return self.num_antidiagonals
        # row_hi is non-decreasing until it saturates; find the first c with
        # row_hi[c] >= rows_done.  Anti-diagonals with an empty range (no
        # in-band cells) count as complete by convention.
        complete = np.flatnonzero(self.row_hi >= rows_done)
        if complete.size == 0:
            return self.num_antidiagonals
        return int(complete[0])

    def rows_needed_for_antidiagonals(self, num_antidiags: int) -> int:
        """Minimum number of leading query rows that must be processed for
        the first ``num_antidiags`` anti-diagonals to be complete.

        Inverse of :meth:`completed_antidiagonals_after_rows`.
        """
        if num_antidiags <= 0:
            return 0
        num_antidiags = min(num_antidiags, self.num_antidiagonals)
        if num_antidiags == 0:
            return 0
        return int(self.row_hi[:num_antidiags].max(initial=-1)) + 1

    @cached_property
    def _cells_per_row(self) -> np.ndarray:
        """In-band cell count per query row (``int64``)."""
        if self.query_len == 0:
            return np.empty(0, dtype=np.int64)
        j = np.arange(self.query_len, dtype=np.int64)
        i_lo = np.maximum(0, j + self.diag_lo)
        i_hi = np.minimum(self.ref_len - 1, j + self.diag_hi)
        return np.maximum(0, i_hi - i_lo + 1)

    def cells_in_row_prefix(self, rows_done: int) -> int:
        """Total in-band cells over query rows ``0 .. rows_done - 1``."""
        if rows_done <= 0 or self.query_len == 0:
            return 0
        rows_done = min(rows_done, self.query_len)
        return int(self._cells_per_row[:rows_done].sum())

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"BandGeometry(ref_len={self.ref_len}, query_len={self.query_len}, "
            f"band_width={self.band_width}, diagonals=[{self.diag_lo}, {self.diag_hi}])"
        )
