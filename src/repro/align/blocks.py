"""Block decomposition of the banded score table.

GPU aligners pack sequences 4 bits per literal, 8 literals per 32-bit
word (GASAL2-style input packing, paper Figure 2a), so one reference
word and one query word supply exactly the literals of an 8x8-cell
*block* -- the smallest unit of workload distribution.
:class:`BlockGrid` provides the block-level view of a
:class:`~repro.align.banding.BandGeometry` that every kernel simulation
relies on:

* which block columns of each block row intersect the band (the
  workload the schedules of :mod:`repro.core.sliced_diagonal` walk);
* the translation between block anti-diagonals ``a = bi + bj`` and
  completed cell anti-diagonals, which determines where the termination
  condition can legally be evaluated (the run-ahead bookkeeping).
"""

from __future__ import annotations

from repro.align.banding import BandGeometry

__all__ = ["BlockGrid", "DEFAULT_BLOCK_SIZE"]

#: Cells per block edge; 8 matches the 8-literals-per-word input packing.
DEFAULT_BLOCK_SIZE: int = 8


class BlockGrid:
    """Block-level view of a banded score table.

    Parameters
    ----------
    geometry:
        The cell-level band geometry.
    block_size:
        Cells per block edge (8 by default).
    """

    def __init__(self, geometry: BandGeometry, block_size: int = DEFAULT_BLOCK_SIZE):
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.geometry = geometry
        self.block_size = int(block_size)

    # ------------------------------------------------------------------
    # grid dimensions
    # ------------------------------------------------------------------
    @property
    def num_block_cols(self) -> int:
        """Blocks along the reference axis."""
        return -(-self.geometry.ref_len // self.block_size) if self.geometry.ref_len else 0

    @property
    def num_block_rows(self) -> int:
        """Blocks along the query axis."""
        return -(-self.geometry.query_len // self.block_size) if self.geometry.query_len else 0

    @property
    def num_block_antidiagonals(self) -> int:
        """Number of block anti-diagonals (``bi + bj`` values)."""
        if self.num_block_cols == 0 or self.num_block_rows == 0:
            return 0
        return self.num_block_cols + self.num_block_rows - 1

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def in_band_block_cols(self, bj: int) -> tuple[int, int]:
        """Inclusive range of in-band block columns on block row ``bj``
        (empty range when none)."""
        if not 0 <= bj < self.num_block_rows:
            return (0, -1)
        j_lo = bj * self.block_size
        j_hi = min(self.geometry.query_len - 1, j_lo + self.block_size - 1)
        # Cells in these rows span reference columns [j_lo + diag_lo, j_hi + diag_hi].
        i_lo = max(0, j_lo + self.geometry.diag_lo)
        i_hi = min(self.geometry.ref_len - 1, j_hi + self.geometry.diag_hi)
        if i_lo > i_hi:
            return (0, -1)
        return (i_lo // self.block_size, i_hi // self.block_size)

    # ------------------------------------------------------------------
    # completion bookkeeping
    # ------------------------------------------------------------------
    def cell_antidiags_completed_by(self, block_antidiag: int) -> int:
        """Number of leading cell anti-diagonals guaranteed complete once
        every in-band block with block anti-diagonal ``<= block_antidiag``
        has been computed.

        A cell on anti-diagonal ``c`` can live in a block whose block
        anti-diagonal is at most ``floor(c / B)``, so completing block
        anti-diagonals ``<= a`` completes cell anti-diagonals
        ``c <= (a + 1) * B - 1``.
        """
        if block_antidiag < 0:
            return 0
        completed = (block_antidiag + 1) * self.block_size
        return min(completed, self.geometry.num_antidiagonals)

    def block_antidiag_required_for(self, cell_antidiags: int) -> int:
        """Smallest block anti-diagonal whose completion covers the first
        ``cell_antidiags`` cell anti-diagonals (inverse of
        :meth:`cell_antidiags_completed_by`)."""
        if cell_antidiags <= 0:
            return -1
        last_cell_antidiag = min(cell_antidiags, self.geometry.num_antidiagonals) - 1
        return last_cell_antidiag // self.block_size

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"BlockGrid({self.num_block_cols}x{self.num_block_rows} blocks, "
            f"block_size={self.block_size})"
        )
