"""Sliced-diagonal tiling and the horizontal-chunk baseline traversal.

Both traversals cover the same set of in-band 8x8 blocks; they differ in
*order*, and order is what determines

* how soon an anti-diagonal becomes complete (and the termination
  condition may be evaluated on it) -- the **run-ahead** problem;
* how large the rolling window (LMB) must be;
* how often intermediate values must round-trip through global memory.

:class:`HorizontalChunkSchedule` is the baseline design of Section 2.2 /
Figure 2(b): a *chunk* is ``threads_per_subwarp`` block rows swept
horizontally from the first to the last in-band block column; the next
chunk starts only after the previous one has crossed the whole band.
Anti-diagonals only complete long after their first cells were computed
(about ``band_width / 2`` query rows later), so when the Z-drop condition
finally becomes checkable, a region of roughly ``band_width^2 / 2`` cells
has already been computed beyond the termination point.

:class:`SlicedDiagonalSchedule` is AGAThA's tiling (Section 4.2 /
Figure 5): the band is cut into *slices* of ``slice_width`` block
anti-diagonals; a slice is processed chunk by chunk (each chunk again
``threads_per_subwarp`` block rows, each thread walking the blocks of its
row inside the slice), and the termination condition is evaluated at every
slice boundary, bounding run-ahead to ``slice_width * block_size``
anti-diagonals (``slice_width x band_width`` cells).  When ``slice_width``
is at least the band width in blocks the sliced schedule degenerates into
the baseline -- the generalisation the paper points out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.align.blocks import BlockGrid

__all__ = [
    "slice_ranges",
    "SliceWork",
    "ChunkWork",
    "SlicedDiagonalSchedule",
    "HorizontalChunkSchedule",
]


def slice_ranges(total: int, slice_width: int) -> List[Tuple[int, int]]:
    """Half-open ``[lo, hi)`` anti-diagonal ranges of every slice.

    The slice geometry shared by both consumers of sliced-diagonal
    tiling: :class:`SlicedDiagonalSchedule` cuts *block* anti-diagonals
    into slices of ``slice_width`` for the GPU-side simulator, and the
    struct-of-arrays engine (:func:`repro.align.vector.vector_align` with
    ``slice_width=``) cuts *cell* anti-diagonals the same way, compacting
    terminated tasks out of its buffers at every boundary.  ``total`` is
    the number of anti-diagonals to cover; the last slice may be short.
    """
    if slice_width <= 0:
        raise ValueError("slice_width must be positive")
    if total <= 0:
        return []
    return [
        (lo, min(lo + slice_width, total)) for lo in range(0, total, slice_width)
    ]


@dataclass(frozen=True)
class ChunkWork:
    """One chunk: ``threads`` block rows processed in lock step."""

    chunk_index: int
    block_rows: tuple[int, ...]
    blocks: int
    steps: int

    @property
    def idle_block_slots(self) -> int:
        """Thread-steps spent idle because rows have unequal block counts."""
        return self.steps * len(self.block_rows) - self.blocks


@dataclass(frozen=True)
class SliceWork:
    """Aggregate work of one slice (or one baseline chunk pass)."""

    slice_index: int
    blocks: int
    steps: int
    idle_block_slots: int
    chunks: int
    completed_cell_antidiagonals: int
    window_rows_required: int


class SlicedDiagonalSchedule:
    """AGAThA's sliced-diagonal traversal of the banded block grid.

    Parameters
    ----------
    grid:
        Block-level view of the task's band geometry.
    slice_width:
        Slice width ``s`` in block anti-diagonals (the paper settles on 3).
    threads_per_subwarp:
        Threads processing the task (one block row each per chunk).
    """

    def __init__(self, grid: BlockGrid, slice_width: int, threads_per_subwarp: int):
        if slice_width <= 0:
            raise ValueError("slice_width must be positive")
        if threads_per_subwarp <= 0:
            raise ValueError("threads_per_subwarp must be positive")
        self.grid = grid
        self.slice_width = int(slice_width)
        self.threads = int(threads_per_subwarp)

    # ------------------------------------------------------------------
    @property
    def num_slices(self) -> int:
        """Slices needed to cover every block anti-diagonal."""
        total = self.grid.num_block_antidiagonals
        if total == 0:
            return 0
        return -(-total // self.slice_width)

    def slice_block_antidiag_range(self, slice_index: int) -> tuple[int, int]:
        """Half-open block anti-diagonal range ``[lo, hi)`` of a slice.

        Same geometry as :func:`slice_ranges` (which the struct-of-arrays
        engine consumes), kept as per-index arithmetic here because the
        schedule queries one slice at a time.
        """
        lo = slice_index * self.slice_width
        hi = min(lo + self.slice_width, self.grid.num_block_antidiagonals)
        return lo, hi

    # ------------------------------------------------------------------
    def _slice_rows(self, slice_index: int) -> dict[int, List[int]]:
        """Map block row -> in-band block columns of this slice."""
        lo, hi = self.slice_block_antidiag_range(slice_index)
        rows: dict[int, List[int]] = {}
        for bj in range(self.grid.num_block_rows):
            c_lo, c_hi = self.grid.in_band_block_cols(bj)
            if c_lo > c_hi:
                continue
            cols = [bi for bi in range(c_lo, c_hi + 1) if lo <= bi + bj < hi]
            if cols:
                rows[bj] = cols
        return rows

    def slice_chunks(self, slice_index: int) -> List[ChunkWork]:
        """Chunks (groups of ``threads`` block rows) of one slice."""
        rows = self._slice_rows(slice_index)
        if not rows:
            return []
        row_ids = sorted(rows)
        chunks: List[ChunkWork] = []
        for k in range(0, len(row_ids), self.threads):
            group = row_ids[k : k + self.threads]
            blocks = sum(len(rows[bj]) for bj in group)
            steps = max(len(rows[bj]) for bj in group)
            chunks.append(
                ChunkWork(
                    chunk_index=len(chunks),
                    block_rows=tuple(group),
                    blocks=blocks,
                    steps=steps,
                )
            )
        return chunks

    def slice_work(self, slice_index: int) -> SliceWork:
        """Aggregate work record of one slice."""
        chunks = self.slice_chunks(slice_index)
        blocks = sum(c.blocks for c in chunks)
        steps = sum(c.steps for c in chunks)
        idle = sum(c.idle_block_slots for c in chunks)
        lo, hi = self.slice_block_antidiag_range(slice_index)
        completed = self.grid.cell_antidiags_completed_by(hi - 1) if hi > lo else 0
        # Anti-diagonals spanned by the blocks of one slice: the window must
        # cover slice_width * block_size plus the intra-block skew
        # (block_size - 1 anti-diagonals of spill-over into the next rows).
        window_rows = self.slice_width * self.grid.block_size + (
            2 * (self.grid.block_size - 1)
        )
        return SliceWork(
            slice_index=slice_index,
            blocks=blocks,
            steps=steps,
            idle_block_slots=idle,
            chunks=len(chunks),
            completed_cell_antidiagonals=completed,
            window_rows_required=window_rows,
        )

    def all_slices(self) -> List[SliceWork]:
        """Work records of every slice of the full band."""
        return [self.slice_work(k) for k in range(self.num_slices)]

    # ------------------------------------------------------------------
    def traversal(self) -> Iterator[tuple[int, int, int, int, tuple[int, int]]]:
        """Yield ``(slice, chunk, step, thread, (bi, bj))`` visit events.

        Intended for the structural tests on small grids: the union of
        visited blocks must equal the in-band block set, with no block
        visited twice.
        """
        for s in range(self.num_slices):
            rows = self._slice_rows(s)
            row_ids = sorted(rows)
            for chunk_idx, k in enumerate(range(0, len(row_ids), self.threads)):
                group = row_ids[k : k + self.threads]
                max_steps = max(len(rows[bj]) for bj in group)
                for step in range(max_steps):
                    for thread, bj in enumerate(group):
                        cols = rows[bj]
                        if step < len(cols):
                            yield (s, chunk_idx, step, thread, (cols[step], bj))

    # ------------------------------------------------------------------
    def slices_needed_for_antidiagonals(self, cell_antidiagonals: int) -> int:
        """Slices that must complete before the first ``cell_antidiagonals``
        anti-diagonals are all complete (i.e. before termination at that
        point becomes observable)."""
        if cell_antidiagonals <= 0:
            return 0
        required_block_antidiag = self.grid.block_antidiag_required_for(cell_antidiagonals)
        return min(self.num_slices, required_block_antidiag // self.slice_width + 1)

    def work_until_termination(self, cell_antidiagonals: int) -> List[SliceWork]:
        """Slice records actually processed when termination ideally fires
        after ``cell_antidiagonals`` anti-diagonals (0 means "never")."""
        if cell_antidiagonals <= 0:
            return self.all_slices()
        needed = self.slices_needed_for_antidiagonals(cell_antidiagonals)
        return [self.slice_work(k) for k in range(needed)]


class HorizontalChunkSchedule:
    """Baseline horizontal-chunk traversal (Section 2.2, Figure 2b).

    The interface mirrors :class:`SlicedDiagonalSchedule` so the kernels
    can treat either uniformly: each "slice" here is one horizontal chunk
    pass of ``threads_per_subwarp`` block rows across the whole band.
    """

    def __init__(self, grid: BlockGrid, threads_per_subwarp: int):
        if threads_per_subwarp <= 0:
            raise ValueError("threads_per_subwarp must be positive")
        self.grid = grid
        self.threads = int(threads_per_subwarp)

    @property
    def num_chunk_passes(self) -> int:
        """Chunk passes needed to cover every block row."""
        if self.grid.num_block_rows == 0:
            return 0
        return -(-self.grid.num_block_rows // self.threads)

    def chunk_pass_work(self, pass_index: int) -> SliceWork:
        """Aggregate work of one chunk pass (full band width)."""
        bj_lo = pass_index * self.threads
        bj_hi = min(self.grid.num_block_rows, bj_lo + self.threads) - 1
        per_row = [
            max(0, hi - lo + 1)
            for bj in range(bj_lo, bj_hi + 1)
            for lo, hi in [self.grid.in_band_block_cols(bj)]
        ]
        blocks = sum(per_row)
        steps = max(per_row) if per_row else 0
        idle = steps * (bj_hi - bj_lo + 1) - blocks if per_row else 0
        rows_done = min(self.grid.geometry.query_len, (bj_hi + 1) * self.grid.block_size)
        completed = self.grid.geometry.completed_antidiagonals_after_rows(rows_done)
        # The window must span every anti-diagonal that is still incomplete
        # while this chunk is in flight: roughly the band width plus the
        # chunk height in cells.
        window_rows = (
            (self.grid.geometry.band_width or self.grid.geometry.ref_len)
            + self.threads * self.grid.block_size
            + 2 * (self.grid.block_size - 1)
        )
        return SliceWork(
            slice_index=pass_index,
            blocks=blocks,
            steps=steps,
            idle_block_slots=idle,
            chunks=1,
            completed_cell_antidiagonals=completed,
            window_rows_required=window_rows,
        )

    def all_slices(self) -> List[SliceWork]:
        """Work records of every chunk pass."""
        return [self.chunk_pass_work(k) for k in range(self.num_chunk_passes)]

    def passes_needed_for_antidiagonals(self, cell_antidiagonals: int) -> int:
        """Chunk passes before the first ``cell_antidiagonals`` complete."""
        if cell_antidiagonals <= 0:
            return 0
        rows_needed = self.grid.geometry.rows_needed_for_antidiagonals(cell_antidiagonals)
        block_rows_needed = -(-rows_needed // self.grid.block_size)
        return min(self.num_chunk_passes, -(-block_rows_needed // self.threads))

    def work_until_termination(self, cell_antidiagonals: int) -> List[SliceWork]:
        """Chunk passes actually processed under chunk-granular termination."""
        if cell_antidiagonals <= 0:
            return self.all_slices()
        needed = self.passes_needed_for_antidiagonals(cell_antidiagonals)
        return [self.chunk_pass_work(k) for k in range(needed)]
