"""Tests for the sliced-diagonal and horizontal-chunk traversals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.banding import BandGeometry
from repro.align.blocks import BlockGrid
from repro.core.sliced_diagonal import (
    HorizontalChunkSchedule,
    SlicedDiagonalSchedule,
    slice_ranges,
)


def in_band_blocks(grid):
    out = set()
    for bj in range(grid.num_block_rows):
        lo, hi = grid.in_band_block_cols(bj)
        for bi in range(lo, hi + 1):
            out.add((bi, bj))
    return out


class TestSlicedDiagonalCoverage:
    @given(
        n=st.integers(10, 150),
        m=st.integers(10, 150),
        w=st.integers(0, 33),
        s=st.integers(1, 6),
        threads=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_block_visited_exactly_once(self, n, m, w, s, threads):
        grid = BlockGrid(BandGeometry(n, m, w), 8)
        sched = SlicedDiagonalSchedule(grid, s, threads)
        visits = {}
        for (_, _, _, _, block) in sched.traversal():
            visits[block] = visits.get(block, 0) + 1
        assert set(visits) == in_band_blocks(grid)
        assert all(count == 1 for count in visits.values())

    def test_block_totals_match_grid(self):
        grid = BlockGrid(BandGeometry(160, 150, 33), 8)
        sched = SlicedDiagonalSchedule(grid, 3, 8)
        assert sum(sl.blocks for sl in sched.all_slices()) == len(in_band_blocks(grid))

    def test_slice_width_validation(self):
        grid = BlockGrid(BandGeometry(16, 16, 5), 8)
        with pytest.raises(ValueError):
            SlicedDiagonalSchedule(grid, 0, 4)
        with pytest.raises(ValueError):
            SlicedDiagonalSchedule(grid, 3, 0)


class TestSlicedDiagonalTermination:
    def test_runahead_bounded_by_slice(self):
        grid = BlockGrid(BandGeometry(400, 390, 49), 8)
        sched = SlicedDiagonalSchedule(grid, 3, 8)
        target = 200
        slices = sched.work_until_termination(target)
        completed = slices[-1].completed_cell_antidiagonals
        assert completed >= target
        # Run-ahead never exceeds one slice worth of anti-diagonals.
        assert completed - target < sched.slice_width * grid.block_size + grid.block_size

    def test_more_antidiagonals_need_more_slices(self):
        grid = BlockGrid(BandGeometry(400, 390, 49), 8)
        sched = SlicedDiagonalSchedule(grid, 3, 8)
        needed = [sched.slices_needed_for_antidiagonals(a) for a in (1, 100, 400, 700)]
        assert needed == sorted(needed)

    def test_zero_target_means_full_table(self):
        grid = BlockGrid(BandGeometry(100, 100, 17), 8)
        sched = SlicedDiagonalSchedule(grid, 3, 4)
        assert len(sched.work_until_termination(0)) == sched.num_slices


class TestHorizontalChunkSchedule:
    def test_block_totals_match_grid(self):
        grid = BlockGrid(BandGeometry(160, 150, 33), 8)
        sched = HorizontalChunkSchedule(grid, 8)
        assert sum(sl.blocks for sl in sched.all_slices()) == len(in_band_blocks(grid))

    def test_runahead_larger_than_sliced_diagonal(self):
        """The baseline traversal computes strictly more cells before the
        termination point becomes checkable (the Section 4.2 claim)."""
        grid = BlockGrid(BandGeometry(500, 480, 65), 8)
        chunked = HorizontalChunkSchedule(grid, 8)
        sliced = SlicedDiagonalSchedule(grid, 3, 8)
        target = 300
        chunk_blocks = sum(s.blocks for s in chunked.work_until_termination(target))
        slice_blocks = sum(s.blocks for s in sliced.work_until_termination(target))
        assert chunk_blocks > slice_blocks

    def test_completion_semantics(self):
        grid = BlockGrid(BandGeometry(200, 180, 33), 8)
        sched = HorizontalChunkSchedule(grid, 4)
        target = 150
        passes = sched.passes_needed_for_antidiagonals(target)
        work = sched.work_until_termination(target)
        assert len(work) == passes
        assert work[-1].completed_cell_antidiagonals >= target

    def test_sliced_with_huge_slice_equals_baseline_cells(self):
        """With a slice wider than the whole band the sliced-diagonal kernel
        degenerates to the baseline (the generalisation the paper notes)."""
        grid = BlockGrid(BandGeometry(300, 280, 33), 8)
        huge = SlicedDiagonalSchedule(grid, grid.num_block_antidiagonals, 8)
        assert huge.num_slices == 1
        blocks = sum(s.blocks for s in huge.work_until_termination(100))
        assert blocks == len(in_band_blocks(grid))


class TestSliceRanges:
    def test_covers_every_antidiagonal_once(self):
        ranges = slice_ranges(10, 3)
        assert ranges == [(0, 3), (3, 6), (6, 9), (9, 10)]
        flat = [c for lo, hi in ranges for c in range(lo, hi)]
        assert flat == list(range(10))

    def test_empty_and_degenerate(self):
        assert slice_ranges(0, 4) == []
        assert slice_ranges(-2, 4) == []
        assert slice_ranges(5, 100) == [(0, 5)]

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            slice_ranges(10, 0)
