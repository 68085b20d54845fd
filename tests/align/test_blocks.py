"""Tests for the block decomposition of the banded table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.banding import BandGeometry
from repro.align.blocks import BlockGrid


def brute_force_in_band_blocks(grid: BlockGrid):
    """In-band blocks found by checking every cell."""
    geom = grid.geometry
    blocks = set()
    for i in range(geom.ref_len):
        for j in range(geom.query_len):
            if geom.in_band(i, j):
                blocks.add((i // grid.block_size, j // grid.block_size))
    return blocks


class TestMembership:
    @given(
        n=st.integers(1, 60),
        m=st.integers(1, 60),
        w=st.integers(0, 21),
        b=st.sampled_from([4, 8]),
    )
    @settings(max_examples=30, deadline=None)
    def test_block_in_band_matches_brute_force(self, n, m, w, b):
        grid = BlockGrid(BandGeometry(n, m, w), b)
        expected = brute_force_in_band_blocks(grid)
        actual = set()
        for bj in range(grid.num_block_rows):
            lo, hi = grid.in_band_block_cols(bj)
            actual.update((bi, bj) for bi in range(lo, hi + 1))
        assert actual == expected

    def test_in_band_block_cols_consistent(self):
        grid = BlockGrid(BandGeometry(100, 90, 17), 8)
        expected = brute_force_in_band_blocks(grid)
        for bj in range(grid.num_block_rows):
            lo, hi = grid.in_band_block_cols(bj)
            cols = {bi for (bi, row) in expected if row == bj}
            if cols:
                assert (lo, hi) == (min(cols), max(cols))
            else:
                assert lo > hi


class TestCompletion:
    def test_cell_antidiags_completed(self):
        grid = BlockGrid(BandGeometry(64, 64, 9), 8)
        assert grid.cell_antidiags_completed_by(-1) == 0
        assert grid.cell_antidiags_completed_by(0) == 8
        assert (
            grid.cell_antidiags_completed_by(10_000)
            == grid.geometry.num_antidiagonals
        )

    def test_inverse_relation(self):
        grid = BlockGrid(BandGeometry(64, 64, 9), 8)
        for cells in (1, 8, 9, 33, 120):
            a = grid.block_antidiag_required_for(cells)
            assert grid.cell_antidiags_completed_by(a) >= min(
                cells, grid.geometry.num_antidiagonals
            )
            if a > 0:
                assert grid.cell_antidiags_completed_by(a - 1) < cells


class TestValidation:
    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            BlockGrid(BandGeometry(8, 8, 3), 0)
