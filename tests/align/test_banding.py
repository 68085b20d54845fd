"""Tests for band geometry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.banding import BandGeometry


def brute_force_in_band(geom: BandGeometry, c: int):
    """All in-band query rows on anti-diagonal c, by direct enumeration."""
    rows = []
    for j in range(geom.query_len):
        i = c - j
        if 0 <= i < geom.ref_len and geom.diag_lo <= i - j <= geom.diag_hi:
            rows.append(j)
    return rows


class TestRowRange:
    @given(
        n=st.integers(1, 40),
        m=st.integers(1, 40),
        w=st.integers(0, 15),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, n, m, w):
        geom = BandGeometry(n, m, w)
        for c in range(geom.num_antidiagonals):
            rows = brute_force_in_band(geom, c)
            j_lo, j_hi = geom.row_range(c)
            if rows:
                assert (j_lo, j_hi) == (rows[0], rows[-1])
                assert j_hi - j_lo + 1 == len(rows)
            else:
                assert j_lo > j_hi

    def test_vectorised_tables_match_scalar(self):
        geom = BandGeometry(33, 47, 9)
        for c in range(geom.num_antidiagonals):
            j_lo, j_hi = geom.row_range(c)
            assert geom.row_lo[c] == j_lo
            assert geom.row_hi[c] == j_hi
            assert geom.cells_per_antidiagonal[c] == max(0, j_hi - j_lo + 1)

    def test_out_of_range_antidiag_empty(self):
        geom = BandGeometry(5, 5, 3)
        for c in (-1, 100):
            j_lo, j_hi = geom.row_range(c)
            assert j_lo > j_hi


class TestCellCounts:
    def test_unbanded_total(self):
        geom = BandGeometry(7, 9, 0)
        assert geom.total_cells == 63

    def test_banded_total_matches_enumeration(self):
        geom = BandGeometry(20, 25, 5)
        expected = sum(
            1
            for i in range(20)
            for j in range(25)
            if geom.in_band(i, j)
        )
        assert geom.total_cells == expected

    def test_cells_in_row_prefix(self):
        geom = BandGeometry(30, 20, 9)
        total = sum(
            1 for i in range(30) for j in range(10) if geom.in_band(i, j)
        )
        assert geom.cells_in_row_prefix(10) == total
        assert geom.cells_in_row_prefix(0) == 0
        assert geom.cells_in_row_prefix(10_000) == geom.total_cells

    def test_empty_geometry(self):
        geom = BandGeometry(0, 5, 3)
        assert geom.num_antidiagonals == 0
        assert geom.total_cells == 0


class TestCompletion:
    def test_completed_after_all_rows(self):
        geom = BandGeometry(12, 10, 5)
        assert (
            geom.completed_antidiagonals_after_rows(geom.query_len)
            == geom.num_antidiagonals
        )

    def test_completed_after_zero_rows(self):
        geom = BandGeometry(12, 10, 5)
        assert geom.completed_antidiagonals_after_rows(0) == 0

    def test_completion_definition(self):
        geom = BandGeometry(40, 35, 11)
        for rows_done in (1, 5, 13, 20, 34):
            completed = geom.completed_antidiagonals_after_rows(rows_done)
            # Every "completed" anti-diagonal has all of its in-band rows
            # strictly below rows_done.
            for c in range(completed):
                _, j_hi = geom.row_range(c)
                assert j_hi < rows_done
            if completed < geom.num_antidiagonals:
                _, j_hi = geom.row_range(completed)
                assert j_hi >= rows_done

    def test_rows_needed_is_inverse(self):
        geom = BandGeometry(40, 35, 11)
        for target in (1, 7, 30, geom.num_antidiagonals):
            rows = geom.rows_needed_for_antidiagonals(target)
            assert geom.completed_antidiagonals_after_rows(rows) >= target
            if rows > 0:
                assert geom.completed_antidiagonals_after_rows(rows - 1) < target

    def test_validation(self):
        with pytest.raises(ValueError):
            BandGeometry(-1, 3, 0)
        with pytest.raises(ValueError):
            BandGeometry(3, 3, -2)
