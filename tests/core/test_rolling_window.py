"""Tests for the rolling-window anti-diagonal maximum tracker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.antidiagonal import antidiagonal_align
from repro.align.banding import BandGeometry
from repro.align.blocks import BlockGrid
from repro.align.scoring import preset
from repro.align.sequence import mutate, random_sequence
from repro.align.termination import NEG_INF
from repro.core.rolling_window import RollingWindowTracker
from repro.core.sliced_diagonal import SlicedDiagonalSchedule


class TestBasics:
    def test_record_and_spill(self):
        rw = RollingWindowTracker(num_threads=4, window_rows=8, num_antidiagonals=20)
        rw.record(0, 0, 5)
        rw.record(1, 0, 9)
        rw.record(3, 2, -3)
        reduced = rw.spill(3)
        assert reduced[0] == 9 and reduced[2] == -3
        assert rw.gmb[0] == 9 and rw.gmb[1] == NEG_INF and rw.gmb[2] == -3
        assert rw.window_base == 3

    def test_window_violation_raises(self):
        rw = RollingWindowTracker(4, 4, 20)
        with pytest.raises(ValueError):
            rw.record(0, 10, 1)
        rw.spill(4)
        rw.record(0, 5, 1)  # now inside the rolled window
        with pytest.raises(ValueError):
            rw.record(0, 2, 1)  # behind the window

    def test_out_of_range_thread_or_antidiag(self):
        rw = RollingWindowTracker(4, 4, 10)
        with pytest.raises(IndexError):
            rw.record(4, 0, 1)
        with pytest.raises(IndexError):
            rw.record(0, 10, 1)

    def test_spill_validation(self):
        rw = RollingWindowTracker(4, 4, 10)
        with pytest.raises(ValueError):
            rw.spill(5)
        assert rw.spill(0).size == 0

    def test_stats_accumulate(self):
        rw = RollingWindowTracker(2, 4, 8)
        rw.record(0, 0, 1)
        rw.record(1, 1, 2)
        rw.spill(2)
        assert rw.stats.shared_accesses == 2
        assert rw.stats.reductions == 2
        assert rw.stats.global_writes == 2
        assert rw.stats.rolls == 1


class TestEquivalenceWithDirectMaxima:
    @given(seed=st.integers(0, 10_000), threads=st.sampled_from([2, 4, 8]))
    @settings(max_examples=25, deadline=None)
    def test_gmb_equals_direct_maxima(self, seed, threads):
        """Feeding cell values in an arbitrary interleaved order and spilling
        periodically must reproduce the per-anti-diagonal maxima exactly."""
        rng = np.random.default_rng(seed)
        num_antidiags = int(rng.integers(5, 60))
        window_rows = int(rng.integers(4, 16))
        cells_per_antidiag = rng.integers(1, 6, size=num_antidiags)
        values = [
            rng.integers(-100, 100, size=c).astype(np.int64)
            for c in cells_per_antidiag
        ]
        expected = np.array([v.max() for v in values])

        rw = RollingWindowTracker(threads, window_rows, num_antidiags)
        base = 0
        for c in range(num_antidiags):
            # Roll the window forward whenever the next anti-diagonal falls
            # outside it (the kernel spills completed rows before moving on).
            while c >= base + window_rows:
                spill = min(window_rows, c - base - window_rows + 1 + window_rows // 2)
                rw.spill(spill)
                base += spill
            for k, value in enumerate(values[c]):
                rw.record(int(k % threads), c, int(value))
        rw.flush()
        assert np.array_equal(rw.antidiagonal_maxima(), expected)

    def test_matches_wavefront_profile(self):
        """Driving the tracker from the wavefront engine reproduces the
        profile's anti-diagonal maxima (the Section 4.1 correctness claim)."""
        rng = np.random.default_rng(11)
        scheme = preset("map-ont", band_width=17, zdrop=0)
        ref = random_sequence(70, rng)
        query = mutate(ref, rng, substitution_rate=0.07)
        profile = antidiagonal_align(ref, query, scheme, return_profile=True)

        num = profile.antidiagonals_processed
        threads = 4
        rw = RollingWindowTracker(threads, window_rows=12, num_antidiagonals=num)
        from repro.align.antidiagonal import WavefrontState

        state = WavefrontState(ref, query, scheme)
        c = 0
        while not state.exhausted:
            antidiag, rows, values = state.step()
            while antidiag >= rw.window_base + rw.window_rows:
                rw.spill(min(rw.window_rows, 4))
            for k, value in enumerate(values):
                rw.record(k % threads, antidiag, int(value))
            c += 1
        rw.flush()
        got = rw.antidiagonal_maxima()
        assert np.array_equal(got, profile.antidiag_maxima)


class TestSlicedDiagonalOrder:
    @given(
        n=st.integers(10, 149),
        m=st.integers(10, 149),
        w=st.integers(0, 33),
        slice_width=st.integers(1, 6),
        threads=st.sampled_from([2, 4, 8]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_sliced_traversal_stays_inside_the_window(
        self, n, m, w, slice_width, threads, seed
    ):
        """Recording cells in the sliced-diagonal visit order, with the
        window ``SliceWork`` requires and a spill up to each slice's
        completed anti-diagonals at every slice boundary, never records
        outside the window and reproduces the per-anti-diagonal maxima
        (the Section 4.1 claim on the Section 4.2 traversal)."""
        geom = BandGeometry(n, m, w)
        grid = BlockGrid(geom)
        sched = SlicedDiagonalSchedule(grid, slice_width, threads)
        work = sched.all_slices()
        values = np.random.default_rng(seed).integers(-1000, 1000, size=(n, m))
        i, j = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
        in_band = (i - j >= geom.diag_lo) & (i - j <= geom.diag_hi)
        expected = np.full(geom.num_antidiagonals, NEG_INF, dtype=np.int64)
        np.maximum.at(expected, (i + j)[in_band], values[in_band])

        rw = RollingWindowTracker(
            threads, work[0].window_rows_required, geom.num_antidiagonals
        )

        def roll_to(antidiag):
            while rw.window_base < antidiag:
                rw.spill(min(rw.window_rows, antidiag - rw.window_base))

        current = 0
        b = grid.block_size
        for s, _, _, thread, (bi, bj) in sched.traversal():
            if s != current:
                roll_to(work[s - 1].completed_cell_antidiagonals)
                current = s
            for ci in range(bi * b, min(bi * b + b, n)):
                for cj in range(bj * b, min(bj * b + b, m)):
                    if in_band[ci, cj]:
                        # Raises ValueError for a cell outside the window.
                        rw.record(thread, ci + cj, int(values[ci, cj]))
        roll_to(work[-1].completed_cell_antidiagonals)
        # The last slice's completed count can stop short of the table's
        # last anti-diagonals; spill them at the end of the task.
        roll_to(geom.num_antidiagonals)
        assert np.array_equal(rw.antidiagonal_maxima(), expected)
