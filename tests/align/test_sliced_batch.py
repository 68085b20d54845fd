"""Equivalence tests for the sliced, lane-compacting vector sweep.

The dense sweep (``slice_width=None``) defines the semantics (and is
itself pinned to the scalar oracle by ``test_batch.py``); the sliced
sweep must reproduce
its scores, maximum cells, termination anti-diagonals, work counters and
per-anti-diagonal profiles bit for bit -- across slice widths, bucket
sizes, termination kinds and aggressively terminating workloads, which
is exactly when compaction rewrites the buffers hardest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.antidiagonal import antidiagonal_align
from repro.align.scoring import ScoringScheme, preset
from repro.align.sequence import encode, mutate, random_sequence
from repro.align.termination import make_termination
from repro.align.types import AlignmentTask
from repro.align.vector import DEFAULT_SLICE_WIDTH, ENGINE_SLICE_WIDTHS, vector_align
from repro.core.sliced_diagonal import slice_ranges


def sweep(tasks, *, slice_width=None, **kwargs):
    """The vector sweep, dense unless ``slice_width`` is given."""
    return vector_align(tasks, slice_width=slice_width, **kwargs)


def _assert_same(dense, sliced):
    """Full bit-exactness check between a dense and a sliced result."""
    assert dense.score == sliced.score
    assert dense.max_i == sliced.max_i
    assert dense.max_j == sliced.max_j
    assert dense.terminated == sliced.terminated
    assert dense.antidiagonals_processed == sliced.antidiagonals_processed
    assert dense.cells_computed == sliced.cells_computed


def _mixed_tasks(rng, n, *, scoring, max_len=400, divergent_fraction=0.7):
    """Mixed-length tasks where most pairs Z-drop early and a few run on."""
    tasks = []
    for t in range(n):
        length = int(rng.integers(1, max_len))
        ref = random_sequence(length, rng)
        if rng.random() < divergent_fraction:
            query = random_sequence(int(rng.integers(1, max_len)), rng)
        else:
            query = mutate(ref, rng, substitution_rate=0.05)
        tasks.append(AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=t))
    return tasks


class TestAgainstDenseEngine:
    @pytest.mark.parametrize("slice_width", [1, 3, DEFAULT_SLICE_WIDTH, 1000])
    @pytest.mark.parametrize("termination", ["zdrop", "xdrop", "none"])
    def test_mixed_workload_matches_dense(self, slice_width, termination):
        """Aggressive early termination across ragged buckets."""
        rng = np.random.default_rng(17)
        scoring = preset("map-ont", band_width=32, zdrop=40)
        tasks = _mixed_tasks(rng, 48, scoring=scoring)
        dense = sweep(tasks, termination=termination, bucket_size=16)
        sliced = sweep(
            tasks,
            termination=termination,
            bucket_size=16,
            slice_width=slice_width,
        )
        for d, s in zip(dense, sliced):
            _assert_same(d, s)

    def test_matches_scalar_oracle(self):
        """The sliced sweep is pinned to the oracle, not just to dense."""
        rng = np.random.default_rng(23)
        scoring = preset("map-ont", band_width=48, zdrop=60)
        tasks = _mixed_tasks(rng, 24, scoring=scoring)
        sliced = sweep(tasks, bucket_size=8, slice_width=DEFAULT_SLICE_WIDTH)
        for task, s in zip(tasks, sliced):
            cond = make_termination(task.scoring, "zdrop")
            _assert_same(
                antidiagonal_align(task.ref, task.query, task.scoring, cond), s
            )

    def test_profiles_match_dense(self):
        rng = np.random.default_rng(29)
        scoring = preset("map-hifi", band_width=17, zdrop=30)
        tasks = _mixed_tasks(rng, 20, scoring=scoring)
        dense = sweep(tasks, bucket_size=6, return_profiles=True)
        sliced = sweep(
            tasks, bucket_size=6, return_profiles=True, slice_width=5
        )
        for dp, sp in zip(dense, sliced):
            _assert_same(dp.result, sp.result)
            assert np.array_equal(dp.antidiag_maxima, sp.antidiag_maxima)
            assert np.array_equal(dp.cells_per_antidiag, sp.cells_per_antidiag)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_tasks=st.integers(min_value=1, max_value=12),
        bucket_size=st.integers(min_value=1, max_value=12),
        slice_width=st.integers(min_value=1, max_value=40),
        band_width=st.integers(min_value=0, max_value=16),
        zdrop=st.integers(min_value=1, max_value=25),
        gap_open=st.integers(min_value=0, max_value=6),
        gap_extend=st.integers(min_value=1, max_value=3),
    )
    def test_property_compacted_equals_dense(
        self, seed, n_tasks, bucket_size, slice_width, band_width, zdrop,
        gap_open, gap_extend,
    ):
        """Hypothesis: compaction never changes any observable output.

        Random mixed-length batches under aggressive Z-drop thresholds:
        scores, maximum cells, termination anti-diagonals and work
        counters of the sliced sweep equal the dense sweep's bit for
        bit.
        """
        rng = np.random.default_rng(seed)
        scoring = ScoringScheme(
            match=2,
            mismatch=4,
            gap_open=gap_open,
            gap_extend=gap_extend,
            band_width=band_width,
            zdrop=zdrop,
        )
        tasks = _mixed_tasks(rng, n_tasks, scoring=scoring, max_len=80)
        dense = sweep(tasks, bucket_size=bucket_size)
        sliced = sweep(
            tasks, bucket_size=bucket_size, slice_width=slice_width
        )
        for d, s in zip(dense, sliced):
            _assert_same(d, s)


class TestSlicedMechanics:
    def test_empty_task_list(self):
        assert sweep([], slice_width=8) == []

    def test_empty_sequences(self):
        scoring = preset("map-ont")
        task = AlignmentTask(ref=encode(""), query=encode("ACG"), scoring=scoring)
        (result,) = sweep([task], slice_width=4)
        assert result.score == 0
        assert result.cells_computed == 0

    def test_rejects_non_positive_slice_width(self):
        scoring = preset("figure1")
        task = AlignmentTask(ref=encode("ACG"), query=encode("ACG"), scoring=scoring)
        with pytest.raises(ValueError, match="slice_width"):
            sweep([task], slice_width=0)
        with pytest.raises(ValueError, match="slice_width"):
            sweep([task], slice_width=-3)

    def test_everyone_terminates_before_second_slice(self):
        """All-divergent bucket: compaction empties it, sweep stops early."""
        rng = np.random.default_rng(31)
        scoring = preset("map-ont", band_width=16, zdrop=10)
        tasks = [
            AlignmentTask(
                ref=random_sequence(300, rng),
                query=random_sequence(300, rng),
                scoring=scoring,
                task_id=t,
            )
            for t in range(8)
        ]
        dense = sweep(tasks)
        sliced = sweep(tasks, slice_width=8)
        for d, s in zip(dense, sliced):
            _assert_same(d, s)
            assert s.terminated

    def test_engine_slice_widths_mapping(self):
        """The engine-name mapping stays consistent with the defaults."""
        assert ENGINE_SLICE_WIDTHS["vector"] == DEFAULT_SLICE_WIDTH
        assert ENGINE_SLICE_WIDTHS["batch"] is None
        assert ENGINE_SLICE_WIDTHS["batch-sliced"] == DEFAULT_SLICE_WIDTH


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
