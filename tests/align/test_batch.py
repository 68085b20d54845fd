"""Equivalence tests for struct-of-arrays batches: packing and the dense sweep.

The scalar anti-diagonal engine defines the semantics; the vector
engine's dense sweep (``slice_width=None``: whole buckets swept without
compaction) must reproduce its scores, maximum cells, termination
behaviour, work counters and per-anti-diagonal profiles bit for bit --
across scoring schemes, band widths, termination kinds and ragged
task-length buckets.  ``tests/align/test_vector.py`` then pins the
compacting sweep to the dense one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.antidiagonal import antidiagonal_align
from repro.align.scoring import ScoringScheme, preset
from repro.align.sequence import encode, mutate, random_sequence
from repro.align.termination import NEG_INF, make_termination
from repro.align.types import AlignmentTask
from repro.align.vector import DEFAULT_BUCKET_SIZE, pack_tasks, vector_align
from repro.core.uneven_bucketing import length_bucket_order


def dense_align(tasks, **kwargs):
    """The vector engine's dense sweep (no slice-boundary compaction)."""
    return vector_align(tasks, slice_width=None, **kwargs)


def _assert_same(scalar, batched):
    """Full bit-exactness check between a scalar and a batched result."""
    assert scalar.score == batched.score
    assert scalar.max_i == batched.max_i
    assert scalar.max_j == batched.max_j
    assert scalar.terminated == batched.terminated
    assert scalar.antidiagonals_processed == batched.antidiagonals_processed
    assert scalar.cells_computed == batched.cells_computed


def _random_tasks(rng, n, *, schemes, max_len=200):
    tasks = []
    for t in range(n):
        scoring = schemes[t % len(schemes)]
        ref = random_sequence(int(rng.integers(0, max_len)), rng)
        if ref.size and rng.random() < 0.5:
            query = mutate(
                ref,
                rng,
                substitution_rate=0.1,
                insertion_rate=0.05,
                deletion_rate=0.05,
            )
        else:
            query = random_sequence(int(rng.integers(0, max_len)), rng)
        tasks.append(AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=t))
    return tasks


class TestAgainstScalarOracle:
    SCHEMES = [
        preset("map-ont", band_width=64, zdrop=160),
        preset("map-hifi", band_width=33, zdrop=60),
        preset("figure1"),
        preset("bwa-mem", band_width=17, zdrop=50),
        ScoringScheme(match=3, mismatch=2, gap_open=5, gap_extend=1),
    ]

    @pytest.mark.parametrize("termination", ["zdrop", "xdrop", "none"])
    def test_mixed_workload_matches_oracle(self, termination):
        """Random mixed-size, mixed-scheme tasks across ragged buckets."""
        rng = np.random.default_rng(11)
        tasks = _random_tasks(rng, 40, schemes=self.SCHEMES)
        batched = dense_align(tasks, termination=termination, bucket_size=7)
        for task, b in zip(tasks, batched):
            cond = make_termination(task.scoring, termination)
            s = antidiagonal_align(task.ref, task.query, task.scoring, cond)
            _assert_same(s, b)

    def test_profiles_match_oracle(self):
        rng = np.random.default_rng(5)
        tasks = _random_tasks(rng, 20, schemes=self.SCHEMES)
        profiles = dense_align(tasks, bucket_size=6, return_profiles=True)
        for task, bp in zip(tasks, profiles):
            sp = antidiagonal_align(
                task.ref, task.query, task.scoring, return_profile=True
            )
            _assert_same(sp.result, bp.result)
            assert np.array_equal(sp.antidiag_maxima, bp.antidiag_maxima)
            assert np.array_equal(sp.cells_per_antidiag, bp.cells_per_antidiag)
            assert sp.geometry.ref_len == bp.geometry.ref_len
            assert sp.geometry.query_len == bp.geometry.query_len
            assert sp.geometry.band_width == bp.geometry.band_width

    @settings(max_examples=40, deadline=None)
    @given(
        ref=st.text(alphabet="ACGT", min_size=0, max_size=48),
        query=st.text(alphabet="ACGT", min_size=0, max_size=48),
        match=st.integers(min_value=1, max_value=4),
        mismatch=st.integers(min_value=0, max_value=6),
        gap_open=st.integers(min_value=0, max_value=6),
        gap_extend=st.integers(min_value=1, max_value=3),
        band_width=st.integers(min_value=0, max_value=12),
        zdrop=st.integers(min_value=0, max_value=40),
    )
    def test_property_single_task(
        self, ref, query, match, mismatch, gap_open, gap_extend, band_width, zdrop
    ):
        """Hypothesis: every random (scheme, band, Z) agrees with the oracle."""
        scoring = ScoringScheme(
            match=match,
            mismatch=mismatch,
            gap_open=gap_open,
            gap_extend=gap_extend,
            band_width=band_width,
            zdrop=zdrop,
        )
        task = AlignmentTask(ref=encode(ref), query=encode(query), scoring=scoring)
        (b,) = dense_align([task])
        s = antidiagonal_align(task.ref, task.query, scoring)
        _assert_same(s, b)

    def test_ragged_length_buckets(self):
        """Wildly different task sizes in one call: padding must not leak."""
        rng = np.random.default_rng(3)
        scoring = preset("map-ont", band_width=32, zdrop=100)
        lengths = [1, 2, 3, 7, 500, 8, 501, 2, 499, 64, 1, 300]
        tasks = []
        for n in lengths:
            ref = random_sequence(n, rng)
            query = mutate(ref, rng, substitution_rate=0.1)
            tasks.append(AlignmentTask(ref=ref, query=query, scoring=scoring))
        for bucket_size in (1, 3, DEFAULT_BUCKET_SIZE):
            batched = dense_align(tasks, bucket_size=bucket_size)
            for task, b in zip(tasks, batched):
                _assert_same(
                    b, antidiagonal_align(task.ref, task.query, scoring)
                )


class TestBatchMechanics:
    def test_empty_task_list(self):
        assert dense_align([]) == []

    def test_empty_sequences(self):
        scoring = preset("map-ont")
        task = AlignmentTask(ref=encode(""), query=encode("ACG"), scoring=scoring)
        (result,) = dense_align([task])
        assert result.score == 0
        assert (result.max_i, result.max_j) == (-1, -1)
        assert not result.terminated
        assert result.cells_computed == 0

    def test_results_in_input_order(self):
        rng = np.random.default_rng(9)
        scoring = preset("figure1")
        tasks = [
            AlignmentTask(
                ref=random_sequence(n, rng),
                query=random_sequence(n, rng),
                scoring=scoring,
                task_id=i,
            )
            for i, n in enumerate([90, 5, 60, 5, 120, 30])
        ]
        batched = dense_align(tasks, bucket_size=2)
        for task, b in zip(tasks, batched):
            _assert_same(b, antidiagonal_align(task.ref, task.query, scoring))

    def test_pack_tasks_rejects_unknown_termination(self):
        with pytest.raises(ValueError, match="termination"):
            pack_tasks([], termination="bogus")

    def test_pack_tasks_shapes(self):
        rng = np.random.default_rng(1)
        scoring = preset("map-ont", band_width=16, zdrop=50)
        tasks = [
            AlignmentTask(
                ref=random_sequence(30, rng),
                query=random_sequence(20, rng),
                scoring=scoring,
            ),
            AlignmentTask(
                ref=random_sequence(10, rng),
                query=random_sequence(40, rng),
                scoring=scoring,
            ),
        ]
        batch = pack_tasks(tasks)
        assert batch.size == 2
        assert batch.ref_buf.shape == (2, 30)
        assert batch.query_buf.shape == (2, 40)
        assert list(batch.ref_len) == [30, 10]
        assert list(batch.query_len) == [20, 40]
        # one shared scheme -> one substitution matrix in the stack
        assert batch.sub_stack.shape[0] == 1
        assert batch.max_lanes <= 16 // 2 + 1

    def test_local_maxima_include_empty_antidiagonals(self):
        """NEG_INF placeholders for empty anti-diagonals, like the oracle."""
        scoring = preset("figure1")
        ref = encode("ACGTACGTACGT")
        query = encode("AC")
        task = AlignmentTask(ref=ref, query=query, scoring=scoring)
        (bp,) = dense_align([task], return_profiles=True)
        sp = antidiagonal_align(ref, query, scoring, return_profile=True)
        assert np.array_equal(sp.antidiag_maxima, bp.antidiag_maxima)
        assert (bp.antidiag_maxima == NEG_INF).any()


class TestLengthBucketOrder:
    def test_buckets_partition_and_sort(self):
        workloads = [5, 100, 1, 50, 7, 99, 3]
        buckets = length_bucket_order(workloads, 3)
        flat = [i for bucket in buckets for i in bucket]
        assert sorted(flat) == list(range(len(workloads)))
        assert all(len(bucket) <= 3 for bucket in buckets)
        # Largest workloads come first and buckets are size-homogeneous.
        assert buckets[0] == [1, 5, 3]

    def test_rejects_bad_bucket_size(self):
        with pytest.raises(ValueError):
            length_bucket_order([1, 2], 0)
