"""Tests for traceback / CIGAR reconstruction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.align.traceback as traceback_module
from repro.align.banding import BandGeometry
from repro.align.scoring import ScoringScheme, preset
from repro.align.sequence import encode, mutate, random_sequence
from repro.align.antidiagonal import antidiagonal_align
from repro.align.traceback import (
    Cigar,
    _band_storage_shape,
    _budget_groups,
    batch_traceback,
    traceback_align,
)
from repro.align.types import AlignmentTask
from repro.align.vector import DEFAULT_BUCKET_SIZE, PANEL_WIDTH, vector_align


SCHEME = ScoringScheme(match=2, mismatch=4, gap_open=4, gap_extend=2)


class TestCigar:
    def test_render_and_stats(self):
        cigar = Cigar((("=", 5), ("X", 1), ("I", 2), ("=", 3), ("D", 1)))
        assert cigar.to_string() == "5=1X2I3=1D"
        assert cigar.matches == 8
        assert cigar.aligned_query_length == 11
        assert cigar.aligned_ref_length == 10
        assert cigar.edit_distance == 4


class TestTraceback:
    def test_perfect_match(self):
        seq = encode("ACGTACGTGG")
        tb = traceback_align(seq, seq, SCHEME)
        assert tb.cigar.to_string() == f"{len(seq)}="
        assert tb.result.score == 2 * len(seq)

    def test_mismatch_recorded(self):
        ref = encode("ACGTACGTGG")
        query = encode("ACGTTCGTGG")
        tb = traceback_align(ref, query, SCHEME)
        ops = dict()
        for op, length in tb.cigar.operations:
            ops[op] = ops.get(op, 0) + length
        assert ops.get("X", 0) == 1
        assert ops.get("=", 0) == 9

    def test_cigar_lengths_match_end_coordinates(self):
        rng = np.random.default_rng(3)
        ref = random_sequence(120, rng)
        query = mutate(ref, rng, substitution_rate=0.05, insertion_rate=0.02, deletion_rate=0.02)
        tb = traceback_align(ref, query, preset("map-ont", band_width=21, zdrop=0))
        assert tb.cigar.aligned_ref_length == tb.ref_end
        assert tb.cigar.aligned_query_length == tb.query_end

    def test_score_matches_engine(self):
        rng = np.random.default_rng(4)
        scheme = preset("map-ont", band_width=21, zdrop=100)
        ref = random_sequence(90, rng)
        query = mutate(ref, rng, substitution_rate=0.08, insertion_rate=0.02)
        tb = traceback_align(ref, query, scheme)
        engine = antidiagonal_align(ref, query, scheme)
        assert tb.result.score == engine.score

    def test_empty_inputs(self):
        tb = traceback_align(encode(""), encode("ACG"), SCHEME)
        assert tb.cigar.operations == ()
        assert tb.result.score == 0

    def test_band_and_dense_storage_are_identical(self):
        """Band-limited matrices must not change a single in-band result:
        same scores, same CIGARs, same end coordinates, every time."""
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(5, 160))
            ref = random_sequence(n, rng)
            if trial % 4 == 3:
                query = random_sequence(int(rng.integers(5, 160)), rng)
            else:
                query = mutate(
                    ref, rng, substitution_rate=0.08, insertion_rate=0.04, deletion_rate=0.04
                )
            scheme = preset(
                "map-ont",
                band_width=int(rng.choice([0, 5, 17, 33, 64])),
                zdrop=int(rng.choice([0, 50, 120])),
            )
            dense = traceback_align(ref, query, scheme, _band_storage=False)
            banded = traceback_align(ref, query, scheme, _band_storage=True)
            assert dense.result == banded.result
            assert dense.cigar == banded.cigar
            assert (dense.ref_end, dense.query_end) == (banded.ref_end, banded.query_end)

    def test_band_storage_shape_scales_with_band_not_reference(self):
        narrow = BandGeometry(5000, 4800, 17)
        assert _band_storage_shape(narrow) == ((4800, 17), True)
        unbanded = BandGeometry(100, 80, 0)
        assert _band_storage_shape(unbanded) == ((100, 80), False)
        # A band at least as wide as the reference gains nothing: dense.
        wide = BandGeometry(30, 30, 64)
        assert _band_storage_shape(wide) == ((30, 30), False)

    def test_path_reproduces_query_from_ref(self):
        # Walking the CIGAR over the reference must regenerate the query
        # prefix that was aligned (matches copy, X substitutes, I inserts).
        rng = np.random.default_rng(5)
        ref = random_sequence(60, rng)
        query = mutate(ref, rng, substitution_rate=0.05, deletion_rate=0.03)
        tb = traceback_align(ref, query, SCHEME)
        i = j = 0
        for op, length in tb.cigar.operations:
            for _ in range(length):
                if op in "=X":
                    if op == "=":
                        assert ref[i] == query[j]
                    else:
                        assert ref[i] != query[j]
                    i += 1
                    j += 1
                elif op == "D":
                    i += 1
                else:  # I
                    j += 1
        assert i == tb.ref_end and j == tb.query_end


class TestBatchTraceback:
    def _tasks(self, count=6, seed=17):
        from repro.align.types import AlignmentTask

        rng = np.random.default_rng(seed)
        scoring = preset("map-ont", band_width=32, zdrop=150)
        tasks = []
        for t in range(count):
            ref = random_sequence(int(rng.integers(80, 300)), rng)
            query = mutate(
                ref,
                rng,
                substitution_rate=0.06,
                insertion_rate=0.02,
                deletion_rate=0.02,
            )
            tasks.append(
                AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=t)
            )
        return tasks

    def test_matches_per_task_oracle(self):
        from repro.align.traceback import batch_traceback

        tasks = self._tasks()
        batch = batch_traceback(tasks)
        assert len(batch) == len(tasks)
        for task, tb in zip(tasks, batch):
            assert tb == traceback_align(task.ref, task.query, task.scoring)

    def test_cross_checks_engine_results(self):
        import pytest

        from repro.align.traceback import batch_traceback
        from repro.align.vector import vector_align

        tasks = self._tasks()
        results = vector_align(tasks)
        batch = batch_traceback(tasks, results)
        assert [tb.result for tb in batch] == results

        # A diverging engine result is reported, not silently accepted.
        wrong = list(results)
        wrong[2] = traceback_align(
            tasks[0].ref, tasks[0].query, tasks[0].scoring
        ).result
        if wrong[2] != results[2]:
            with pytest.raises(ValueError, match="task 2"):
                batch_traceback(tasks, wrong)

    def test_length_mismatch_rejected(self):
        import pytest

        from repro.align.traceback import batch_traceback

        tasks = self._tasks(count=3)
        with pytest.raises(ValueError, match="does not match"):
            batch_traceback(tasks, results=[])


_CUSTOM = ScoringScheme(match=3, mismatch=5, gap_open=0, gap_extend=3)

# Penalties this large fail the int32 bound, so a call holding one sweeps
# in int64 (and path scores sink below NEG_INF, where the oracle clamps).
_HUGE = ScoringScheme(match=2**27, mismatch=2**28, gap_open=2**28, gap_extend=2**26)


def _scheme(kind, band_width, zdrop):
    """map-ont, blosum62, a custom scheme whose zero gap-open cost makes
    opening and extending a gap tie (the tie the oracle breaks towards
    opening), or the int64-only ``huge`` one."""
    if kind in ("custom", "huge"):
        base = _CUSTOM if kind == "custom" else _HUGE
        return dataclasses.replace(base, band_width=band_width, zdrop=zdrop)
    return preset(kind, band_width=band_width, zdrop=zdrop)


def _tasks_from(specs):
    """Tasks from specs ``(seed, ref_len, query_len, band_width, zdrop,
    scheme)``; a ``None`` query length means a mutated copy of the
    reference."""
    tasks = []
    for task_id, (seed, ref_len, query_len, band_width, zdrop, kind) in enumerate(specs):
        rng = np.random.default_rng(seed)
        ref = random_sequence(ref_len, rng)
        if query_len is None:
            query = mutate(
                ref, rng, substitution_rate=0.1, insertion_rate=0.05, deletion_rate=0.05
            )
        else:
            query = random_sequence(query_len, rng)
        tasks.append(
            AlignmentTask(
                ref=ref,
                query=query,
                scoring=_scheme(kind, band_width, zdrop),
                task_id=task_id,
            )
        )
    return tasks


def _oracle(tasks):
    return [traceback_align(t.ref, t.query, t.scoring) for t in tasks]


_LENGTHS = st.one_of(st.integers(0, 6), st.integers(20, 60))
_SPECS = st.tuples(
    st.integers(0, 2**32 - 1),
    _LENGTHS,
    st.one_of(st.none(), _LENGTHS),
    # band widths 0-3, odd and even, and wider than any reference
    st.one_of(st.integers(0, 3), st.integers(4, 24), st.just(80)),
    # off, fires at the first drop, fires early, never fires
    st.sampled_from([0, 1, 15, 10**6]),
    st.sampled_from(["map-ont", "blosum62", "custom"]),
)


class TestBatchTracebackExactness:
    """The batched sweep returns exactly what the scalar oracle returns --
    the full TracebackResult, task by task, in input order."""

    @settings(max_examples=40, deadline=None)
    @given(specs=st.lists(_SPECS, min_size=1, max_size=10))
    @example(  # empty reference, empty query, both
        specs=[
            (1, 0, 7, 4, 0, "map-ont"),
            (2, 7, 0, 4, 15, "blosum62"),
            (3, 0, 0, 0, 0, "custom"),
            (4, 30, None, 5, 15, "map-ont"),
        ]
    )
    @example(  # band widths 0-3 and wider than the reference, one scheme each
        specs=[
            (5, 40, None, 0, 0, "map-ont"),
            (6, 40, None, 1, 0, "map-ont"),
            (7, 40, None, 2, 15, "blosum62"),
            (8, 40, None, 3, 15, "custom"),
            (9, 40, None, 80, 10**6, "custom"),
        ]
    )
    @example(  # zdrop firing at once, early and never; short next to long
        specs=[
            (10, 60, 55, 9, 1, "map-ont"),
            (11, 60, 60, 10, 15, "blosum62"),
            (12, 60, None, 11, 10**6, "custom"),
            (13, 2, None, 9, 1, "map-ont"),
            (14, 3, 60, 0, 15, "custom"),
        ]
    )
    @example(  # the int64 sweep, next to an int32-sized scheme
        specs=[
            (15, 30, None, 0, 0, "huge"),
            (16, 30, None, 5, 2**29, "huge"),
            (17, 25, 20, 8, 15, "map-ont"),
        ]
    )
    def test_matches_oracle(self, specs):
        tasks = _tasks_from(specs)
        expected = _oracle(tasks)
        assert batch_traceback(tasks) == expected
        # The sweep's own results agree with the oracle's, so the engine
        # cross-check passes.
        assert batch_traceback(tasks, [tb.result for tb in expected]) == expected

    @settings(max_examples=4, deadline=None)
    @given(
        specs=st.lists(
            _SPECS, min_size=DEFAULT_BUCKET_SIZE + 1, max_size=DEFAULT_BUCKET_SIZE + 12
        )
    )
    def test_more_than_one_bucket_keeps_input_order(self, specs):
        tasks = _tasks_from(specs)
        assert batch_traceback(tasks, vector_align(tasks)) == _oracle(tasks)

    @pytest.mark.parametrize("seed", [2, 5, 6])
    def test_zdrop_on_the_last_antidiagonal_of_the_rest(self, seed):
        """One task's Z-drop fires on the anti-diagonal where every other
        task ends; those tasks still fold that anti-diagonal's maximum in."""
        scoring = preset("map-ont", band_width=16, zdrop=40)
        rng = np.random.default_rng(seed)
        ref, query = random_sequence(60, rng), random_sequence(60, rng)
        fired = traceback_align(ref, query, scoring).result
        assert fired.terminated
        last = fired.antidiagonals_processed - 1
        assert last % 2 == 0
        # An exact match ends on anti-diagonal `last` at its corner, which
        # is its new maximum.
        match = random_sequence(last // 2 + 1, rng)
        tasks = [
            AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=0),
            AlignmentTask(ref=match, query=match.copy(), scoring=scoring, task_id=1),
        ]
        expected = _oracle(tasks)
        assert (expected[1].result.max_i, expected[1].result.max_j) == (last // 2,) * 2
        assert batch_traceback(tasks, vector_align(tasks)) == expected


class TestMoveBudget:
    def test_band_500_long_reads_are_split_to_fit(self):
        # 64 band-500 reads of 5 kb: 250 lanes (+2 guard columns) over
        # ~10k anti-diagonals each, ~160 MB of move planes in one bucket.
        rng = np.random.default_rng(0)
        scoring = preset("map-ont", band_width=500)
        tasks = [
            AlignmentTask(
                ref=random_sequence(5000, rng), query=random_sequence(5000, rng), scoring=scoring
            )
            for _ in range(64)
        ]
        groups = _budget_groups(tasks, list(range(64)))
        assert [i for group in groups for i in group] == list(range(64))
        per_task = (250 + 2) * (-(-9999 // PANEL_WIDTH) * PANEL_WIDTH)
        fits = traceback_module._MOVE_BUDGET_BYTES // per_task
        assert len(groups) > 1
        assert all(len(group) <= fits for group in groups)

    def test_a_split_bucket_still_matches_the_oracle(self, monkeypatch):
        rng = np.random.default_rng(21)
        scoring = preset("map-ont", band_width=16, zdrop=100)
        tasks = []
        for task_id in range(12):
            ref = random_sequence(int(rng.integers(40, 120)), rng)
            query = mutate(ref, rng, substitution_rate=0.08, insertion_rate=0.03)
            tasks.append(AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=task_id))
        swept = []
        sweep = traceback_module._sweep

        def spy(batch):
            swept.append(batch.size)
            return sweep(batch)

        monkeypatch.setattr(traceback_module, "_MOVE_BUDGET_BYTES", 4096)
        monkeypatch.setattr(traceback_module, "_sweep", spy)
        assert batch_traceback(tasks, vector_align(tasks)) == _oracle(tasks)
        assert len(swept) > 1
        assert sum(swept) == len(tasks)


class TestCrossCheckAfterBucketing:
    @pytest.mark.parametrize("index", [0, DEFAULT_BUCKET_SIZE + 5])
    def test_divergence_names_the_input_index(self, index):
        """Bucketing sorts tasks largest first, so the longest task listed
        last sweeps first, and the shortest listed first sweeps last; the
        error must still name the caller's index and task_id."""
        rng = np.random.default_rng(5)
        scoring = preset("map-ont", band_width=8, zdrop=40)
        count = DEFAULT_BUCKET_SIZE + 6
        lengths = sorted(rng.integers(12, 60, size=count).tolist())
        lengths[0], lengths[-1] = 5, 90
        tasks = [
            AlignmentTask(
                ref=random_sequence(n, rng),
                query=random_sequence(n, rng),
                scoring=scoring,
                task_id=1000 + i,
            )
            for i, n in enumerate(lengths)
        ]
        results = vector_align(tasks)
        wrong = list(results)
        wrong[index] = dataclasses.replace(results[index], score=results[index].score + 1)
        with pytest.raises(ValueError, match=rf"task {index} \(task_id={1000 + index}\)"):
            batch_traceback(tasks, wrong)
