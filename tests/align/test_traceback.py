"""Tests for traceback / CIGAR reconstruction."""

import numpy as np

from repro.align.banding import BandGeometry
from repro.align.scoring import ScoringScheme, preset
from repro.align.sequence import encode, mutate, random_sequence
from repro.align.antidiagonal import antidiagonal_align
from repro.align.traceback import Cigar, _band_storage_shape, traceback_align


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
