"""The streaming engine contract: streams, refill, and the adapter.

Two exactness claims anchor this file.  First, a stream drained in one
go is the one-shot engine (``vector_align`` is a thin wrapper over
:class:`VectorStream`, so this is almost definitional).  Second -- the
claim the serve scheduler relies on -- *admission order does not
matter*: tasks admitted into lanes freed mid-sweep score bit-identically
to per-task scalar sweeps, whatever the interleaving of ``admit`` and
``step``.  A Hypothesis property drives random admission schedules
against the scalar oracle to check exactly that.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.antidiagonal import antidiagonal_align
from repro.align.scoring import preset
from repro.align.sequence import encode, mutate, random_sequence
from repro.align.streaming import InFlightBatch, OneShotBatch, SliceStats
from repro.align.types import AlignmentTask
from repro.align.vector import DEFAULT_SLICE_WIDTH, VectorStream, vector_align


def scalar_align(tasks):
    """Per-task scalar sweeps: the oracle every stream must match."""
    return [antidiagonal_align(t.ref, t.query, t.scoring) for t in tasks]


def dense_align(tasks):
    """The one-shot dense sweep (no slice-boundary compaction)."""
    return vector_align(tasks, slice_width=None)


def _mixed_tasks(rng, n, *, scoring, max_len=200, divergent_fraction=0.6):
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


def _assert_same(a, b):
    assert a.score == b.score
    assert a.max_i == b.max_i
    assert a.max_j == b.max_j
    assert a.terminated == b.terminated
    assert a.antidiagonals_processed == b.antidiagonals_processed
    assert a.cells_computed == b.cells_computed


def _run_schedule(stream, tasks, chunks):
    """Admit ``tasks`` in ``chunks`` as lanes free up, stepping between."""
    queue = list(tasks)
    sizes = list(chunks)
    collected = {}
    while queue or stream.live:
        if queue:
            want = min(sizes.pop(0) if sizes else len(queue), len(queue))
            take = min(want, stream.free)
            if take:
                stream.admit([queue.pop(0) for _ in range(take)])
        if stream.live:
            stream.step(1)
        for index, result in stream.take_completed():
            assert index not in collected
            collected[index] = result
    return [collected[i] for i in range(len(tasks))]


class TestBatchStream:
    """The in-flight batch stream (:class:`VectorStream`) mechanics."""

    def test_is_an_inflight_batch(self):
        assert isinstance(VectorStream(), InFlightBatch)
        assert isinstance(OneShotBatch(lambda tasks: []), InFlightBatch)

    def test_drain_matches_one_shot(self):
        rng = np.random.default_rng(11)
        scoring = preset("map-ont", band_width=24, zdrop=40)
        tasks = _mixed_tasks(rng, 20, scoring=scoring)
        stream = VectorStream(tasks, slice_width=7)
        results = stream.drain()
        for got, want in zip(results, vector_align(tasks, slice_width=7)):
            _assert_same(got, want)
        assert stream.done and stream.live == 0

    def test_staged_admission_bit_identical(self):
        """Refilling freed lanes never changes any per-task output."""
        rng = np.random.default_rng(13)
        scoring = preset("map-ont", band_width=16, zdrop=25)
        tasks = _mixed_tasks(rng, 30, scoring=scoring)
        oracle = scalar_align(tasks)
        stream = VectorStream(capacity=6, slice_width=5)
        results = _run_schedule(stream, tasks, chunks=[6, 1, 3, 2] * 10)
        for got, want in zip(results, oracle):
            _assert_same(got, want)

    def test_admission_indices_and_capacity_accounting(self):
        scoring = preset("map-ont", band_width=8, zdrop=200)
        tasks = _mixed_tasks(np.random.default_rng(7), 5, scoring=scoring)
        stream = VectorStream(capacity=4, slice_width=3)
        assert stream.admit(tasks[:3]) == [0, 1, 2]
        assert (stream.live, stream.free, stream.admitted) == (3, 1, 3)
        with pytest.raises(ValueError, match="lanes are free"):
            stream.admit(tasks[3:])
        assert stream.admit(tasks[3:4]) == [3]
        assert stream.free == 0

    def test_step_rejects_non_positive(self):
        with pytest.raises(ValueError, match="n_slices"):
            VectorStream().step(0)

    def test_slice_stats_chain(self):
        """Stats cover every retirement and occupancy stays in [0, 1]."""
        rng = np.random.default_rng(19)
        scoring = preset("map-ont", band_width=16, zdrop=30)
        tasks = _mixed_tasks(rng, 12, scoring=scoring)
        stream = VectorStream(tasks, capacity=12, slice_width=6)
        stream.drain()
        stats = stream.stats
        assert [s.index for s in stats] == list(range(len(stats)))
        assert sum(s.completed for s in stats) == len(tasks)
        assert sum(s.admitted for s in stats) == len(tasks)
        for s in stats:
            assert 0.0 <= s.occupancy <= 1.0
            assert s.capacity == 12
            assert s.live_after == s.live_before - s.completed
            assert s.terminated <= s.completed

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_tasks=st.integers(min_value=1, max_value=14),
        capacity=st.integers(min_value=1, max_value=6),
        slice_width=st.integers(min_value=1, max_value=20),
        chunks=st.lists(st.integers(min_value=1, max_value=6), max_size=8),
        zdrop=st.integers(min_value=5, max_value=60),
    )
    def test_property_admission_order_is_irrelevant(
        self, seed, n_tasks, capacity, slice_width, chunks, zdrop
    ):
        """Arbitrary admit/step interleavings equal the scalar oracle."""
        rng = np.random.default_rng(seed)
        scoring = preset("map-ont", band_width=12, zdrop=zdrop)
        tasks = _mixed_tasks(rng, n_tasks, scoring=scoring, max_len=60)
        oracle = scalar_align(tasks)
        stream = VectorStream(capacity=capacity, slice_width=slice_width)
        results = _run_schedule(stream, tasks, chunks)
        for got, want in zip(results, oracle):
            _assert_same(got, want)


class TestVectorStream:
    def test_staged_admission_matches_batch_engine(self):
        """Staged admission equals the one-shot dense (``batch``) sweep."""
        rng = np.random.default_rng(23)
        scoring = preset("map-ont", band_width=16, zdrop=35)
        tasks = _mixed_tasks(rng, 18, scoring=scoring)
        oracle = dense_align(tasks)
        stream = VectorStream(capacity=5, slice_width=4)
        results = _run_schedule(stream, tasks, chunks=[5, 2, 1] * 8)
        for got, want in zip(results, oracle):
            _assert_same(got, want)

    def test_drain_matches_vector_align(self):
        rng = np.random.default_rng(29)
        scoring = preset("map-hifi", band_width=12, zdrop=50)
        tasks = _mixed_tasks(rng, 10, scoring=scoring)
        stream = VectorStream(tasks, slice_width=9)
        for got, want in zip(stream.drain(), vector_align(tasks, slice_width=9)):
            _assert_same(got, want)


class TestOneShotBatch:
    def _engine_calls(self):
        calls = []

        def engine(tasks, **kwargs):
            calls.append((len(tasks), dict(kwargs)))
            return scalar_align(tasks)

        return engine, calls

    def test_drain_is_one_engine_call(self):
        scoring = preset("map-ont", band_width=8, zdrop=100)
        tasks = _mixed_tasks(np.random.default_rng(3), 6, scoring=scoring)
        engine, calls = self._engine_calls()
        handle = OneShotBatch(engine, tasks, engine_kwargs={"batch_size": 4})
        results = handle.drain()
        assert calls == [(6, {"batch_size": 4})]
        for got, want in zip(results, scalar_align(tasks)):
            _assert_same(got, want)
        (stat,) = handle.stats
        assert stat.completed == 6 and stat.occupancy == 1.0

    def test_step_scores_everything_pending(self):
        scoring = preset("map-ont", band_width=8, zdrop=100)
        tasks = _mixed_tasks(np.random.default_rng(5), 4, scoring=scoring)
        engine, calls = self._engine_calls()
        handle = OneShotBatch(engine, capacity=8)
        handle.admit(tasks[:3])
        assert handle.live == 3 and handle.free == 5
        handle.step()
        assert handle.done
        assert sorted(index for index, _ in handle.take_completed()) == [0, 1, 2]
        handle.admit(tasks[3:])
        handle.step()
        assert [index for index, _ in handle.take_completed()] == [3]
        assert [n for n, _ in calls] == [3, 1]

    def test_step_on_empty_is_a_noop(self):
        engine, calls = self._engine_calls()
        handle = OneShotBatch(engine, capacity=2)
        assert handle.step() == []
        assert calls == []

    def test_short_engine_raises(self):
        scoring = preset("map-ont")
        task = AlignmentTask(ref=encode("ACGT"), query=encode("ACGT"), scoring=scoring)
        handle = OneShotBatch(lambda tasks: [], [task])
        with pytest.raises(ValueError, match="returned 0 results for a batch of 1"):
            handle.step()

    def test_admit_beyond_capacity_raises(self):
        scoring = preset("map-ont")
        task = AlignmentTask(ref=encode("AC"), query=encode("AC"), scoring=scoring)
        handle = OneShotBatch(scalar_align, [task], capacity=1)
        with pytest.raises(ValueError, match="lanes are free"):
            handle.admit([task])


class TestSliceStats:
    def test_occupancy_and_live_after(self):
        stat = SliceStats(
            index=0, admitted=3, live_before=6, completed=2, terminated=1, capacity=8
        )
        assert stat.occupancy == 0.75
        assert stat.live_after == 4

    def test_zero_capacity_occupancy(self):
        stat = SliceStats(
            index=0, admitted=0, live_before=0, completed=0, terminated=0, capacity=0
        )
        assert stat.occupancy == 0.0

    def test_default_slice_width_is_positive(self):
        assert DEFAULT_SLICE_WIDTH > 0
