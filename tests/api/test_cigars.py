"""Batch-scale CIGAR emission and matrix scoring across every engine.

The two bit-identity guarantees the workload subsystem leans on:

* ``align_tasks(..., cigars=True)`` returns, for every engine, exactly
  what the scalar ``traceback_align`` oracle produces per task (the
  engine results are cross-checked against the traceback replay inside
  ``batch_traceback``, so a silent divergence cannot survive);
* a custom substitution matrix (the ``blosum62`` preset) flows through
  the scalar and vector engines identically -- swept with hypothesis
  over random sequence pairs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.scoring import preset
from repro.align.sequence import mutate, random_sequence
from repro.align.traceback import TracebackResult, traceback_align
from repro.align.types import AlignmentTask
from repro.api import Session, align_tasks

ENGINES = ("scalar", "vector")


def _mixed_tasks(count=8, seed=23):
    """Tasks mixing default and blosum62 matrix scoring."""
    rng = np.random.default_rng(seed)
    schemes = [
        preset("map-ont", band_width=32, zdrop=150),
        preset("blosum62", band_width=48, zdrop=100),
    ]
    tasks = []
    for t in range(count):
        ref = random_sequence(int(rng.integers(60, 240)), rng)
        query = mutate(
            ref, rng, substitution_rate=0.08, insertion_rate=0.03, deletion_rate=0.03
        )
        tasks.append(
            AlignmentTask(
                ref=ref, query=query, scoring=schemes[t % 2], task_id=t
            )
        )
    return tasks


class TestAlignTasksCigars:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_matches_the_traceback_oracle(self, engine):
        tasks = _mixed_tasks()
        tracebacks = align_tasks(tasks, engine=engine, cigars=True)
        assert all(isinstance(tb, TracebackResult) for tb in tracebacks)
        for task, tb in zip(tasks, tracebacks):
            oracle = traceback_align(task.ref, task.query, task.scoring)
            assert tb == oracle

    def test_cigars_are_identical_across_engines(self):
        tasks = _mixed_tasks(seed=31)
        per_engine = {
            engine: [
                tb.cigar.to_string()
                for tb in align_tasks(tasks, engine=engine, cigars=True)
            ]
            for engine in ENGINES
        }
        reference = per_engine.pop("scalar")
        for engine, cigars in per_engine.items():
            assert cigars == reference, f"{engine} CIGARs diverged"

    def test_default_return_shape_unchanged(self):
        tasks = _mixed_tasks(count=2)
        results = align_tasks(tasks)
        assert not any(isinstance(r, TracebackResult) for r in results)


class TestSessionCigars:
    def test_outcome_carries_cigars(self):
        tasks = _mixed_tasks(count=4)
        outcome = Session(tasks=tasks).align(cigars=True)
        assert outcome.cigars is not None
        assert len(outcome.cigars) == 4
        assert outcome.cigar_strings == [
            tb.cigar.to_string() for tb in outcome.cigars
        ]
        # Scores are unchanged by the traceback replay.
        assert outcome.scores == [tb.result.score for tb in outcome.cigars]

    def test_cigar_strings_without_emission_raises(self):
        outcome = Session(tasks=_mixed_tasks(count=2)).align()
        assert outcome.cigars is None
        with pytest.raises(ValueError, match="cigars=True"):
            outcome.cigar_strings


class TestBlosumSweep:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        ref_len=st.integers(8, 160),
        divergence=st.floats(0.0, 0.25),
    )
    def test_matrix_scoring_bit_identical_across_engines(
        self, seed, ref_len, divergence
    ):
        rng = np.random.default_rng(seed)
        scoring = preset("blosum62", band_width=24, zdrop=80)
        ref = random_sequence(ref_len, rng)
        query = mutate(
            ref,
            rng,
            substitution_rate=divergence,
            insertion_rate=divergence / 3,
            deletion_rate=divergence / 3,
        )
        task = AlignmentTask(ref=ref, query=query, scoring=scoring)
        results = {
            engine: align_tasks([task], engine=engine)[0] for engine in ENGINES
        }
        reference = results.pop("scalar")
        for engine, result in results.items():
            assert result == reference, f"{engine} diverged: {result} vs {reference}"
