"""Engine-registry behaviour: ``vector`` is the one struct-of-arrays engine.

NumPy is a base dependency, so the ``vector`` engine always registers and
is the default of every name-keyed entry point.  The retired ``"batch"``
/ ``"batch-sliced"`` names are gone (``tests/api/test_deprecations.py``).
"""

import inspect

import numpy as np
import pytest

from repro.align.scoring import preset
from repro.align.sequence import mutate, random_sequence
from repro.align.types import AlignmentTask
from repro.align.vector import vector_align
from repro.api import align_tasks, engine_names, get_engine, open_batch


def _tasks(n=12, seed=3):
    rng = np.random.default_rng(seed)
    scoring = preset("map-ont", band_width=32, zdrop=60)
    tasks = []
    for t in range(n):
        ref = random_sequence(int(rng.integers(10, 200)), rng)
        query = (
            mutate(ref, rng, substitution_rate=0.05)
            if t % 2
            else random_sequence(int(rng.integers(10, 200)), rng)
        )
        tasks.append(AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=t))
    return tasks


class TestVectorRegistered:
    """``vector`` is registered unconditionally and is the default."""

    def test_vector_is_registered(self):
        assert engine_names()[:2] == ("scalar", "vector")
        for fn in (align_tasks, open_batch):
            assert inspect.signature(fn).parameters["engine"].default == "vector"

    def test_vector_scores_match_dense_and_scalar(self):
        tasks = _tasks()
        dense = vector_align(tasks, slice_width=None)
        assert align_tasks(tasks) == dense == align_tasks(tasks, engine="scalar")

    def test_unknown_engine_error_lists_names(self):
        with pytest.raises(KeyError, match="warp-9"):
            get_engine("warp-9")
