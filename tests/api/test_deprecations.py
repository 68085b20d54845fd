"""The deprecation shims: one warning each, bit-identical behaviour.

Policy (DESIGN.md, "Deprecation policy"): a legacy entry point keeps its
exact historical behaviour for one release, emits exactly one
:class:`DeprecationWarning` per call naming its replacement, and
delegates to the shared implementation so the two paths cannot diverge.
After that release it is deleted.

Currently shimmed: the ``"batch"`` / ``"batch-sliced"`` engine names,
now aliases of the ``vector`` engine's dense and sliced sweeps.
"""

import inspect
import warnings

import numpy as np
import pytest

from repro.align import AlignmentTask, preset
from repro.api import EngineOptions, Session, align_tasks, open_batch
from repro.io.datasets import synthetic_reference
from repro.kernels import AgathaKernel, KernelConfig
from repro.pipeline import experiment
from repro.pipeline.mapper import LongReadMapper


def _deprecations(fn, *args, **kwargs):
    """Run ``fn`` and return (result, list of DeprecationWarnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    return result, [w for w in caught if issubclass(w.category, DeprecationWarning)]


def _fresh(tasks):
    """Copies without cached profiles, so each kernel primes its own."""
    return [
        AlignmentTask(ref=t.ref, query=t.query, scoring=t.scoring, task_id=t.task_id)
        for t in tasks
    ]


class TestBatchEngineAliases:
    """``"batch"`` / ``"batch-sliced"`` resolve to the vector engine."""

    @pytest.mark.parametrize("engine", ["batch", "batch-sliced"])
    def test_single_warning_and_bit_identical(self, task_batch, engine):
        legacy, deps = _deprecations(align_tasks, task_batch, engine=engine)
        assert len(deps) == 1
        assert "engine='vector'" in str(deps[0].message)
        assert legacy == align_tasks(task_batch, engine="vector")
        assert legacy == align_tasks(task_batch, engine="scalar")

    def test_session_alias_warns_once_per_align(self, task_batch):
        session, deps = _deprecations(Session, tasks=task_batch, engine="batch")
        assert deps == []
        outcome, deps = _deprecations(session.align)
        assert len(deps) == 1
        assert outcome.results == Session(tasks=task_batch).align().results

    def test_sliced_alias_still_streams(self, task_batch):
        handle, deps = _deprecations(open_batch, task_batch, engine="batch-sliced")
        assert len(deps) == 1
        assert handle.drain() == align_tasks(task_batch)

    @pytest.mark.parametrize("engine", ["batch", "batch-sliced"])
    def test_kernel_config_alias_primes_identical_profiles(self, task_batch, engine):
        config, deps = _deprecations(KernelConfig, scoring_engine=engine)
        assert len(deps) == 1
        assert "scoring_engine='vector'" in str(deps[0].message)
        legacy = AgathaKernel(config).run(_fresh(task_batch))
        fresh = AgathaKernel(KernelConfig()).run(_fresh(task_batch))
        assert legacy == fresh

    def test_vector_path_is_silent(self, task_batch):
        _, deps = _deprecations(align_tasks, task_batch)
        assert deps == []
        _, deps = _deprecations(KernelConfig)
        assert deps == []


class TestEngineOptionsShims:
    """Engine tuning travels only as ``EngineOptions``."""

    def test_align_tasks_options_path_is_silent(self, task_batch):
        _, deps = _deprecations(
            align_tasks, task_batch, options=EngineOptions(batch_size=7)
        )
        assert deps == []


class TestRetiredShims:
    """Shims whose one-release window ended are gone, not silently kept."""

    @pytest.mark.parametrize(
        "name", ["kernel_suite", "align_workload", "compare_kernels"]
    )
    def test_experiment_shims_are_gone(self, name):
        assert not hasattr(experiment, name)

    @pytest.mark.parametrize(
        "fn", [align_tasks, Session, LongReadMapper], ids=lambda fn: fn.__name__
    )
    def test_batch_size_and_batched_keywords_are_gone(self, fn):
        params = inspect.signature(fn).parameters
        assert "batched" not in params
        if fn is not LongReadMapper:  # the mapper's bucket size is not a shim
            assert "batch_size" not in params


class TestLongReadMapperShim:
    @pytest.fixture
    def reference_and_scoring(self, rng):
        return synthetic_reference(10_000, rng), preset(
            "map-ont", band_width=32, zdrop=120
        )

    def test_engine_kwarg_is_silent(self, reference_and_scoring):
        reference, scoring = reference_and_scoring
        mapper, deps = _deprecations(
            LongReadMapper, reference, scoring, engine="scalar"
        )
        assert deps == []
        assert mapper.engine == "scalar"
        assert LongReadMapper(reference, scoring).engine == "vector"

    def test_unknown_engine_rejected(self, reference_and_scoring):
        reference, scoring = reference_and_scoring
        with pytest.raises(KeyError, match="unknown engine"):
            LongReadMapper(reference, scoring, engine="warp-drive")

    def test_legacy_path_bit_identical(self, reference_and_scoring):
        reference, scoring = reference_and_scoring
        read = np.concatenate([reference[1000:2200]])
        legacy = LongReadMapper(reference, scoring, engine="batch")
        modern = LongReadMapper(reference, scoring)
        lhs, deps = _deprecations(legacy.map_read, read)
        assert len(deps) == 1
        rhs = modern.map_read(read)
        assert lhs.mapped == rhs.mapped
        assert lhs.mapping_score == rhs.mapping_score
        assert (lhs.ref_start, lhs.ref_end) == (rhs.ref_start, rhs.ref_end)
