"""The deprecation shims: one warning each, bit-identical behaviour.

Policy (DESIGN.md, "Deprecation policy"): a legacy entry point keeps its
exact historical behaviour for one release, emits exactly one
:class:`DeprecationWarning` per call naming its replacement, and
delegates to the shared implementation so the two paths cannot diverge.
After that release it is deleted.

Currently shimmed: none.
"""

import inspect
import warnings

import pytest

from repro.align import preset
from repro.api import EngineOptions, Session, align_tasks, get_engine
from repro.bench.cli import main as bench_main
from repro.io.datasets import synthetic_reference
from repro.kernels import KernelConfig
from repro.pipeline import experiment
from repro.pipeline.mapper import LongReadMapper
from repro.serve import ServeConfig


def _deprecations(fn, *args, **kwargs):
    """Run ``fn`` and return (result, list of DeprecationWarnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    return result, [w for w in caught if issubclass(w.category, DeprecationWarning)]


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

    @pytest.mark.parametrize("name", ["batch", "batch-sliced"])
    def test_batch_engine_aliases_are_gone(self, name):
        with pytest.raises(KeyError) as excinfo:
            get_engine(name)
        assert "available: ['scalar', 'vector']" in str(excinfo.value)

    def test_batch_engine_aliases_fail_at_construction(self, task_batch, rng):
        reference = synthetic_reference(2_000, rng)
        with pytest.raises(KeyError, match="unknown engine 'batch'"):
            Session(tasks=task_batch, engine="batch")
        with pytest.raises(KeyError, match="unknown engine 'batch'"):
            LongReadMapper(reference, preset("map-ont"), engine="batch")
        with pytest.raises(KeyError, match="unknown engine 'batch-sliced'"):
            ServeConfig(engine="batch-sliced")

    @pytest.mark.parametrize(
        "changes",
        [{"scoring_engine": "vector"}, {"batched_scoring": False}],
        ids=["scoring_engine", "batched_scoring"],
    )
    def test_kernel_config_engine_switches_are_gone(self, changes):
        with pytest.raises(TypeError):
            KernelConfig(**changes)

    def test_scoring_engine_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            bench_main(["--figure", "quick", "--scoring-engine", "vector"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --scoring-engine" in capsys.readouterr().err


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
