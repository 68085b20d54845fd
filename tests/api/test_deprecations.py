"""The deprecation shims: one warning each, bit-identical behaviour.

Policy (DESIGN.md, "Deprecation policy"): a legacy entry point keeps its
exact historical behaviour for one release, emits exactly one
:class:`DeprecationWarning` per call naming its replacement, and
delegates to the shared implementation so the two paths cannot diverge.
After that release it is deleted.

Currently shimmed: none.
"""

import importlib
import inspect
import warnings

import pytest

import repro.bench
from repro.align import preset
from repro.api import EngineOptions, Session, align_tasks, get_engine
from repro.bench import runner
from repro.bench.cli import main as bench_main
from repro.io.datasets import synthetic_reference
from repro.kernels import KernelConfig
from repro.pipeline import experiment
from repro.pipeline.mapper import LongReadMapper
from repro.serve import ServeConfig
from repro.serve.cli import main as serve_main
from repro.serve.loadgen import LoadGenerator


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
        "name", ["kernel_suite", "align_workload", "compare_kernels", "ExperimentConfig"]
    )
    def test_experiment_shims_are_gone(self, name):
        assert not hasattr(experiment, name)

    @pytest.mark.parametrize(
        "fn", [align_tasks, Session, LongReadMapper], ids=lambda fn: fn.__name__
    )
    def test_batch_size_and_batched_keywords_are_gone(self, fn):
        params = inspect.signature(fn).parameters
        assert "batched" not in params
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

    @pytest.mark.parametrize(
        "make",
        [
            lambda: KernelConfig(batch_bucket_size=64),
            lambda: KernelConfig(tasks_per_subwarp=1),
            lambda: KernelConfig(block_size=8),
            lambda: ServeConfig(batch_size=64),
        ],
        ids=["KernelConfig.batch_bucket_size", "KernelConfig.tasks_per_subwarp",
             "KernelConfig.block_size", "ServeConfig.batch_size"],
    )
    def test_retired_config_fields_are_gone(self, make):
        # Engine tuning reaches engines only through EngineOptions.
        with pytest.raises(TypeError):
            make()

    def test_scoring_engine_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            bench_main(["--figure", "quick", "--scoring-engine", "vector"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --scoring-engine" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fn",
        [
            Session,
            runner.run_figure,
            LoadGenerator.from_dataset,
            runner.BenchCell,
        ],
        ids=lambda fn: fn.__qualname__,
    )
    def test_cache_dir_and_use_cache_keywords_are_gone(self, fn):
        # The in-process workload memo is the only task store.
        params = inspect.signature(fn).parameters
        assert "cache_dir" not in params
        assert "use_cache" not in params

    @pytest.mark.parametrize("name", ["WorkloadCache", "build_workload"])
    def test_persistent_cache_exports_are_gone(self, name):
        assert not hasattr(repro.bench, name)
        assert not hasattr(repro.bench.cache, name)

    def test_runner_suites_alias_is_gone(self):
        assert not hasattr(runner, "SUITES")

    def test_run_speedup_table_is_gone(self):
        # run_figure(..., suites=(s,)).speedup_table(s) is the one path.
        with pytest.raises(AttributeError):
            getattr(repro.bench, "run_speedup_table")
        assert not hasattr(runner, "run_speedup_table")

    def test_packing_module_is_gone(self):
        with pytest.raises(ImportError):
            from repro.align import pack_sequence  # noqa: F401
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.align.packing")
        for name in ("unpack_sequence", "PackedSequence"):
            assert not hasattr(importlib.import_module("repro.align"), name)

    @pytest.mark.parametrize(
        "main, argv",
        [
            (bench_main, ["--no-cache"]),
            (bench_main, ["--cache-info"]),
            (bench_main, ["--cache-clear"]),
            (bench_main, ["--cache-dir", "somewhere"]),
            (serve_main, ["--no-cache"]),
            (serve_main, ["--cache-dir", "somewhere"]),
        ],
        ids=[
            "bench --no-cache",
            "bench --cache-info",
            "bench --cache-clear",
            "bench --cache-dir",
            "serve --no-cache",
            "serve --cache-dir",
        ],
    )
    def test_cache_flags_are_gone(self, main, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err

    def test_nothing_persists_outside_the_process(self, tmp_path, monkeypatch):
        # Every location the retired on-disk store could resolve stays empty.
        homes = {}
        for variable in ("REPRO_CACHE_DIR", "XDG_CACHE_HOME", "HOME"):
            homes[variable] = tmp_path / variable
            homes[variable].mkdir()
            monkeypatch.setenv(variable, str(homes[variable]))
        assert len(Session(dataset="adv-heavy-tail").workload()) == 18
        record = runner.run_figure("quick", datasets=["adv-bimodal"], suites=("mm2",))
        for variable, home in homes.items():
            assert list(home.iterdir()) == [], variable
        assert "cache_dir" not in record.environment


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
