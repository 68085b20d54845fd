"""Sharded runner: determinism, aggregation and record assembly."""

import pytest

from repro.bench.runner import (
    ABLATION_LADDER,
    FIGURES,
    BenchCell,
    build_suite,
    resolve_specs,
    run_cell,
    run_cells,
    run_figure,
)
from repro.io.datasets import DATASET_REGISTRY
from repro.kernels import KernelConfig

from tiny_workloads import make_spec


class TestSuites:
    def test_mm2_and_diff_suites(self):
        assert set(build_suite("mm2")) == {"GASAL2", "SALoBa", "Manymap", "AGAThA"}
        assert set(build_suite("diff")) == {"GASAL2", "SALoBa", "Manymap", "LOGAN"}

    def test_ablation_suite_matches_ladder(self):
        suite = build_suite("ablation")
        assert list(suite) == [label for label, _ in ABLATION_LADDER]
        full = suite["(+) UB"]
        assert full.rolling_window and full.uneven_bucketing

    def test_suite_config_flows_through(self):
        suite = build_suite("mm2", KernelConfig(slice_width=5))
        assert all(k.config.slice_width == 5 for k in suite.values())

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            build_suite("nope")

    def test_resolve_specs(self):
        specs = resolve_specs(["ONT-HG002", make_spec()])
        assert specs[0] == DATASET_REGISTRY["ONT-HG002"]
        assert specs[1].name == "tiny-A"
        with pytest.raises(KeyError, match="unknown dataset"):
            resolve_specs(["no-such-dataset"])


class TestDeterminism:
    def test_parallel_equals_serial_bitwise(self, tiny_specs):
        """The acceptance property: sharding must not change a single bit."""
        serial = run_figure("quick", datasets=tiny_specs, suites=("mm2",), workers=1)
        parallel = run_figure("quick", datasets=tiny_specs, suites=("mm2",), workers=2)
        # Exact float equality: cells, CPU anchors and speedups, GeoMean included.
        assert serial.suites["mm2"].to_dict() == parallel.suites["mm2"].to_dict()

    def test_repeated_parallel_runs_identical(self, tiny_specs):
        first = run_figure("quick", datasets=tiny_specs, suites=("ablation",), workers=2)
        second = run_figure("quick", datasets=tiny_specs, suites=("ablation",), workers=2)
        assert first.suites["ablation"].to_dict() == second.suites["ablation"].to_dict()


class TestValidation:
    def test_unknown_figure(self):
        with pytest.raises(KeyError, match="unknown figure"):
            run_figure("fig99")

    def test_unknown_suite_override(self, tiny_specs):
        with pytest.raises(ValueError, match="unknown suite"):
            run_figure("quick", datasets=tiny_specs, suites=("nope",))

    def test_figure_plans_reference_known_datasets(self):
        for plan in FIGURES.values():
            resolve_specs(plan.datasets)


class TestRecords:
    def test_run_figure_assembles_record(self, tiny_specs):
        record = run_figure("quick", datasets=tiny_specs, workers=2)
        assert record.figure == "quick"
        assert record.datasets == ["tiny-A", "tiny-B"]
        assert set(record.suites) == {"mm2", "diff"}
        assert record.environment["workers"] == 2
        assert record.wall_time_s > 0
        for suite in record.suites.values():
            assert set(suite.cpu_time_ms) == {"tiny-A", "tiny-B"}
            assert len(suite.cells) == 2 * 4  # two datasets x four kernels
            for cell in suite.cells:
                cpu_ms = suite.cpu_time_ms[cell.dataset]
                assert cell.speedup_vs_cpu == pytest.approx(cpu_ms / cell.time_ms)
                assert cell.cells > 0

    def test_progress_callback(self, tiny_spec):
        seen = []
        run_figure(
            "quick",
            datasets=[tiny_spec],
            suites=("mm2",),
            progress=lambda done, total, cell: seen.append((done, total, cell.suite)),
        )
        assert seen == [(1, 1, "mm2")]


class TestCells:
    def test_run_cell_includes_cpu_anchor(self, tiny_spec):
        cell = BenchCell(spec=tiny_spec, suite="mm2")
        result = run_cell(cell)
        assert result["CPU"]["speedup_vs_cpu"] == 1.0
        assert set(result) == {"CPU", "GASAL2", "SALoBa", "Manymap", "AGAThA"}

    def test_run_cells_preserves_input_order(self, tiny_specs):
        cells = [
            BenchCell(spec=spec, suite=suite)
            for suite in ("mm2", "diff")
            for spec in tiny_specs
        ]
        serial = run_cells(cells, workers=1)
        parallel = run_cells(cells, workers=3)
        assert serial == parallel

    def test_worker_exception_propagates(self):
        bad = BenchCell(spec=make_spec(technology="HiFi"), suite="nope")
        with pytest.raises(ValueError, match="unknown suite"):
            run_cells([bad, bad], workers=2)

    def test_worker_imports_plugin_module_for_unknown_suite(
        self, tiny_spec, tmp_path, monkeypatch
    ):
        """A spawn worker that never imported the plugin module rebuilds
        the suite by importing ``cell.suite_origin`` and retrying."""
        import sys

        plugin = tmp_path / "bench_plugin_mod.py"
        plugin.write_text(
            "from repro.api import SUITES, SuiteEntry, register_suite\n"
            "if 'plugin-suite' not in SUITES:\n"
            "    register_suite('plugin-suite', [SuiteEntry.make('AGAThA', 'AGAThA')])\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        import importlib

        importlib.import_module("bench_plugin_mod")
        from repro.api.suites import SUITES, get_suite

        try:
            assert get_suite("plugin-suite").origin == "bench_plugin_mod"
            # Simulate a freshly spawned worker: neither the registry entry
            # nor the plugin module exists yet.
            SUITES.unregister("plugin-suite")
            sys.modules.pop("bench_plugin_mod")
            cell = BenchCell(
                spec=tiny_spec,
                suite="plugin-suite",
                suite_origin="bench_plugin_mod",
            )
            result = run_cell(cell)
            assert set(result) == {"CPU", "AGAThA"}
        finally:
            if "plugin-suite" in SUITES:
                SUITES.unregister("plugin-suite")
            sys.modules.pop("bench_plugin_mod", None)

    def test_cells_carry_builtin_suite_origin(self, tiny_specs, tmp_path):
        from repro.bench.runner import _suite_origin

        assert _suite_origin("mm2") == "repro.api.suites"
        assert _suite_origin("not-registered") is None

    def test_main_registered_suite_rejected_under_spawn(self, tiny_specs, monkeypatch):
        """Spawn-started workers re-import modules and never see __main__
        registrations, so sharding such a suite must fail fast."""
        from repro.api.suites import SUITES, SuiteEntry, SuiteSpec

        spec = SuiteSpec(
            name="test-main-suite",
            entries=(SuiteEntry.make("AGAThA", "AGAThA"),),
            origin="__main__",
        )
        SUITES.register("test-main-suite", spec)
        cells = [BenchCell(spec=s, suite="test-main-suite") for s in tiny_specs]
        try:
            monkeypatch.setattr(
                "multiprocessing.get_start_method", lambda *a, **k: "spawn"
            )
            with pytest.raises(ValueError, match="registered in __main__"):
                run_cells(cells, workers=2)
            # Serial execution stays fine regardless of start method.
            assert len(run_cells(cells, workers=1)) == 2
        finally:
            SUITES.unregister("test-main-suite")
