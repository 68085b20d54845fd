"""Tests for the workload registry and its integration points."""

import dataclasses

import pytest

from repro.align.scoring import preset
from repro.api import RegistryError
from repro.io.datasets import DATASET_REGISTRY
from repro.workloads import (
    WORKLOADS,
    AdversarialWorkloadSpec,
    WorkloadSpec,
    get_workload,
    register_workload,
    resolve_spec,
    workload_names,
)

BUILTINS = (
    "adv-heavy-tail",
    "adv-bimodal",
    "adv-sorted-runs",
    "protein-blosum62",
    "fasta-sample",
)


class TestRegistry:
    def test_builtins_registered(self):
        assert workload_names() == BUILTINS

    def test_get_workload_unknown_lists_names(self):
        with pytest.raises(KeyError) as err:
            get_workload("nope")
        message = str(err.value)
        assert "'nope'" in message
        for name in BUILTINS:
            assert name in message

    def test_register_requires_structural_hooks(self):
        @dataclasses.dataclass(frozen=True)
        class NotAWorkload:
            name: str = "broken"

        with pytest.raises(TypeError, match="build_tasks"):
            register_workload(NotAWorkload())

    def test_register_duplicate_needs_replace(self):
        spec = get_workload("adv-heavy-tail")
        with pytest.raises(Exception):
            register_workload(spec)
        assert register_workload(spec, replace=True) is spec

    def test_dataset_names_are_reserved(self):
        """A workload named like a seeded dataset could never be resolved
        (the dataset would shadow it), so registration refuses it."""
        spec = AdversarialWorkloadSpec(
            name="ONT-HG002",
            scoring=preset("map-ont", band_width=16),
            distribution="uniform",
            num_tasks=3,
            seed=7,
            min_length=32,
            max_length=64,
        )
        try:
            for replace in (False, True):
                with pytest.raises(RegistryError, match="seeded dataset"):
                    register_workload(spec, replace=replace)
        finally:
            if spec.name in WORKLOADS:
                WORKLOADS.unregister(spec.name)
        assert resolve_spec("ONT-HG002") is DATASET_REGISTRY["ONT-HG002"]

    def test_custom_registration_and_removal(self):
        spec = AdversarialWorkloadSpec(
            name="test-custom",
            scoring=preset("map-ont", band_width=16),
            distribution="uniform",
            num_tasks=3,
            seed=7,
            min_length=32,
            max_length=64,
        )
        register_workload(spec)
        try:
            assert get_workload("test-custom") is spec
            assert resolve_spec("test-custom") is spec
        finally:
            WORKLOADS.unregister("test-custom")
        assert "test-custom" not in WORKLOADS

    def test_base_spec_build_tasks_is_abstract(self):
        spec = WorkloadSpec(name="abstract", scoring=preset("map-ont"))
        with pytest.raises(NotImplementedError):
            spec.build_tasks()
        assert spec.cache_fingerprint_extra() is None

    def test_describe_names_parameters(self):
        text = get_workload("adv-heavy-tail").describe()
        assert "adv-heavy-tail" in text
        assert "distribution='heavy-tail'" in text


class TestResolveSpec:
    def test_dataset_names_win(self):
        name = next(iter(DATASET_REGISTRY))
        assert resolve_spec(name) is DATASET_REGISTRY[name]

    def test_workload_names_resolve(self):
        assert resolve_spec("fasta-sample") is get_workload("fasta-sample")

    def test_unknown_name_lists_both_namespaces(self):
        with pytest.raises(KeyError) as err:
            resolve_spec("nope")
        message = str(err.value)
        assert "datasets:" in message
        assert "workloads:" in message
        assert "adv-heavy-tail" in message


class TestIntegration:
    def test_session_accepts_workload_name(self):
        from repro.api import Session

        session = Session(dataset="adv-sorted-runs")
        assert session.dataset is get_workload("adv-sorted-runs")
        workload = session.workload()
        assert len(workload) == 18

    def test_session_align_engines_bit_identical(self):
        from repro.api import Session

        scores = {
            engine: Session(dataset="adv-bimodal", engine=engine).align().scores
            for engine in ("scalar", "vector")
        }
        reference = scores.pop("scalar")
        for engine, got in scores.items():
            assert got == reference, f"{engine} diverged from scalar"

    def test_sessions_and_dataset_tasks_share_one_tuple(self):
        from repro.api import Session
        from repro.pipeline.experiment import dataset_tasks

        first = Session(dataset="adv-bimodal").workload()
        assert Session(dataset="adv-bimodal").workload() is first
        assert dataset_tasks("adv-bimodal") is first

    def test_no_cache_env_holds_for_workloads(self, tmp_path, monkeypatch):
        from repro.api import Session

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert len(Session(dataset="adv-heavy-tail").workload()) == 18
        assert list(tmp_path.rglob("*.pkl")) == []

    def test_loadgen_accepts_workload_name(self):
        from repro.serve.loadgen import LoadGenerator

        generator = LoadGenerator.from_dataset("adv-heavy-tail", seed=5)
        assert generator.name == "adv-heavy-tail"
        assert len(generator.tasks) == 18

    def test_bench_resolve_specs_falls_back_to_workloads(self):
        from repro.bench.runner import resolve_specs

        specs = resolve_specs(["protein-blosum62"])
        assert specs == [get_workload("protein-blosum62")]

    def test_run_figure_workloads_covers_every_registered_name(self):
        from repro.bench.runner import run_figure

        record = run_figure("workloads")
        assert record.datasets == list(workload_names())
        suite = record.suites["workloads"]
        assert {cell.kernel for cell in suite.cells} == {"AGAThA"}
        assert set(suite.speedups["AGAThA"]) == set(workload_names()) | {"GeoMean"}

    def test_api_reexports(self):
        import repro
        import repro.api as api

        assert api.workload_names() == workload_names()
        assert repro.FastaWorkloadSpec is api.FastaWorkloadSpec
        assert api.WORKLOADS is WORKLOADS
