"""Tests for the experiment harness (scaled hardware, comparisons)."""

import pytest

from repro.api import build_suite, compare_suite
from repro.baselines.cpu_model import EPYC_16C_SSE4
from repro.gpusim.device import RTX_A6000
from repro.kernels import AgathaKernel, BaselineExactKernel
from repro.pipeline.experiment import (
    all_dataset_names,
    geometric_mean,
    scaled_hardware,
)


class TestScaledHardware:
    def test_ratio_preserved(self):
        device, cpu = scaled_hardware(1 / 84)
        gpu_factor = device.num_sms / RTX_A6000.num_sms
        cpu_factor = cpu.cells_per_second / EPYC_16C_SSE4.cells_per_second
        assert gpu_factor == pytest.approx(cpu_factor)

    def test_identity_scale(self):
        device, cpu = scaled_hardware(1.0)
        assert device.num_sms == RTX_A6000.num_sms


class TestKernelSuite:
    def test_mm2_suite_contents(self):
        suite = build_suite("mm2")
        assert set(suite) == {"GASAL2", "SALoBa", "Manymap", "AGAThA"}
        assert all(k.target == "mm2" for k in suite.values())

    def test_diff_suite_contents(self):
        suite = build_suite("diff")
        assert set(suite) == {"GASAL2", "SALoBa", "Manymap", "LOGAN"}

    def test_invalid_target(self):
        with pytest.raises(KeyError, match="unknown suite"):
            build_suite("x")


class TestCompare:
    def test_compare_kernels_reports_speedups(self, task_batch):
        results = compare_suite(
            task_batch,
            {"AGAThA": AgathaKernel(), "Baseline": BaselineExactKernel()},
        ).to_dict()
        assert results["CPU"]["speedup_vs_cpu"] == 1.0
        assert results["AGAThA"]["time_ms"] > 0
        assert results["AGAThA"]["speedup_vs_cpu"] > results["Baseline"]["speedup_vs_cpu"]

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, 5.0]) == pytest.approx(5.0)

    def test_dataset_names(self):
        names = all_dataset_names()
        assert len(names) == 9
        assert names[0].startswith("HiFi")
