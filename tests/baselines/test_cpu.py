"""Tests for the CPU baseline models."""

import pytest

from repro.baselines.aligner import BwaMemCpuAligner, CpuAligner, Minimap2CpuAligner
from repro.baselines.cpu_model import CPU_PRESETS, CpuSpec, get_cpu


class TestCpuSpec:
    def test_throughput_positive(self):
        for spec in CPU_PRESETS.values():
            assert spec.cells_per_second > 0

    def test_avx512_machine_faster(self):
        sse = get_cpu("sse4-16c")
        avx = get_cpu("avx512-48c")
        ratio = avx.cells_per_second / sse.cells_per_second
        # The paper reports the AVX-512 machine ~2.3x faster in geomean.
        assert 1.8 < ratio < 2.8

    def test_time_model(self):
        spec = CpuSpec(name="x", cores=1, threads=1, simd_lanes=1, clock_ghz=1.0, efficiency=1.0, cycles_per_cell=1.0)
        assert spec.time_ms(1e9) == pytest.approx(1000.0)
        with pytest.raises(ValueError):
            spec.time_ms(-1)

    def test_scale_preserves_ratio_exactly(self):
        spec = get_cpu("sse4-16c")
        scaled = spec.scale(0.25)
        assert scaled.cells_per_second == pytest.approx(spec.cells_per_second * 0.25)
        with pytest.raises(ValueError):
            spec.scale(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CpuSpec(name="bad", cores=0, threads=1, simd_lanes=1, clock_ghz=1.0)
        with pytest.raises(ValueError):
            CpuSpec(name="bad", cores=1, threads=1, simd_lanes=1, clock_ghz=1.0, efficiency=0.0)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_cpu("m1")


class TestCpuAligner:
    def test_scores_match_oracle(self, task_batch):
        from repro.align.reference import reference_align

        aligner = Minimap2CpuAligner()
        for task, result in zip(task_batch, aligner.run(task_batch)):
            assert result.same_score(reference_align(task.ref, task.query, task.scoring))

    def test_time_proportional_to_cells(self, task_batch):
        aligner = Minimap2CpuAligner()
        half = aligner.time_ms(task_batch[: len(task_batch) // 2])
        full = aligner.time_ms(task_batch)
        assert full > half > 0

    def test_stronger_cpu_is_faster(self, task_batch):
        sse = Minimap2CpuAligner(get_cpu("sse4-16c"))
        avx = Minimap2CpuAligner(get_cpu("avx512-48c"))
        assert avx.time_ms(task_batch) < sse.time_ms(task_batch)

    def test_every_profile_consumer_shares_one_batched_sweep(self, task_batch, monkeypatch):
        """The CPU model, workload analysis, the kernels and
        ``AlignmentTask.profile`` all read profiles primed by one
        ``vector_align`` sweep; none falls back to the scalar engine."""
        import repro.align.antidiagonal as antidiagonal
        import repro.align.vector as vector
        from repro.analysis.workload import task_workload_antidiagonals
        from repro.kernels import AgathaKernel

        def scalar_engine(*args, **kwargs):
            raise AssertionError("a profile was computed by the scalar engine")

        swept = []
        vector_align = vector.vector_align

        def counting_vector_align(tasks, **kwargs):
            swept.append(len(tasks))
            return vector_align(tasks, **kwargs)

        monkeypatch.setattr(antidiagonal, "antidiagonal_align", scalar_engine)
        monkeypatch.setattr(vector, "vector_align", counting_vector_align)
        Minimap2CpuAligner().total_cells(task_batch)
        task_workload_antidiagonals(task_batch)
        AgathaKernel().run(task_batch)
        AgathaKernel().simulate(task_batch)
        task_batch[0].profile()
        assert swept == [len(task_batch)]

    def test_display_names(self):
        assert "Minimap2" in Minimap2CpuAligner().display_name
        assert "BWA-MEM" in BwaMemCpuAligner().display_name
        assert "CPU" in CpuAligner().display_name
