"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.align.scoring import preset
from repro.io.datasets import (
    DATASET_REGISTRY,
    TECHNOLOGY_PROFILES,
    build_dataset,
    long_short_mixture_tasks,
    simulate_reads,
    synthetic_reference,
)


class TestReference:
    def test_length_and_determinism(self):
        a = synthetic_reference(5000, np.random.default_rng(1))
        b = synthetic_reference(5000, np.random.default_rng(1))
        assert a.size == 5000
        assert np.array_equal(a, b)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            synthetic_reference(0, np.random.default_rng(1))


class TestReadSimulation:
    def test_read_counts_and_flags(self):
        rng = np.random.default_rng(2)
        reference = synthetic_reference(20_000, rng)
        reads = simulate_reads(reference, TECHNOLOGY_PROFILES["ONT"], 60, rng)
        assert len(reads) == 60
        assert any(r.is_junk for r in reads) or any(r.is_chimeric for r in reads)
        for read in reads:
            assert read.length >= 64

    def test_error_profiles_differ(self):
        hifi = TECHNOLOGY_PROFILES["HiFi"]
        clr = TECHNOLOGY_PROFILES["CLR"]
        assert hifi.substitution_rate < clr.substitution_rate

    def test_sample_length_bounded(self):
        rng = np.random.default_rng(3)
        profile = TECHNOLOGY_PROFILES["ONT"]
        for _ in range(50):
            length = profile.sample_length(rng)
            assert 64 <= length <= profile.max_length


class TestRegistry:
    def test_nine_datasets(self):
        assert len(DATASET_REGISTRY) == 9
        technologies = {spec.technology for spec in DATASET_REGISTRY.values()}
        assert technologies == {"HiFi", "CLR", "ONT"}

    def test_build_dataset_deterministic(self):
        spec = DATASET_REGISTRY["ONT-HG002"]
        ref_a, reads_a = build_dataset(spec)
        ref_b, reads_b = build_dataset(spec)
        assert np.array_equal(ref_a, ref_b)
        assert all(
            np.array_equal(x.sequence, y.sequence) for x, y in zip(reads_a, reads_b)
        )

    def test_specs_carry_scoring(self):
        for spec in DATASET_REGISTRY.values():
            assert spec.scoring.has_banding and spec.scoring.has_termination


class TestLongShortMixture:
    def test_fraction_respected(self):
        scheme = preset("map-ont", band_width=17, zdrop=100)
        tasks = long_short_mixture_tasks(0.25, 40, scheme, long_length=512, short_length=64)
        long_count = sum(1 for t in tasks if t.query_len > 256)
        assert long_count == 10

    def test_zero_fraction(self):
        scheme = preset("map-ont", band_width=17, zdrop=100)
        tasks = long_short_mixture_tasks(0.0, 20, scheme, long_length=512, short_length=64)
        assert all(t.ref_len == 64 for t in tasks)

    def test_validation(self):
        scheme = preset("map-ont", band_width=17, zdrop=100)
        with pytest.raises(ValueError):
            long_short_mixture_tasks(1.5, 10, scheme)
        with pytest.raises(ValueError):
            long_short_mixture_tasks(0.5, 0, scheme)

    def test_long_tasks_spread_through_order(self):
        scheme = preset("map-ont", band_width=17, zdrop=100)
        tasks = long_short_mixture_tasks(0.1, 50, scheme, long_length=512, short_length=64)
        long_positions = [i for i, t in enumerate(tasks) if t.ref_len == 512]
        assert len(long_positions) == 5
        assert max(long_positions) - min(long_positions) > 20


class TestResolveSpec:
    def test_unknown_name_lists_available_names(self):
        from repro.workloads import resolve_spec

        with pytest.raises(KeyError) as err:
            resolve_spec("ONT-HG02")
        message = str(err.value)
        assert "'ONT-HG02'" in message
        for name in DATASET_REGISTRY:
            assert name in message
