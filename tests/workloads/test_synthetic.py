"""Tests for the adversarial synthetic workload generators."""

import numpy as np
import pytest

from repro.align.scoring import preset
from repro.workloads import DISTRIBUTIONS, AdversarialWorkloadSpec

SCORING = preset("map-ont", band_width=32, zdrop=120)


def spec(**overrides):
    params = dict(
        name="t",
        scoring=SCORING,
        distribution="heavy-tail",
        num_tasks=24,
        seed=11,
        min_length=64,
        max_length=1024,
    )
    params.update(overrides)
    return AdversarialWorkloadSpec(**params)


class TestValidation:
    def test_unknown_distribution_lists_choices(self):
        with pytest.raises(ValueError) as err:
            spec(distribution="nope")
        for name in DISTRIBUTIONS:
            assert name in str(err.value)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_tasks": 0},
            {"min_length": 0},
            {"min_length": 100, "max_length": 50},
            {"junk_tail_fraction": 1.5},
            {"num_runs": 0},
        ],
    )
    def test_bad_parameters_rejected(self, overrides):
        with pytest.raises(ValueError):
            spec(**overrides)


class TestGeneration:
    def test_deterministic_in_seed(self):
        a = spec().build_tasks()
        b = spec().build_tasks()
        assert len(a) == len(b) == 24
        for x, y in zip(a, b):
            assert np.array_equal(x.ref, y.ref)
            assert np.array_equal(x.query, y.query)

    def test_different_seed_different_tasks(self):
        a = spec().build_tasks()
        b = spec(seed=12).build_tasks()
        assert any(
            not np.array_equal(x.ref, y.ref) for x, y in zip(a, b)
        )

    def test_lengths_within_bounds(self):
        for distribution in DISTRIBUTIONS:
            tasks = spec(distribution=distribution).build_tasks()
            for task in tasks:
                assert 64 <= task.ref.size <= 1024

    def test_heavy_tail_is_skewed(self):
        lengths = [t.ref.size for t in spec(num_tasks=64).build_tasks()]
        # Most tasks are small, a few are giants: the mean sits well
        # above the median, the signature of a heavy right tail.
        assert np.mean(lengths) > 1.2 * np.median(lengths)

    def test_bimodal_interleaves_extremes(self):
        tasks = spec(distribution="bimodal", num_tasks=16).build_tasks()
        lengths = np.array([t.ref.size for t in tasks])
        # Even positions hug min_length, odd positions hug max_length.
        assert lengths[0::2].max() < 200
        assert lengths[1::2].min() > 800

    def test_sorted_runs_ascend_within_each_run(self):
        tasks = spec(
            distribution="sorted-runs", num_tasks=24, num_runs=4
        ).build_tasks()
        lengths = [t.ref.size for t in tasks]
        run = 24 // 4
        for start in range(0, 24, run):
            chunk = lengths[start : start + run]
            assert chunk == sorted(chunk)

    def test_junk_tails_trigger_zdrop(self):
        from repro.align.vector import vector_align

        tasks = spec(num_tasks=32, seed=3).build_tasks()
        results = vector_align(tasks)
        assert any(r.terminated for r in results), (
            "junk tails should make Z-drop fire on some tasks"
        )

    def test_cache_fingerprint_differs_per_field(self):
        from repro.bench.cache import spec_fingerprint

        base = spec_fingerprint(spec())
        assert spec_fingerprint(spec(seed=99)) != base
        assert spec_fingerprint(spec(distribution="uniform")) != base
