"""Exactness tests: every exact kernel must reproduce the scalar oracle.

This is the paper's central claim -- AGAThA accelerates the *exact*
reference guided algorithm -- so every kernel configuration that claims
exactness is checked score-for-score against the oracle, and the
heuristic kernels are checked to follow their own (different)
specifications.
"""

import numpy as np
import pytest

from repro.align.antidiagonal import antidiagonal_align
from repro.align.reference import reference_align
from repro.align.termination import XDrop
from repro.kernels import (
    AgathaKernel,
    BaselineExactKernel,
    Gasal2Kernel,
    KernelConfig,
    LoganKernel,
    ManymapKernel,
    SALoBaKernel,
)


def oracle_results(tasks):
    return [reference_align(t.ref, t.query, t.scoring) for t in tasks]


EXACT_KERNELS = [
    ("baseline", lambda: BaselineExactKernel()),
    ("saloba-mm2", lambda: SALoBaKernel(target="mm2")),
    ("gasal2-mm2", lambda: Gasal2Kernel(target="mm2")),
    ("manymap-mm2", lambda: ManymapKernel(target="mm2")),
    ("agatha-full", lambda: AgathaKernel()),
    ("agatha-rw-only", lambda: AgathaKernel(sliced_diagonal=False, subwarp_rejoining=False, uneven_bucketing=False)),
    ("agatha-no-ub", lambda: AgathaKernel(uneven_bucketing=False)),
    ("agatha-bare", lambda: AgathaKernel(rolling_window=False, sliced_diagonal=False, subwarp_rejoining=False, uneven_bucketing=False)),
]


class TestExactKernels:
    @pytest.mark.parametrize("name,factory", EXACT_KERNELS, ids=[n for n, _ in EXACT_KERNELS])
    def test_matches_oracle(self, name, factory, task_batch):
        kernel = factory()
        assert kernel.exact
        results = kernel.run(task_batch)
        for got, want in zip(results, oracle_results(task_batch)):
            assert got.same_score(want)

    def test_all_exact_kernels_agree_with_each_other(self, task_batch):
        reference = BaselineExactKernel().run(task_batch)
        for _, factory in EXACT_KERNELS[1:]:
            results = factory().run(task_batch)
            assert all(a.same_score(b) for a, b in zip(results, reference))


class TestHeuristicKernels:
    def test_logan_is_flagged_inexact(self):
        assert not LoganKernel().exact

    def test_logan_follows_xdrop_specification(self, task_batch):
        results = LoganKernel().run(task_batch)
        for task, got in zip(task_batch, results):
            want = antidiagonal_align(
                task.ref, task.query, task.scoring, XDrop(xdrop=task.scoring.zdrop)
            )
            assert got.same_score(want)

    def test_diff_target_ignores_termination(self, task_batch):
        results = SALoBaKernel(target="diff").run(task_batch)
        for task, got in zip(task_batch, results):
            want = antidiagonal_align(task.ref, task.query, task.scoring.replace(zdrop=0))
            assert got.same_score(want)
            assert not got.terminated

    def test_manymap_diff_uses_inexact_condition(self, task_batch):
        results = ManymapKernel(target="diff").run(task_batch)
        for task, got in zip(task_batch, results):
            want = antidiagonal_align(
                task.ref, task.query, task.scoring, XDrop(xdrop=task.scoring.zdrop)
            )
            assert got.same_score(want)

    def test_heuristic_kernels_can_differ_from_oracle(self, rng, small_scheme):
        """On divergent pairs the X-drop heuristics terminate differently
        from Z-drop at least sometimes (that is why they are inexact)."""
        from tests.conftest import make_task_batch

        tasks = make_task_batch(rng, small_scheme, count=30, min_len=150, max_len=400)
        oracle = oracle_results(tasks)
        logan = LoganKernel().run(tasks)
        differing = sum(
            0 if a.same_score(b) else 1 for a, b in zip(logan, oracle)
        )
        assert differing >= 1


class TestConfigValidation:
    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            SALoBaKernel(target="x")
        with pytest.raises(ValueError):
            Gasal2Kernel(target="x")
        with pytest.raises(ValueError):
            ManymapKernel(target="x")

    def test_invalid_scheduling_rejected(self):
        with pytest.raises(ValueError):
            AgathaKernel(scheduling="bogus")

    def test_kernel_config_replace(self):
        cfg = KernelConfig().replace(subwarp_size=16)
        assert cfg.subwarp_size == 16
        assert cfg.subwarps_per_warp == 2

    def test_sliced_scoring_engine_primes_identical_profiles(self, task_batch):
        """The default sliced vector priming equals the scalar profiles."""
        for task in task_batch:
            task.invalidate_profile()
        kernel = AgathaKernel(KernelConfig())
        results = kernel.run(task_batch)
        for got, want in zip(results, oracle_results(task_batch)):
            assert got.same_score(want)
        for task in task_batch:
            sliced_profile = task.profile()
            scalar_profile = antidiagonal_align(
                task.ref, task.query, task.scoring, return_profile=True
            )
            assert scalar_profile.result == sliced_profile.result
            assert np.array_equal(
                scalar_profile.antidiag_maxima, sliced_profile.antidiag_maxima
            )
            assert np.array_equal(
                scalar_profile.cells_per_antidiag, sliced_profile.cells_per_antidiag
            )
