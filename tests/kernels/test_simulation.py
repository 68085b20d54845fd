"""Behavioural tests of the kernel cost simulations.

These tests assert the *directional* claims of the paper: AGAThA's schemes
reduce run-ahead work, memory traffic and imbalance relative to the naive
exact baseline, and the full design is the fastest of the exact kernels.
"""

import pytest

from repro.gpusim.device import CostModel, RTX_2080TI, RTX_A6000
from repro.kernels import (
    AgathaKernel,
    BaselineExactKernel,
    Gasal2Kernel,
    KernelConfig,
    LoganKernel,
    ManymapKernel,
    SALoBaKernel,
)

DEVICE = RTX_A6000.scale(1 / 84)


def simulate(kernel, tasks):
    return kernel.simulate(tasks, DEVICE)


class TestBasicInvariants:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: BaselineExactKernel(),
            lambda: SALoBaKernel(target="diff"),
            lambda: Gasal2Kernel(target="mm2"),
            lambda: ManymapKernel(target="mm2"),
            lambda: LoganKernel(),
            lambda: AgathaKernel(),
        ],
    )
    def test_simulation_produces_positive_time_and_work(self, factory, task_batch):
        stats = simulate(factory(), task_batch)
        assert stats.time_ms > 0
        assert stats.total_cells > 0
        assert stats.num_warps > 0
        summary = stats.summary()
        assert summary["time_ms"] == stats.time_ms

    def test_every_task_appears_once(self, task_batch):
        stats = simulate(AgathaKernel(), task_batch)
        task_ids = sorted(
            wl.task_id
            for warp in stats.warps
            for sw in warp.subwarps
            for wl in sw.workloads
        )
        assert task_ids == sorted(t.task_id for t in task_batch)

    def test_empty_task_list(self):
        stats = simulate(AgathaKernel(), [])
        assert stats.time_ms == 0.0
        assert stats.num_warps == 0


class TestDirectionalClaims:
    def test_agatha_faster_than_naive_baseline(self, task_batch):
        agatha = simulate(AgathaKernel(), task_batch)
        baseline = simulate(BaselineExactKernel(), task_batch)
        assert agatha.time_ms < baseline.time_ms

    def test_ablation_ladder_never_regresses_much(self, task_batch):
        """The full design clearly beats the bare baseline.  Individual
        intermediate steps may regress slightly on this deliberately tiny
        test batch (band width 17), where per-slice boundary traffic is
        large relative to the cell work -- the slice-width trade-off the
        paper discusses in Section 4.2 -- so only a loose per-step bound is
        asserted here; the benchmark harness checks the ladder on the
        realistic datasets."""
        variants = [
            AgathaKernel(rolling_window=False, sliced_diagonal=False, subwarp_rejoining=False, uneven_bucketing=False),
            AgathaKernel(sliced_diagonal=False, subwarp_rejoining=False, uneven_bucketing=False),
            AgathaKernel(subwarp_rejoining=False, uneven_bucketing=False),
            AgathaKernel(uneven_bucketing=False),
            AgathaKernel(),
        ]
        times = [simulate(v, task_batch).time_ms for v in variants]
        assert times[0] > times[-1]
        for earlier, later in zip(times, times[1:]):
            assert later <= earlier * 1.9

    def test_sliced_diagonal_reduces_runahead(self, task_batch):
        chunked = simulate(AgathaKernel(sliced_diagonal=False, subwarp_rejoining=False, uneven_bucketing=False), task_batch)
        sliced = simulate(AgathaKernel(subwarp_rejoining=False, uneven_bucketing=False), task_batch)
        assert sliced.total_runahead_cells < chunked.total_runahead_cells

    def test_rolling_window_reduces_global_traffic(self, task_batch):
        bare = simulate(AgathaKernel(rolling_window=False, sliced_diagonal=False, subwarp_rejoining=False, uneven_bucketing=False), task_batch)
        rw = simulate(AgathaKernel(sliced_diagonal=False, subwarp_rejoining=False, uneven_bucketing=False), task_batch)
        assert rw.total_traffic.global_words < bare.total_traffic.global_words

    def test_subwarp_rejoining_reports_events(self, task_batch):
        stats = simulate(AgathaKernel(uneven_bucketing=False), task_batch)
        assert stats.total_rejoin_events > 0

    def test_uneven_bucketing_reduces_warp_imbalance(self, rng, small_scheme):
        from tests.conftest import make_task_batch

        # A skewed batch: a few much longer tasks in front-loaded order.
        tasks = make_task_batch(rng, small_scheme, count=32, min_len=60, max_len=120)
        tasks += make_task_batch(rng, small_scheme, count=4, min_len=700, max_len=900, task_id_base=32)
        without = simulate(AgathaKernel(subwarp_rejoining=True, uneven_bucketing=False, scheduling="original"), tasks)
        with_ub = simulate(AgathaKernel(), tasks)
        assert with_ub.time_ms <= without.time_ms

    def test_gasal2_mm2_slowest_exact_kernel(self, task_batch):
        gasal = simulate(Gasal2Kernel(target="mm2"), task_batch)
        agatha = simulate(AgathaKernel(), task_batch)
        saloba = simulate(SALoBaKernel(target="mm2"), task_batch)
        assert gasal.time_ms > agatha.time_ms
        assert gasal.time_ms >= saloba.time_ms * 0.9

    def test_cells_at_least_ideal(self, task_batch):
        for factory in (BaselineExactKernel, AgathaKernel):
            stats = simulate(factory(), task_batch)
            for warp in stats.warps:
                for sw in warp.subwarps:
                    for wl in sw.workloads:
                        assert wl.cells >= wl.ideal_cells * 0.99


class TestDeviceSensitivity:
    def test_2080ti_slower_than_a6000(self, task_batch):
        kernel = AgathaKernel()
        a6000 = kernel.simulate(task_batch, RTX_A6000.scale(1 / 84))
        turing = kernel.simulate(task_batch, RTX_2080TI.scale(1 / 68))
        assert turing.time_ms > a6000.time_ms

    def test_dpx_helps(self, task_batch):
        """DPX instructions halve the per-cell compute cost; isolate the
        effect on one device so clock/SM differences do not interfere."""
        kernel = AgathaKernel()
        base_device = RTX_A6000.scale(1 / 84)
        dpx_device = base_device.replace(dpx_factor=2.0)
        base = kernel.simulate(task_batch, base_device)
        dpx = kernel.simulate(task_batch, dpx_device)
        assert dpx.time_ms < base.time_ms

    def test_subwarp_size_is_configurable(self, task_batch):
        for size in (8, 16, 32):
            stats = simulate(AgathaKernel(config=KernelConfig(subwarp_size=size)), task_batch)
            assert stats.time_ms > 0

    def test_slice_width_sweep_runs(self, task_batch):
        times = []
        for width in (1, 3, 8, 32):
            stats = simulate(
                AgathaKernel(config=KernelConfig(slice_width=width)), task_batch
            )
            times.append(stats.time_ms)
        assert all(t > 0 for t in times)

    def test_custom_cost_model(self, task_batch):
        cheap = CostModel().replace(global_access_cycles=1.0)
        expensive = CostModel().replace(global_access_cycles=200.0)
        kernel = BaselineExactKernel()
        fast = kernel.simulate(task_batch, DEVICE, cheap)
        slow = kernel.simulate(task_batch, DEVICE, expensive)
        assert fast.time_ms < slow.time_ms
