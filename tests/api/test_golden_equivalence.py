"""Golden equivalence: the ``Session`` façade vs the free-function paths.

Acceptance property of the API layer: on the Figure-8 workloads,
``Session.align/simulate/compare/run_figure`` must produce bit-identical
scores, launch stats and BENCH records versus calling the shared
implementations directly (``align_tasks``, ``GuidedKernel.simulate``,
``compare_suite``, ``run_figure``, ``run_speedup_table``), and the bench
runner must build its cells from the shared suite registry.
"""

import pytest

from repro.api import Session, align_tasks, build_suite, compare_suite, get_suite
from repro.bench.runner import (
    build_suite as runner_build_suite,
    run_figure,
    run_speedup_table,
)
from repro.kernels import AgathaKernel
from repro.pipeline.experiment import dataset_tasks, scaled_hardware

#: One of the paper's nine Figure-8 datasets (also used by the examples;
#: its workload is shared in-process with the figure benchmarks).
DATASET = "ONT-HG002"


@pytest.fixture(scope="module")
def figure8_tasks():
    return dataset_tasks(DATASET)


@pytest.fixture(scope="module")
def session():
    return Session(dataset=DATASET)


@pytest.fixture(scope="module")
def vector_reference(figure8_tasks):
    # One reference for both engines: tests/align/test_vector.py pins the
    # vector engine to the scalar oracle, so the scalar engine runs once.
    return align_tasks(figure8_tasks, engine="vector")


class TestAlignEquivalence:
    @pytest.mark.parametrize("batched", [True, False])
    def test_scores_bit_identical(self, vector_reference, batched):
        engine = "vector" if batched else "scalar"
        outcome = Session(dataset=DATASET, engine=engine).align()
        assert outcome.scores == [r.score for r in vector_reference]
        assert [r.cells_computed for r in outcome] == [
            r.cells_computed for r in vector_reference
        ]
        assert [(r.max_i, r.max_j, r.terminated, r.antidiagonals_processed)
                for r in outcome] == [
            (r.max_i, r.max_j, r.terminated, r.antidiagonals_processed)
            for r in vector_reference
        ]

    def test_session_workload_is_dataset_tasks(self, session, figure8_tasks):
        # Same cached task objects -> the profile cache is shared too.
        assert session.workload() is figure8_tasks


class TestSimulateEquivalence:
    def test_launch_stats_bit_identical(self, session, figure8_tasks):
        device, _ = scaled_hardware()
        legacy_stats = AgathaKernel().simulate(figure8_tasks, device)
        outcome = session.simulate("AGAThA")
        assert outcome.stats.summary() == legacy_stats.summary()
        assert outcome.summary.to_dict() == legacy_stats.summary()


class TestCompareEquivalence:
    @pytest.mark.parametrize("target", ["mm2", "diff"])
    def test_comparison_mapping_bit_identical(self, figure8_tasks, target):
        device, cpu = scaled_hardware()
        legacy = compare_suite(
            figure8_tasks, build_suite(target), device=device, cpu=cpu
        ).to_dict()
        fresh = Session(dataset=DATASET, suite=target).compare()
        assert fresh.to_dict() == legacy  # exact float equality throughout


class TestRunFigureEquivalence:
    def test_bench_record_bit_identical(self, session):
        legacy_record = run_figure("quick", datasets=[DATASET])
        fresh_record = session.run_figure("quick")
        assert fresh_record.datasets == legacy_record.datasets
        assert set(fresh_record.suites) == set(legacy_record.suites)
        for name, suite in legacy_record.suites.items():
            # Full per-suite payload: cells, CPU anchors, speedup tables.
            assert fresh_record.suites[name].to_dict() == suite.to_dict()

    def test_record_speedups_match_legacy_speedup_table(self, session):
        record = session.run_figure("quick", suites=("mm2",))
        table = run_speedup_table([DATASET], suite="mm2")
        assert record.speedup_table("mm2") == table


class TestSharedRegistry:
    def test_runner_builds_cells_from_the_registry(self):
        # The runner's suite table is the registry itself -- no duplicate.
        for name in ("mm2", "diff", "ablation"):
            built = runner_build_suite(name)
            assert tuple(built) == get_suite(name).labels

    def test_no_duplicate_suite_table_left_in_runner(self):
        import inspect

        import repro.bench.runner as runner_module

        source = inspect.getsource(runner_module)
        # The hardcoded tuple the registry replaced must stay deleted.
        assert 'SUITES: Tuple[str, ...] = ("mm2"' not in source
        assert "_SUITES" not in source
