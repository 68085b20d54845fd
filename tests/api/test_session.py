"""Behaviour of the :class:`repro.api.Session` façade."""

import numpy as np
import pytest

from repro.align import preset
from repro.api import (
    AlignmentOutcome,
    ComparisonOutcome,
    EngineOptions,
    MappingOutcome,
    Session,
    SimulationOutcome,
)
from repro.io.datasets import TECHNOLOGY_PROFILES, simulate_reads, synthetic_reference
from repro.kernels import KernelConfig


class TestConstruction:
    def test_exactly_one_source_required(self, task_batch):
        with pytest.raises(ValueError, match="exactly one"):
            Session()
        with pytest.raises(ValueError, match="exactly one"):
            Session(dataset="ONT-HG002", tasks=task_batch)

    def test_reference_requires_scoring(self, rng):
        with pytest.raises(ValueError, match="scoring"):
            Session(reference=synthetic_reference(2000, rng))

    def test_unknown_engine_fails_fast(self, task_batch):
        with pytest.raises(KeyError, match="unknown engine"):
            Session(tasks=task_batch, engine="gpu??")

    def test_unknown_suite_fails_fast(self, task_batch):
        with pytest.raises(KeyError, match="unknown suite"):
            Session(tasks=task_batch, suite="nope")

    def test_unknown_dataset_fails_fast(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            Session(dataset="no-such-dataset")

    def test_dataset_session_resolves_spec(self):
        session = Session(dataset="ONT-HG002")
        assert session.dataset is not None
        assert session.dataset.name == "ONT-HG002"


class TestAlign:
    def test_align_returns_typed_outcome(self, task_batch):
        outcome = Session(tasks=task_batch).align()
        assert isinstance(outcome, AlignmentOutcome)
        assert outcome.engine == "vector"
        assert len(outcome) == len(task_batch)
        assert outcome.scores == [r.score for r in outcome]
        assert outcome[0] is outcome.results[0]

    def test_scalar_and_vector_engines_agree(self, task_batch):
        vector = Session(tasks=task_batch).align()
        scalar = Session(tasks=task_batch, engine="scalar").align()
        assert vector.scores == scalar.scores
        assert [r.cells_computed for r in vector] == [r.cells_computed for r in scalar]

    def test_sliced_engine_agrees_through_session(self, task_batch):
        sliced = Session(
            tasks=task_batch, options=EngineOptions(slice_width=3)
        ).align()
        scalar = Session(tasks=task_batch, engine="scalar").align()
        assert sliced.engine == "vector"
        assert sliced.scores == scalar.scores
        assert [r.antidiagonals_processed for r in sliced] == [
            r.antidiagonals_processed for r in scalar
        ]
        assert [r.cells_computed for r in sliced] == [
            r.cells_computed for r in scalar
        ]

    def test_workload_cached_between_calls(self, task_batch):
        session = Session(tasks=task_batch)
        assert session.workload() is session.workload()


class TestSimulateAndCompare:
    def test_simulate_default_kernel(self, task_batch):
        outcome = Session(tasks=task_batch).simulate()
        assert isinstance(outcome, SimulationOutcome)
        assert outcome.kernel == "AGAThA"
        assert outcome.time_ms > 0
        assert outcome.summary.cells > 0
        assert outcome.summary.speedup_vs_cpu is None  # no CPU anchor here

    def test_simulate_with_options(self, task_batch):
        outcome = Session(tasks=task_batch).simulate(
            "AGAThA", rolling_window=False, sliced_diagonal=False,
            subwarp_rejoining=False, uneven_bucketing=False,
        )
        assert "Baseline" in outcome.kernel

    def test_batch_size_flows_into_kernels(self, task_batch):
        session = Session(tasks=task_batch, options=EngineOptions(batch_size=17))
        assert session.effective_batch_size() == 17
        assert session.effective_kernel_config().batch_bucket_size == 17
        assert all(
            k.config.batch_bucket_size == 17 for k in session.kernels().values()
        )

    def test_explicit_kernel_config_bucket_size_is_preserved(self, task_batch):
        # batch_size=None must not clobber an explicit kernel_config value.
        session = Session(
            tasks=task_batch, kernel_config=KernelConfig(batch_bucket_size=256)
        )
        assert session.effective_batch_size() == 256
        assert session.effective_kernel_config().batch_bucket_size == 256
        assert session.align().batch_size == 256

    def test_explicit_batch_size_beats_kernel_config(self, task_batch):
        session = Session(
            tasks=task_batch,
            options=EngineOptions(batch_size=17),
            kernel_config=KernelConfig(batch_bucket_size=256),
        )
        assert session.effective_batch_size() == 17
        assert session.effective_kernel_config().batch_bucket_size == 17

    def test_kernel_config_base_is_respected(self, task_batch):
        session = Session(
            tasks=task_batch, kernel_config=KernelConfig(subwarp_size=16)
        )
        # GASAL2/Manymap pin their own subwarp sizes (that models their
        # parallelisation); the config reaches the kernels that use it.
        assert session.kernels()["AGAThA"].config.subwarp_size == 16
        assert session.kernels()["SALoBa"].config.subwarp_size == 16

    def test_compare_typed_outcome(self, task_batch):
        outcome = Session(tasks=task_batch).compare()
        assert isinstance(outcome, ComparisonOutcome)
        assert outcome.cpu.speedup_vs_cpu == 1.0
        assert set(outcome) == {"GASAL2", "SALoBa", "Manymap", "AGAThA"}
        assert outcome["AGAThA"].speedup_vs_cpu > 0
        assert outcome.speedups()["AGAThA"] == outcome["AGAThA"].speedup_vs_cpu

    def test_compare_suite_override(self, task_batch):
        outcome = Session(tasks=task_batch).compare(suite="diff")
        assert set(outcome) == {"GASAL2", "SALoBa", "Manymap", "LOGAN"}

    def test_hardware_overrides_win(self, task_batch):
        from repro.baselines.cpu_model import EPYC_16C_SSE4
        from repro.gpusim.device import RTX_A6000

        session = Session(tasks=task_batch, device=RTX_A6000, cpu=EPYC_16C_SSE4)
        device, cpu = session.hardware()
        assert device is RTX_A6000 and cpu is EPYC_16C_SSE4


class TestMapping:
    @pytest.fixture
    def mapping_setup(self, rng):
        scoring = preset("map-ont", band_width=32, zdrop=120)
        reference = synthetic_reference(20_000, rng)
        reads = simulate_reads(reference, TECHNOLOGY_PROFILES["ONT"], 8, rng)
        return reference, scoring, [r.sequence for r in reads]

    def test_map_reads_typed_outcome(self, mapping_setup):
        reference, scoring, sequences = mapping_setup
        outcome = Session(reference=reference, scoring=scoring).map_reads(sequences)
        assert isinstance(outcome, MappingOutcome)
        assert len(outcome) == len(sequences)
        assert outcome.num_mapped == len(outcome.mapped)
        assert [m.read_id for m in outcome] == list(range(len(sequences)))

    def test_streaming_matches_batch(self, mapping_setup):
        reference, scoring, sequences = mapping_setup
        session = Session(reference=reference, scoring=scoring)
        streamed = list(session.map_reads_iter(sequences))
        batch = session.map_reads(sequences)
        for lhs, rhs in zip(streamed, batch):
            assert lhs.mapped == rhs.mapped
            assert lhs.mapping_score == rhs.mapping_score
            assert (lhs.ref_start, lhs.ref_end) == (rhs.ref_start, rhs.ref_end)

    def test_read_workload_tasks(self, mapping_setup):
        reference, scoring, sequences = mapping_setup
        session = Session(reference=reference, scoring=scoring)
        tasks = session.read_workload(sequences)
        assert [t.task_id for t in tasks] == list(range(len(tasks)))

    def test_task_session_cannot_map(self, task_batch):
        with pytest.raises(ValueError, match="reference"):
            Session(tasks=task_batch).map_reads([np.zeros(8, dtype=np.uint8)])

    def test_map_reads_iter_validates_at_call_time(self, task_batch):
        # The streaming variant must fail at the call site, not on first
        # iteration of the returned generator.
        with pytest.raises(ValueError, match="reference"):
            Session(tasks=task_batch).map_reads_iter([np.zeros(8, dtype=np.uint8)])

    def test_run_figure_requires_named_datasets_for_task_sessions(
        self, task_batch
    ):
        with pytest.raises(ValueError, match="named datasets"):
            Session(tasks=task_batch).run_figure("quick")

    def test_reference_session_has_no_fixed_workload(self, rng):
        scoring = preset("map-ont", band_width=32, zdrop=120)
        session = Session(
            reference=synthetic_reference(2000, rng), scoring=scoring
        )
        with pytest.raises(ValueError, match="no fixed workload"):
            session.align()
