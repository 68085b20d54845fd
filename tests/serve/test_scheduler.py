"""Virtual-clock replay: determinism, scheduler invariants, equivalence."""

import pytest

from repro.api import EngineOptions, Session
from repro.serve import ServeConfig, modeled_service_ms, replay


def _modeled(**overrides):
    base = dict(timing="modeled", max_batch_size=8, max_wait_ms=3.0, refill="drain")
    base.update(overrides)
    return ServeConfig(**base)


class TestDeterminism:
    def test_modeled_replay_is_bit_identical(self, generator):
        trace = generator.poisson(1500.0, 60)
        config = _modeled()
        first = replay(trace, config)
        second = replay(trace, config)
        assert first.makespan_ms == second.makespan_ms
        assert first.telemetry == second.telemetry
        assert [
            (r.arrival_ms, r.dispatch_ms, r.completion_ms, r.batch_occupancy)
            for r in first.requests
        ] == [
            (r.arrival_ms, r.dispatch_ms, r.completion_ms, r.batch_occupancy)
            for r in second.requests
        ]

    def test_modeled_service_time_shape(self, serve_tasks):
        config = _modeled()
        single = modeled_service_ms(serve_tasks[:1], config)
        batch = modeled_service_ms(serve_tasks[:8], config)
        # The batch pays one overhead + one sweep, not eight.
        assert batch < 8 * single
        assert modeled_service_ms([], config) == 0.0


class TestSchedulerInvariants:
    def test_no_request_waits_past_max_wait_in_virtual_time(self, generator):
        """With an idle server (zero service time) no request may sit in
        the queue past ``max_wait_ms`` -- the tentpole invariant."""
        trace = generator.poisson(2000.0, 120)
        config = ServeConfig(max_batch_size=16, max_wait_ms=2.5, refill="drain")
        report = replay(trace, config, service_time=lambda tasks: 0.0)
        for request in report.requests:
            assert request.wait_ms <= 2.5 + 1e-9, (
                f"request {request.request_id} waited {request.wait_ms:.3f} ms"
            )

    def test_every_request_served_exactly_once(self, generator):
        trace = generator.bursty(3000.0, 50, on_ms=5.0, off_ms=40.0, seed=6)
        report = replay(trace, _modeled())
        assert report.num_requests == 50
        assert sorted(r.request_id for r in report.requests) == list(range(50))
        for request in report.requests:
            assert request.result is not None
            assert request.arrival_ms <= request.dispatch_ms <= request.completion_ms

    def test_batch1_serves_every_request_alone(self, generator):
        trace = generator.poisson(1000.0, 30)
        report = replay(trace, _modeled(max_batch_size=1))
        assert report.policy == "batch1"
        assert all(r.batch_occupancy == 1 for r in report.requests)
        assert report.telemetry["batches"] == 30

    def test_saturated_queue_fills_batches(self, generator):
        # Slow constant service + fast arrivals: the queue backs up and
        # batches reach max_batch_size.
        trace = generator.poisson(10000.0, 64)
        config = ServeConfig(max_batch_size=8, max_wait_ms=1.0, refill="drain")
        report = replay(trace, config, service_time=lambda tasks: 25.0)
        occupancy = report.telemetry["batch_occupancy"]
        assert occupancy.get("8", 0) >= 4

    def test_more_workers_never_slow_the_drain(self, generator):
        trace = generator.poisson(4000.0, 60)
        one = replay(trace, _modeled(workers=1))
        four = replay(trace, _modeled(workers=4))
        assert four.makespan_ms <= one.makespan_ms + 1e-9
        assert four.results() == one.results()

    def test_negative_service_time_rejected(self, generator):
        trace = generator.replay(1000.0, 4)
        with pytest.raises(ValueError):
            replay(trace, _modeled(), service_time=lambda tasks: -1.0)

    def test_short_engine_result_is_an_error(self, generator):
        from repro.api import register_engine
        from repro.api.engines import ENGINES, align_tasks

        register_engine(
            "short-serve-test",
            lambda tasks, *, batch_size: align_tasks(tasks)[:-1],
        )
        try:
            trace = generator.replay(1000.0, 4)
            with pytest.raises(ValueError, match="results for a batch of"):
                replay(trace, _modeled(engine="short-serve-test"))
        finally:
            ENGINES.unregister("short-serve-test")


class TestServedEquivalence:
    def test_served_scores_bit_identical_to_session_align(self, generator):
        """The acceptance property: serving changes scheduling, never
        results.  Full AlignmentResult equality, not just scores."""
        trace = generator.poisson(2500.0, 48, seed=8)
        report = replay(trace, _modeled(max_batch_size=8))
        direct = Session(tasks=list(trace.tasks)).align()
        assert report.results() == list(direct.results)

    def test_scalar_engine_serves_identically_too(self, generator):
        trace = generator.replay(2000.0, 24)
        report = replay(trace, _modeled(engine="scalar"))
        direct = Session(tasks=list(trace.tasks), engine="scalar").align()
        assert report.results() == list(direct.results)

    def test_fifo_and_length_aware_agree_on_results(self, generator):
        trace = generator.poisson(3000.0, 40)
        aware = replay(trace, _modeled(length_aware=True))
        fifo = replay(trace, _modeled(length_aware=False))
        assert aware.results() == fifo.results()


class TestReportAndConfig:
    def test_report_metrics(self, generator):
        trace = generator.replay(1000.0, 20)
        report = replay(trace, _modeled())
        assert report.workload == "tiny-serve"
        assert report.num_requests == 20
        assert report.throughput_rps == pytest.approx(
            20 / report.makespan_ms * 1000.0
        )
        assert report.scores() == [r.score for r in report.results()]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            ServeConfig(max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            ServeConfig(workers=0)
        with pytest.raises(ValueError):
            ServeConfig(timing="wallclock")
        with pytest.raises(ValueError):
            ServeConfig(options=EngineOptions(batch_size=0))
        with pytest.raises(KeyError):
            ServeConfig(engine="no-such-engine")

    def test_config_replace_and_policy_name(self):
        config = ServeConfig(max_batch_size=16, refill="drain")
        assert config.policy_name == "microbatch"
        anchor = config.replace(max_batch_size=1)
        assert anchor.policy_name == "batch1"
        assert config.max_batch_size == 16  # original untouched
