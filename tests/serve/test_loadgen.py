"""Load generation: arrival processes and trace invariants."""

import numpy as np
import pytest

from repro.align.scoring import preset
from repro.io.datasets import DatasetSpec
from repro.serve import LoadGenerator, RequestTrace

from serve_workloads import make_serve_tasks


class TestRequestTrace:
    def test_validation(self, serve_tasks):
        with pytest.raises(ValueError):
            RequestTrace("x", "replay", tuple(serve_tasks), (0.0,))
        with pytest.raises(ValueError):
            RequestTrace("x", "replay", tuple(serve_tasks[:2]), (1.0, 0.5))
        with pytest.raises(ValueError):
            RequestTrace("x", "replay", tuple(serve_tasks[:1]), (-1.0,))

    def test_requests_are_fresh_per_call(self, generator):
        trace = generator.replay(1000.0, 8)
        first = trace.requests()
        first[0].dispatch_ms = 1.0
        second = trace.requests()
        assert second[0].dispatch_ms is None
        assert [r.request_id for r in second] == list(range(8))


class TestPoisson:
    def test_deterministic_given_seed(self, generator):
        a = generator.poisson(500.0, 32, seed=9)
        b = generator.poisson(500.0, 32, seed=9)
        assert a.arrivals_ms == b.arrivals_ms
        assert generator.poisson(500.0, 32, seed=10).arrivals_ms != a.arrivals_ms

    def test_starts_at_zero_and_is_sorted(self, generator):
        trace = generator.poisson(500.0, 64)
        assert trace.arrivals_ms[0] == 0.0
        assert list(trace.arrivals_ms) == sorted(trace.arrivals_ms)
        assert len(trace) == 64

    def test_rate_shapes_the_gaps(self, generator):
        fast = generator.poisson(5000.0, 200, seed=1)
        slow = generator.poisson(50.0, 200, seed=1)
        assert fast.duration_ms < slow.duration_ms

    def test_cycles_workload(self, generator, serve_tasks):
        trace = generator.poisson(500.0, len(serve_tasks) + 5)
        assert trace.tasks[len(serve_tasks)] is serve_tasks[0]

    def test_invalid(self, generator):
        with pytest.raises(ValueError):
            generator.poisson(0.0)
        with pytest.raises(ValueError):
            generator.poisson(100.0, 0)


class TestBursty:
    def test_off_gaps_appear(self, generator):
        trace = generator.bursty(2000.0, 100, on_ms=10.0, off_ms=500.0, seed=2)
        gaps = np.diff(trace.arrivals_ms)
        assert (gaps >= 500.0).any(), "no OFF gap in a bursty trace"
        # In-burst arrivals stay dense: some gaps far below the OFF gap.
        assert (gaps < 10.0).any()

    def test_deterministic_and_sorted(self, generator):
        a = generator.bursty(1000.0, 50, seed=4)
        assert a.arrivals_ms == generator.bursty(1000.0, 50, seed=4).arrivals_ms
        assert list(a.arrivals_ms) == sorted(a.arrivals_ms)

    def test_invalid(self, generator):
        with pytest.raises(ValueError):
            generator.bursty(0.0)
        with pytest.raises(ValueError):
            generator.bursty(100.0, on_ms=0.0)


class TestReplay:
    def test_even_spacing(self, generator):
        trace = generator.replay(200.0, 5)
        assert trace.arrivals_ms == (0.0, 5.0, 10.0, 15.0, 20.0)
        assert trace.process == "replay"

    def test_default_request_count_is_the_workload(self, generator, serve_tasks):
        assert len(generator.replay(100.0)) == len(serve_tasks)


class TestConstruction:
    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            LoadGenerator([])

    def test_from_dataset_uses_cached_workload(self):
        spec = DatasetSpec(
            name="tiny-serve-ds",
            technology="HiFi",
            seed=7,
            num_reads=4,
            reference_length=4000,
            scoring=preset("map-ont", band_width=16, zdrop=80),
        )
        generator = LoadGenerator.from_dataset(spec)
        assert generator.name == "tiny-serve-ds"
        assert len(generator.tasks) > 0
        trace = generator.replay(100.0, 4)
        assert len(trace) == 4


def test_make_serve_tasks_is_deterministic():
    a = make_serve_tasks()
    b = make_serve_tasks()
    assert all(
        (x.ref == y.ref).all() and (x.query == y.query).all() for x, y in zip(a, b)
    )
