"""Continuous lane refill: exactness, the max-wait invariant, knobs.

The load-bearing claims:

* **Bit-exactness** -- a continuously refilled drain returns exactly the
  results a drain-then-form drain (and a plain ``align_tasks`` call)
  returns, for arbitrary arrival processes.  Refill moves *when* a task
  is scored, never *how*.  A Hypothesis property sweeps arrival
  processes, rates and lane capacities.
* **The deadline contract survives refill** -- with instantaneous
  service every request dispatches within ``max_wait_ms`` of arriving,
  exactly as in drain mode; a busy stream admits pending requests at the
  next slice boundary, so refill can only shorten waits.
* The refill/occupancy telemetry and the priority/preemption queue hooks
  behave as documented.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineOptions, align_tasks
from repro.serve import LoadGenerator, ServeConfig, replay
from repro.serve.queueing import MicroBatcher, ServeRequest

from serve_workloads import make_serve_tasks

TASKS = make_serve_tasks()


def _generator(seed=3):
    return LoadGenerator(TASKS, name="tiny-serve", seed=seed)


def _make_trace(kind, rate, n, seed):
    generator = _generator()
    if kind == "poisson":
        return generator.poisson(rate, n, seed=seed)
    if kind == "bursty":
        return generator.bursty(rate, n, on_ms=5.0, off_ms=20.0, seed=seed)
    return generator.replay(rate, n)


class TestContinuousExactness:
    def test_continuous_equals_drain_and_align(self, generator):
        trace = generator.bursty(2000.0, 40, on_ms=4.0, off_ms=12.0, seed=9)
        base = ServeConfig(engine="vector", timing="modeled", max_batch_size=8)
        assert base.resolved_refill() == "continuous"
        continuous = replay(trace, base)
        drain = replay(trace, base.replace(refill="drain"))
        assert continuous.results() == drain.results()
        direct = align_tasks(
            [request.task for request in trace.requests()], engine="vector"
        )
        assert continuous.results() == direct

    def test_refill_telemetry_is_populated(self, generator):
        trace = generator.poisson(3000.0, 32, seed=5)
        report = replay(
            trace,
            ServeConfig(engine="vector", timing="modeled", max_batch_size=8),
        )
        assert report.policy == "continuous"
        lanes = report.telemetry["lane_occupancy"]
        assert lanes["slices"] > 0
        assert 0.0 < lanes["mean"] <= 1.0
        assert report.telemetry["refill"]["admitted_inflight"] >= 0
        assert report.telemetry["requests"] == 32

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["poisson", "bursty", "replay"]),
        rate=st.floats(min_value=50.0, max_value=20000.0),
        n=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**20),
        capacity=st.integers(min_value=1, max_value=12),
        slice_width=st.integers(min_value=1, max_value=40),
    )
    def test_property_refill_is_bit_identical(
        self, kind, rate, n, seed, capacity, slice_width
    ):
        trace = _make_trace(kind, rate, n, seed)
        config = ServeConfig(
            engine="vector",
            timing="modeled",
            max_batch_size=capacity,
            max_wait_ms=1.0,
            options=EngineOptions(slice_width=slice_width),
        )
        continuous = replay(trace, config)
        drain = replay(trace, config.replace(refill="drain"))
        assert continuous.results() == drain.results()
        assert continuous.telemetry["requests"] == n

    def test_arbitrary_service_time_per_slice(self, generator):
        """The injectable model is called per slice with the live tasks."""
        trace = generator.replay(1000.0, 10)
        seen = []

        def service(tasks):
            seen.append(len(tasks))
            return 0.25

        config = ServeConfig(engine="vector", max_batch_size=4)
        report = replay(trace, config, service_time=service)
        assert report.telemetry["requests"] == 10
        assert seen and all(0 <= count <= 4 for count in seen)


class TestMaxWaitInvariant:
    @pytest.mark.parametrize("refill", ["continuous", "drain"])
    def test_no_wait_beyond_deadline_with_instant_service(self, generator, refill):
        """Virtual-clock replay: refill never violates max_wait_ms."""
        trace = generator.bursty(1500.0, 48, on_ms=6.0, off_ms=18.0, seed=11)
        config = ServeConfig(
            engine="vector",
            max_batch_size=8,
            max_wait_ms=2.5,
            refill=refill,
        )
        report = replay(trace, config, service_time=lambda tasks: 0.0)
        for request in report.requests:
            assert request.wait_ms <= 2.5 + 1e-9

    def test_refilled_requests_wait_at_most_one_slice(self, generator):
        """While lanes are free, a pending request rides the very next
        slice boundary -- its wait is bounded by one slice duration, not
        by the deadline."""
        trace = generator.poisson(4000.0, 24, seed=13)
        config = ServeConfig(
            engine="vector",
            timing="modeled",
            max_batch_size=24,
            max_wait_ms=50.0,
            options=EngineOptions(slice_width=2),
        )
        report = replay(trace, config)
        # With lanes never exhausted (capacity == request count) no
        # request can be deadline-dispatched after the first batch forms;
        # every wait is bounded by max_wait yet the mean is far below it.
        waits = [request.wait_ms for request in report.requests]
        assert max(waits) <= 50.0 + 1e-9
        assert sum(waits) / len(waits) < 25.0


class TestServeConfigStreaming:
    def test_auto_resolution(self):
        assert ServeConfig(engine="scalar").resolved_refill() == "drain"
        assert ServeConfig(engine="vector").resolved_refill() == "continuous"

    def test_policy_names(self):
        assert ServeConfig(engine="scalar").policy_name == "microbatch"
        assert ServeConfig(engine="vector").policy_name == "continuous"
        assert ServeConfig(engine="vector", max_batch_size=1).policy_name == "batch1"
        assert (
            ServeConfig(engine="vector", refill="drain").policy_name
            == "microbatch"
        )

    def test_continuous_requires_streaming_engine(self):
        with pytest.raises(ValueError, match="streaming"):
            ServeConfig(engine="scalar", refill="continuous")

    def test_unknown_refill_mode(self):
        with pytest.raises(ValueError, match="refill"):
            ServeConfig(refill="sometimes")

    def test_conflicting_bucket_sizes(self):
        with pytest.raises(ValueError, match="conflicting"):
            ServeConfig(batch_size=8, options=EngineOptions(batch_size=16))

    def test_engine_options_pins_batch_size(self):
        config = ServeConfig(options=EngineOptions(slice_width=6))
        opts = config.engine_options()
        assert opts.batch_size == config.effective_batch_size()
        assert opts.slice_width == 6
        sized = ServeConfig(batch_size=12)
        assert sized.engine_options().batch_size == 12
        assert sized.effective_batch_size() == 12
        via_options = ServeConfig(options=EngineOptions(batch_size=9))
        assert via_options.effective_batch_size() == 9


class TestQueueHooks:
    def _request(self, request_id, arrival, priority=0):
        return ServeRequest(
            task=TASKS[request_id % len(TASKS)],
            request_id=request_id,
            arrival_ms=arrival,
            priority=priority,
        )

    def test_take_is_priority_then_fifo(self):
        batcher = MicroBatcher(8, 10.0)
        low = [self._request(i, float(i)) for i in range(3)]
        high = self._request(3, 3.0, priority=5)
        for request in [*low, high]:
            batcher.add(request)
        taken = batcher.take(2, now_ms=4.0)
        assert taken == [low[0], high]
        assert all(request.dispatch_ms == 4.0 for request in taken)
        assert batcher.pending == (low[1], low[2])

    def test_take_respects_limit_and_empty(self):
        batcher = MicroBatcher(4, 5.0)
        assert batcher.take(3, now_ms=0.0) == []
        batcher.add(self._request(0, 0.0))
        assert batcher.take(0, now_ms=0.0) == []
        assert len(batcher) == 1

    def test_preempt_pulls_matching_requests(self):
        batcher = MicroBatcher(8, 10.0)
        requests = [self._request(i, float(i), priority=i % 2) for i in range(6)]
        for request in requests:
            batcher.add(request)
        pulled = batcher.preempt(lambda request: request.priority == 0)
        assert pulled == [requests[0], requests[2], requests[4]]
        assert batcher.pending == (requests[1], requests[3], requests[5])
        assert batcher.preempt(lambda request: False) == []
