"""The live threaded service: futures, draining shutdown, equivalence."""

import threading

import pytest

from repro.align.vector import DEFAULT_SLICE_WIDTH, VectorStream
from repro.api import EngineOptions, Session, register_engine
from repro.api.engines import ENGINES, vector_engine
from repro.serve import AlignmentService, ServeConfig


def _config(**overrides):
    base = dict(max_batch_size=8, max_wait_ms=2.0, refill="drain")
    base.update(overrides)
    return ServeConfig(**base)


class TestLiveService:
    def test_map_matches_session_align(self, serve_tasks):
        with AlignmentService(_config()) as service:
            served = service.map(serve_tasks)
        direct = Session(tasks=serve_tasks).align()
        assert served == list(direct.results)

    def test_session_serve_entry_point(self, serve_tasks):
        session = Session(tasks=serve_tasks, options=EngineOptions(batch_size=16))
        with session.serve(max_wait_ms=1.0, max_batch_size=4) as service:
            assert service.config.engine == "vector"
            assert service.config.engine_options().batch_size == 16
            assert service.config.max_batch_size == 4
            served = service.map(serve_tasks)
        assert served == list(session.align().results)

    def test_futures_resolve_individually(self, serve_tasks):
        with AlignmentService(_config()) as service:
            futures = [service.submit(task) for task in serve_tasks[:6]]
            results = [future.result(timeout=30) for future in futures]
        direct = Session(tasks=serve_tasks[:6]).align()
        assert results == list(direct.results)

    def test_thread_pool_workers(self, serve_tasks):
        with AlignmentService(_config(workers=3)) as service:
            served = service.map(serve_tasks)
        assert served == list(Session(tasks=serve_tasks).align().results)

    def test_sliced_engine_flows_through_serving(self, serve_tasks):
        """The sliced vector engine streams with no serve-side changes."""
        with AlignmentService(_config(refill="auto")) as service:
            assert service.config.resolved_refill() == "continuous"
            served = service.map(serve_tasks)
        assert served == list(Session(tasks=serve_tasks).align().results)

    def test_shutdown_drains_pending_requests(self, serve_tasks):
        # A huge max_wait would hold requests for minutes; shutdown must
        # cut the pending batch instead of abandoning it.
        service = AlignmentService(_config(max_batch_size=64, max_wait_ms=60_000.0))
        futures = [service.submit(task) for task in serve_tasks[:5]]
        service.shutdown(wait=True)
        assert all(future.done() for future in futures)
        direct = Session(tasks=serve_tasks[:5]).align()
        assert [future.result() for future in futures] == list(direct.results)

    def test_nonblocking_shutdown_still_resolves_every_future(self, serve_tasks):
        """shutdown(wait=False) must not race the pool closed while the
        scheduler is still submitting the final drain batches."""
        service = AlignmentService(
            _config(workers=2, max_batch_size=64, max_wait_ms=60_000.0)
        )
        futures = [service.submit(task) for task in serve_tasks]
        service.shutdown(wait=False)
        results = [future.result(timeout=30) for future in futures]
        assert results == list(Session(tasks=serve_tasks).align().results)

    def test_submit_after_shutdown_raises(self, serve_tasks):
        service = AlignmentService(_config())
        service.start()
        service.shutdown()
        with pytest.raises(RuntimeError):
            service.submit(serve_tasks[0])
        with pytest.raises(RuntimeError):
            service.start()

    def test_short_engine_result_errors_instead_of_hanging(self, serve_tasks):
        def short_engine(tasks, batch_size):
            from repro.api.engines import align_tasks

            return align_tasks(tasks, options=EngineOptions(batch_size=batch_size))[:-1]

        register_engine("short-service-test", short_engine)
        try:
            service = AlignmentService(
                _config(max_wait_ms=1.0, engine="short-service-test")
            )
            future = service.submit(serve_tasks[0])
            with pytest.raises(ValueError, match="returned 0 results"):
                future.result(timeout=30)
            service.shutdown()
        finally:
            ENGINES.unregister("short-service-test")

    def test_engine_failure_fans_out_to_futures(self, serve_tasks):
        def broken_engine(tasks, batch_size):
            raise RuntimeError("engine exploded")

        register_engine("broken-service-test", broken_engine)
        try:
            service = AlignmentService(
                _config(max_wait_ms=1.0, engine="broken-service-test")
            )
            future = service.submit(serve_tasks[0])
            with pytest.raises(RuntimeError, match="engine exploded"):
                future.result(timeout=30)
            service.shutdown()
        finally:
            ENGINES.unregister("broken-service-test")

    def test_drain_runs_batches_like_replay(self, serve_tasks):
        """Live drain-then-form goes through the same batch handle as
        replay: it records engine slices and hands the engine the
        configured ``slice_width``, not the engine's default."""
        seen = []

        def spy_engine(tasks, *, batch_size, slice_width=DEFAULT_SLICE_WIDTH):
            seen.append(slice_width)
            return vector_engine(tasks, batch_size=batch_size, slice_width=slice_width)

        with AlignmentService(_config()) as service:
            served = service.map(serve_tasks[:12])
        assert served == list(Session(tasks=serve_tasks[:12]).align().results)
        assert service.telemetry.summary()["lane_occupancy"]["slices"] > 0

        register_engine(
            "spy-service-test", spy_engine, option_params=("batch_size", "slice_width")
        )
        try:
            config = _config(
                engine="spy-service-test", options=EngineOptions(slice_width=8)
            )
            with AlignmentService(config) as service:
                served = service.map(serve_tasks[:12])
        finally:
            ENGINES.unregister("spy-service-test")
        assert served == list(Session(tasks=serve_tasks[:12]).align().results)
        assert seen and set(seen) == {8}

    def test_stream_failure_fans_out_to_futures(self, serve_tasks):
        """An engine error mid-stream fails every in-flight and queued
        future and closes the service, instead of stranding anything."""
        release = threading.Event()

        class ExplodingStream(VectorStream):
            steps = 0

            def step(self, n_slices=1):
                self.steps += 1
                if self.steps == 3:
                    # Fail only once every task has been submitted.
                    release.wait(timeout=30)
                    raise RuntimeError("stream exploded")
                return super().step(n_slices)

        def open_exploding(tasks, *, capacity=None, options):
            return ExplodingStream(
                tasks, capacity=capacity, slice_width=options.slice_width
            )

        register_engine(
            "exploding-stream-test",
            vector_engine,
            option_params=("batch_size", "slice_width"),
            open_batch=open_exploding,
        )
        try:
            service = AlignmentService(
                _config(
                    engine="exploding-stream-test",
                    refill="continuous",
                    max_batch_size=4,
                    options=EngineOptions(slice_width=4),
                )
            )
            futures = [service.submit(task) for task in serve_tasks[:12]]
            release.set()
            for future in futures:
                with pytest.raises(RuntimeError, match="stream exploded"):
                    future.result(timeout=30)
            with pytest.raises(RuntimeError):
                service.submit(serve_tasks[0])
            service.shutdown()
        finally:
            ENGINES.unregister("exploding-stream-test")

    def test_telemetry_counts_every_request(self, serve_tasks):
        with AlignmentService(_config()) as service:
            service.map(serve_tasks)
        assert service.telemetry.num_requests == len(serve_tasks)
        assert service.telemetry.num_batches >= 1
        summary = service.telemetry.summary()
        assert summary["requests"] == len(serve_tasks)
        assert summary["latency_ms"]["count"] == len(serve_tasks)

    def test_start_is_idempotent(self, serve_tasks):
        service = AlignmentService(_config())
        assert service.start() is service
        service.start()
        try:
            assert service.map(serve_tasks[:2]) == list(
                Session(tasks=serve_tasks[:2]).align().results
            )
        finally:
            service.shutdown()
