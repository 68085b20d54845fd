"""The live multi-process cluster: correctness, crashes, admission.

These tests drive real worker processes, so each keeps its workload
small; the wide correctness sweeps live in ``test_cluster.py`` where the
virtual clock makes them free.
"""

import time

import pytest

from repro.api import Session
from repro.serve import (
    ClusterConfig,
    ClusterService,
    RequestRejected,
    ServeConfig,
    ShardFailedError,
    ShardRouter,
)

from serve_workloads import make_serve_tasks

#: A worker that never dispatches on its own: requests sent to it stay
#: in flight until shutdown drains them (or a crash strands them), which
#: makes the crash/admission tests deterministic.
STALLED = ServeConfig(refill="drain", max_batch_size=64, max_wait_ms=10_000.0)


@pytest.fixture(scope="module")
def tasks():
    return make_serve_tasks(seed=5, count=16)


@pytest.fixture(scope="module")
def direct(tasks):
    return list(Session(tasks=tasks).align())


def _shard_of(router, tasks):
    return [router.route(task, index) for index, task in enumerate(tasks)]


class TestClusterService:
    def test_map_matches_align(self, tasks, direct):
        config = ClusterConfig(
            serve=ServeConfig(refill="drain", max_batch_size=8, max_wait_ms=1.0),
            shards=2,
        )
        with ClusterService(config) as cluster:
            assert cluster.map(tasks) == direct
            assert cluster.alive_shards() == [0, 1]

    def test_session_serve_shards(self, tasks, direct):
        service = Session(tasks=tasks).serve(shards=2)
        assert isinstance(service, ClusterService)
        with service:
            assert service.map(tasks) == direct

    def test_telemetry_summary_v3(self, tasks):
        from repro.serve import SERVE_SCHEMA_VERSION

        config = ClusterConfig(
            serve=ServeConfig(refill="drain", max_batch_size=8, max_wait_ms=1.0),
            shards=2,
        )
        with ClusterService(config) as cluster:
            cluster.map(tasks)
        summary = cluster.telemetry_summary()
        assert summary["schema_version"] == SERVE_SCHEMA_VERSION
        assert summary["requests"] == len(tasks)
        assert summary["admission"]["admitted"] == len(tasks)
        shards = summary["shards"]
        assert sorted(shards) == ["0", "1"]
        assert sum(s["requests"] for s in shards.values()) == len(tasks)

    def test_shutdown_drains_everything(self, tasks, direct):
        config = ClusterConfig(serve=STALLED, shards=2)
        cluster = ClusterService(config).start()
        futures = [cluster.submit(task) for task in tasks]
        cluster.shutdown()
        assert [future.result(timeout=5) for future in futures] == direct

    def test_submit_after_shutdown_raises(self, tasks):
        cluster = ClusterService(ClusterConfig(serve=STALLED, shards=1))
        cluster.start()
        cluster.shutdown()
        with pytest.raises(RuntimeError):
            cluster.submit(tasks[0])


class TestCrashHandling:
    def test_crash_fails_stranded_requests_fast(self, tasks, direct):
        """Kill one shard mid-trace: its requests fail with
        ShardFailedError, the survivor's requests complete untouched."""
        config = ClusterConfig(serve=STALLED, shards=2, max_restarts=0)
        routes = _shard_of(config.router_for(), tasks)
        cluster = ClusterService(config).start()
        futures = [cluster.submit(task) for task in tasks]
        time.sleep(0.3)  # let dispatchers forward to the doomed worker
        cluster.fail_shard(0)
        for index, future in enumerate(futures):
            if routes[index] == 0:
                with pytest.raises(ShardFailedError) as info:
                    future.result(timeout=30)
                assert info.value.shard == 0
        cluster.shutdown()
        for index, future in enumerate(futures):
            if routes[index] == 1:
                assert future.result(timeout=5) == direct[index]

    def test_retry_failed_reroutes_to_survivors(self, tasks, direct):
        """With retry_failed=True the stranded requests are re-queued on
        the surviving shards and still produce bit-identical results."""
        config = ClusterConfig(
            serve=STALLED, shards=2, retry_failed=True, max_restarts=0
        )
        cluster = ClusterService(config).start()
        futures = [cluster.submit(task) for task in tasks]
        time.sleep(0.3)
        cluster.fail_shard(0)
        time.sleep(0.3)
        cluster.shutdown()
        assert [future.result(timeout=5) for future in futures] == direct
        summary = cluster.telemetry_summary()
        assert summary["admission"]["retried"] > 0

    def test_restart_serves_subsequent_traffic(self, tasks, direct):
        """After a crash the shard is replaced (max_restarts) and new
        submissions to it are served normally."""
        config = ClusterConfig(
            serve=ServeConfig(refill="drain", max_batch_size=8, max_wait_ms=1.0),
            shards=2,
            retry_failed=True,
            max_restarts=1,
        )
        with ClusterService(config) as cluster:
            cluster.fail_shard(0)
            deadline = time.monotonic() + 10.0
            while cluster.alive_shards() != [0, 1]:
                assert time.monotonic() < deadline, "restart never completed"
                time.sleep(0.05)
            assert cluster.map(tasks) == direct

    def test_all_shards_down_rejects_submission(self, tasks):
        config = ClusterConfig(serve=STALLED, shards=1, max_restarts=0)
        cluster = ClusterService(config).start()
        cluster.fail_shard(0)
        deadline = time.monotonic() + 10.0
        while cluster.alive_shards():
            assert time.monotonic() < deadline, "crash never detected"
            time.sleep(0.05)
        with pytest.raises(ShardFailedError):
            cluster.submit(tasks[0])
        cluster.shutdown()


class TestLiveAdmission:
    def test_reject_policy(self, tasks):
        config = ClusterConfig(
            serve=STALLED, shards=1, admission="reject", max_pending=4
        )
        cluster = ClusterService(config).start()
        admitted, rejected = [], 0
        for task in tasks:
            try:
                admitted.append(cluster.submit(task))
            except RequestRejected:
                rejected += 1
        assert rejected == len(tasks) - 4
        assert cluster.telemetry_summary()["admission"]["rejected"] == rejected
        cluster.shutdown()
        for future in admitted:
            assert future.result(timeout=5) is not None

    def test_shed_policy_evicts_queued_low_priority(self, tasks):
        config = ClusterConfig(
            serve=STALLED,
            shards=1,
            admission="shed",
            max_pending=4,
            max_inflight=2,  # keep two requests parent-side (sheddable)
        )
        cluster = ClusterService(config).start()
        low = [cluster.submit(task, priority=0) for task in tasks[:4]]
        time.sleep(0.3)  # two dispatch and stall, two stay queued
        high = cluster.submit(tasks[4], priority=1)
        shed = [
            future
            for future in low
            if future.done() and isinstance(future.exception(), RequestRejected)
        ]
        assert len(shed) == 1
        assert cluster.telemetry_summary()["admission"]["shed"] == 1
        cluster.shutdown()
        assert high.result(timeout=5) is not None

    def test_queue_policy_backpressures_without_loss(self, tasks, direct):
        config = ClusterConfig(
            serve=ServeConfig(refill="drain", max_batch_size=1, max_wait_ms=0.5),
            shards=1,
            admission="queue",
            max_pending=2,
        )
        cluster = ClusterService(config).start()
        futures = [cluster.submit(task) for task in tasks[:8]]  # blocks, never raises
        cluster.shutdown()
        assert [future.result(timeout=5) for future in futures] == direct[:8]


class TestSpawnStartMethod:
    def test_spawn_workers_rebuild_registry(self, tasks, direct):
        """Workers started with spawn rebuild the engine registry from
        the engine's defining module (the bench/runner.py pattern)."""
        config = ClusterConfig(
            serve=ServeConfig(refill="drain", max_batch_size=8, max_wait_ms=1.0),
            shards=2,
            start_method="spawn",
        )
        with ClusterService(config) as cluster:
            assert cluster.map(tasks[:6]) == direct[:6]

    def test_main_registered_engine_fails_fast_under_spawn(self):
        """An engine registered in __main__ cannot be rebuilt by a
        spawned worker; start() must say so instead of hanging."""
        from repro.serve.cluster import _ensure_engine_shardable

        with pytest.raises(ValueError, match="importable module"):
            _ensure_engine_shardable("my-engine", "__main__", "spawn")
        with pytest.raises(ValueError, match="importable module"):
            _ensure_engine_shardable("my-engine", None, "forkserver")
        # fork inherits the registry: anything goes.
        _ensure_engine_shardable("my-engine", "__main__", "fork")
