"""Live elastic scaling: ``ClusterService.scale_to`` up, down and back.

Small real-process tests (the wide deterministic sweeps live in
``test_faults.py`` / ``test_cluster.py`` on the virtual clock): growing
and shrinking a serving cluster mid-stream must never lose, duplicate or
reorder a result, retired worker slots must be reusable, and -- the
regression this file exists for -- a cleanly drained worker must never
be mistaken for a crash, however the sentinel and the monitor's join
race each other.
"""

import pytest

from repro.api import Session
from repro.serve import ClusterConfig, ClusterService, ServeConfig

from serve_workloads import make_serve_tasks

LIVE = ServeConfig(refill="drain", max_batch_size=4, max_wait_ms=1.0)


@pytest.fixture(scope="module")
def tasks():
    return make_serve_tasks(seed=5, count=24)


@pytest.fixture(scope="module")
def direct(tasks):
    return list(Session(tasks=tasks).align())


class TestScaleTo:
    def test_scale_up_mid_stream(self, tasks, direct):
        with ClusterService(ClusterConfig(serve=LIVE, shards=2)) as cluster:
            futures = [cluster.submit(task) for task in tasks[:8]]
            assert cluster.scale_to(4) == 4
            assert cluster.active_shards == 4
            futures += [cluster.submit(task) for task in tasks[8:]]
            scores = [future.result().score for future in futures]
        assert scores == [r.score for r in direct]
        summary = cluster.telemetry_summary()
        assert summary["resize"]["events"] == 1
        assert summary["faults"]["crashes"] == 0

    def test_scale_down_preempts_and_reroutes_queued(self, tasks, direct):
        with ClusterService(ClusterConfig(serve=LIVE, shards=4)) as cluster:
            futures = [cluster.submit(task) for task in tasks[:12]]
            assert cluster.scale_to(1) == 1
            futures += [cluster.submit(task) for task in tasks[12:]]
            scores = [future.result().score for future in futures]
        assert scores == [r.score for r in direct]
        summary = cluster.telemetry_summary()
        assert summary["resize"]["events"] == 1
        # Draining three of four shards is a crash-free operation.
        assert summary["faults"]["crashes"] == 0
        assert summary["admission"]["retried"] == 0

    def test_scale_down_then_up_reuses_retired_slots(self, tasks, direct):
        with ClusterService(ClusterConfig(serve=LIVE, shards=2)) as cluster:
            first = [cluster.submit(task) for task in tasks[:6]]
            cluster.scale_to(1)
            for future in first:
                future.result()
            cluster.scale_to(2)
            second = [cluster.submit(task) for task in tasks[6:]]
            scores = [f.result().score for f in first + second]
        assert scores == [r.score for r in direct]
        assert cluster.telemetry_summary()["resize"]["events"] == 2

    def test_scale_to_before_start_reshapes_the_config(self, tasks, direct):
        cluster = ClusterService(ClusterConfig(serve=LIVE, shards=2))
        cluster.scale_to(3)
        assert cluster.config.shards == 3
        with cluster:
            results = cluster.map(tasks)
        assert [r.score for r in results] == [r.score for r in direct]
        # A pre-start reshape is configuration, not an elastic event.
        assert cluster.telemetry_summary()["resize"]["events"] == 0

    def test_noop_resize_records_nothing(self, tasks):
        with ClusterService(ClusterConfig(serve=LIVE, shards=2)) as cluster:
            cluster.submit(tasks[0]).result()
            assert cluster.scale_to(2) == 2
        assert cluster.telemetry_summary()["resize"]["events"] == 0

    def test_scale_validation(self, tasks):
        cluster = ClusterService(ClusterConfig(serve=LIVE, shards=2))
        with pytest.raises(ValueError, match=">= 1"):
            cluster.scale_to(0)
        with cluster:
            cluster.submit(tasks[0]).result()
        with pytest.raises(RuntimeError, match="shut down"):
            cluster.scale_to(3)


class TestCleanExitIsNotACrash:
    """Regression: the drain sentinel is authoritative for the monitor.

    The worker's clean exit used to race the collector's ``("exit", s)``
    marker: if ``process.join()`` returned first, the monitor counted a
    crash, "re-routed" an empty strand set and spawned a replacement for
    a cluster that was shutting down.  Scale-down drains hit the same
    window on every resize, which is why the sentinel flag (set before
    the sentinel ships) now decides.
    """

    def test_shutdown_loop_never_counts_phantom_crashes(self, tasks, direct):
        expected = [r.score for r in direct[:6]]
        for iteration in range(5):
            with ClusterService(ClusterConfig(serve=LIVE, shards=2)) as cluster:
                results = cluster.map(tasks[:6])
            assert [r.score for r in results] == expected
            summary = cluster.telemetry_summary()
            assert summary["faults"]["crashes"] == 0, f"iteration {iteration}"
            assert summary["admission"]["retried"] == 0, f"iteration {iteration}"

    def test_repeated_resizes_stay_crash_free(self, tasks, direct):
        with ClusterService(ClusterConfig(serve=LIVE, shards=1)) as cluster:
            futures = []
            for width, chunk in ((2, tasks[:8]), (3, tasks[8:16]), (1, tasks[16:])):
                cluster.scale_to(width)
                futures += [cluster.submit(task) for task in chunk]
            scores = [future.result().score for future in futures]
        assert scores == [r.score for r in direct]
        summary = cluster.telemetry_summary()
        assert summary["resize"]["events"] == 3
        assert summary["faults"]["crashes"] == 0
