"""A shut-down cluster holds no thread, pipe or queue.

Callers keep a :class:`ClusterService` after ``shutdown()`` to read
``telemetry_summary()``, so whatever the cluster opened -- worker
processes, their task queues and feeder threads, result pipes -- must be
closed by ``shutdown()`` itself, not by garbage collection.  Several
clusters in a row, resized up and down on the way, must leave the
process exactly as they found it.
"""

import os
import threading

import pytest

from repro.api import Session
from repro.serve import ClusterConfig, ClusterService, ServeConfig

from serve_workloads import make_serve_tasks

LIVE = ServeConfig(refill="drain", max_batch_size=4, max_wait_ms=1.0)


@pytest.fixture(scope="module")
def tasks():
    return make_serve_tasks(seed=5, count=12)


@pytest.fixture(scope="module")
def direct(tasks):
    return list(Session(tasks=tasks).align())


def _open_fds():
    """Open file descriptors of this process (None where unknown)."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


class TestShutdownReleasesEverything:
    def test_threads_and_fds_return_to_their_count_before_start(self, tasks, direct):
        threads, fds = threading.active_count(), _open_fds()
        clusters = []
        for widths in ((), (3, 1), (1, 2)):
            cluster = ClusterService(ClusterConfig(serve=LIVE, shards=2)).start()
            futures = [cluster.submit(task) for task in tasks[:6]]
            for width in widths:
                cluster.scale_to(width)
            futures += [cluster.submit(task) for task in tasks[6:]]
            assert [future.result(timeout=30) for future in futures] == direct
            cluster.shutdown()
            clusters.append(cluster)  # kept, as a caller reading telemetry would
            assert threading.active_count() == threads
            assert _open_fds() == fds
        for cluster in clusters:
            assert cluster.telemetry_summary()["admission"]["admitted"] == len(tasks)
