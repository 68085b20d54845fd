"""Engine errors that pickle badly still reach the caller, promptly.

A worker ships each request's outcome to the parent through pickle.  An
engine may raise an exception that cannot be pickled (it holds a lambda)
or that pickles but cannot be unpickled (its ``__init__`` takes other
arguments than its ``args``).  Either way the request's future must fail
at once with a ``RuntimeError`` carrying the original ``repr``, and the
cluster must keep serving: later requests, and resizes that wait for a
worker to drain, still complete.
"""

import contextlib
import threading

import pytest

from repro.api import register_engine
from repro.api.engines import ENGINES
from repro.serve import ClusterConfig, ClusterService, ServeConfig, ShardFailedError

from serve_workloads import make_serve_tasks

#: Seconds a failed request may take to reach its future.
PROMPT_S = 5.0


class LambdaError(RuntimeError):
    """Holds a lambda, so pickling it fails."""

    def __init__(self) -> None:
        super().__init__("engine failed")
        self.hook = lambda: None


class TwoArgError(RuntimeError):
    """Pickles, but unpickling calls ``TwoArgError("a/b")`` and fails."""

    def __init__(self, a: str, b: str) -> None:
        super().__init__(f"{a}/{b}")


@pytest.fixture(scope="module")
def tasks():
    return make_serve_tasks(seed=5, count=6)


@contextlib.contextmanager
def _cluster_raising(name, make_error, shards):
    """A fork-started cluster whose engine ``name`` always raises."""

    def engine(tasks, batch_size):
        raise make_error()

    register_engine(name, engine)
    try:
        config = ClusterConfig(
            serve=ServeConfig(engine=name, refill="drain", max_batch_size=1, max_wait_ms=1.0),
            shards=shards,
            start_method="fork",
        )
        with ClusterService(config) as cluster:
            yield cluster
    finally:
        ENGINES.unregister(name)


def _assert_fails_promptly(future, error_name):
    with pytest.raises(RuntimeError) as info:
        future.result(timeout=PROMPT_S)
    assert not isinstance(info.value, ShardFailedError)
    assert error_name in str(info.value)


def _scale_promptly(cluster, shards):
    done = threading.Event()
    helper = threading.Thread(
        target=lambda: (cluster.scale_to(shards), done.set()), daemon=True
    )
    helper.start()
    assert done.wait(PROMPT_S), f"scale_to({shards}) did not return"


class TestEngineErrorsCrossThePipe:
    def test_unpicklable_error_fails_the_request(self, tasks):
        with _cluster_raising("raising-lambda", LambdaError, shards=1) as cluster:
            for task in tasks[:3]:
                _assert_fails_promptly(cluster.submit(task), "LambdaError")
        assert cluster.telemetry_summary()["faults"]["crashes"] == 0

    def test_error_that_does_not_unpickle_fails_the_request(self, tasks):
        with _cluster_raising(
            "raising-two-arg", lambda: TwoArgError("a", "b"), shards=2
        ) as cluster:
            for task in tasks:
                _assert_fails_promptly(cluster.submit(task), "TwoArgError")
            _scale_promptly(cluster, 1)
            _scale_promptly(cluster, 2)
            for task in tasks:
                _assert_fails_promptly(cluster.submit(task), "TwoArgError")
        assert cluster.telemetry_summary()["faults"]["crashes"] == 0
