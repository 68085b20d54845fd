"""Stateful chaos over the live multi-process cluster.

``test_faults.py`` sweeps the chaos matrix on the virtual clock; here
hypothesis drives a *live* :class:`ClusterService` of 1-3 worker
processes through random interleavings of submissions (two priority
classes), resizes, injected crashes and the :class:`FaultPlan` live
triggers (``after_requests`` crashes and delays, dropped and duplicated
dispatches), under each admission policy, with and without
``retry_failed``.  Whatever happens, after every run:

* every submission ends exactly once, within a deadline: ``submit``
  raised :class:`RequestRejected` or :class:`ShardFailedError`, or its
  future resolved once -- to a result, :class:`RequestRejected` (shed) or
  :class:`ShardFailedError`;
* every completed result equals ``Session.align()`` on the same task;
* the admission counters add up: ``admitted + rejected`` is the number
  of submissions that reached admission, ``shed`` the number of futures
  shedding failed;
* no fault counter exceeds what the plan and the ``fail_shard`` calls
  injected;
* with queue admission and ``retry_failed=True`` nothing fails (the runs
  keep two shards routable and inject one crash, so a survivor always
  exists);
* once ``shutdown()`` returns, the cluster left no child process and no
  ``repro-cluster-*`` thread behind.
"""

from __future__ import annotations

import functools
import multiprocessing
import threading
import time
from concurrent.futures import Future, wait
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.api import Session
from repro.serve import (
    ClusterConfig,
    ClusterService,
    CrashFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
    RequestRejected,
    ServeConfig,
    ShardFailedError,
)

from serve_workloads import make_serve_tasks

TASKS = make_serve_tasks(seed=5, count=24)

#: Drain-mode workers with a short cut deadline: every request completes
#: on its own, so a future left open past the deadline is a hang.
LIVE = ServeConfig(refill="drain", max_batch_size=2, max_wait_ms=1.0)

#: Wall-clock bound on any one wait of a run (settle, shutdown).
DEADLINE_S = 30.0

SETTINGS = settings(
    max_examples=8,
    stateful_step_count=16,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@functools.lru_cache(maxsize=None)
def _direct() -> tuple:
    return tuple(Session(tasks=TASKS).align())


@st.composite
def fault_plans(draw: Any, max_crashes: int) -> FaultPlan:
    """Live-trigger plans over shards 0-2 (a fault on a shard the cluster
    has not grown to yet waits for ``scale_to``)."""
    crashed = draw(st.lists(st.integers(0, 2), unique=True, max_size=max_crashes))
    crashes = tuple(
        CrashFault(shard=shard, after_requests=draw(st.integers(1, 6)))
        for shard in crashed
    )
    delays = tuple(
        DelayFault(
            shard=draw(st.integers(0, 2)),
            delay_ms=draw(st.sampled_from([1.0, 10.0])),
            after_requests=draw(st.integers(1, 6)),
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    dispatch = st.tuples(st.integers(0, 2), st.integers(0, 5))
    drops = draw(st.lists(dispatch, unique=True, max_size=2))
    duplicates = draw(
        st.lists(dispatch.filter(lambda d: d not in drops), unique=True, max_size=2)
    )
    return FaultPlan(
        crashes=crashes,
        delays=delays,
        drops=tuple(DropFault(shard=s, dispatch=d) for s, d in drops),
        duplicates=tuple(DuplicateFault(shard=s, dispatch=d) for s, d in duplicates),
    )


def _bounded(action: Any, what: str) -> None:
    """Run ``action`` on a helper thread; fail if it outlives the deadline."""
    errors: List[BaseException] = []

    def run() -> None:
        try:
            action()
        except BaseException as error:  # re-raised on the test thread
            errors.append(error)

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    helper.join(DEADLINE_S)
    assert not helper.is_alive(), f"{what} did not return within {DEADLINE_S} s"
    if errors:
        raise errors[0]


def _cluster_threads() -> List[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("repro-cluster-")]


class LiveCluster(RuleBasedStateMachine):
    def __init__(self, admission: str, retry: bool) -> None:
        super().__init__()
        self.admission = admission
        self.retry = retry
        #: Queue admission with retries must never fail a request.
        self.lossless = admission == "queue" and retry
        self.cluster: Optional[ClusterService] = None
        self.plan = FaultPlan()
        # Snapshots, so a run is judged only by what its own cluster left.
        self.children_before = set(multiprocessing.active_children())
        self.threads_before = set(_cluster_threads())
        self.futures: List[Future] = []
        self.future_tasks: List[int] = []
        self.resolutions: List[int] = []
        self.rejected_at_submit = 0
        self.unroutable_at_submit = 0
        self.fail_calls = 0

    @initialize(
        shards=st.integers(1, 3),
        max_pending=st.sampled_from([2, 4]),
        max_inflight=st.sampled_from([1, 2, None]),
        data=st.data(),
    )
    def build(
        self, shards: int, max_pending: int, max_inflight: Optional[int], data: Any
    ) -> None:
        if self.lossless:
            shards = max(shards, 2)
        self.plan = data.draw(fault_plans(max_crashes=1 if self.lossless else 3))
        config = ClusterConfig(
            serve=LIVE,
            shards=shards,
            admission=self.admission,
            max_pending=max_pending,
            max_inflight=max_inflight,
            retry_failed=self.retry,
            faults=self.plan,
        )
        self.cluster = ClusterService(config).start()

    @property
    def crash_budget_left(self) -> bool:
        """Lossless runs inject one crash in total (planned or not)."""
        return not self.lossless or not (self.plan.crashes or self.fail_calls)

    # ------------------------------------------------------------------
    @rule(
        burst=st.lists(
            st.tuples(st.integers(0, len(TASKS) - 1), st.integers(0, 1)),
            min_size=1,
            max_size=6,
        )
    )
    def submit(self, burst: List[Tuple[int, int]]) -> None:
        for index, priority in burst:
            try:
                future = self.cluster.submit(TASKS[index], priority=priority)
            except RequestRejected:
                self.rejected_at_submit += 1
                continue
            except ShardFailedError:
                self.unroutable_at_submit += 1
                continue
            slot = len(self.futures)
            self.futures.append(future)
            self.future_tasks.append(index)
            self.resolutions.append(0)
            future.add_done_callback(functools.partial(self._resolved, slot))

    def _resolved(self, slot: int, future: Future) -> None:
        self.resolutions[slot] += 1

    @rule(shards=st.integers(1, 3))
    def scale(self, shards: int) -> None:
        if self.lossless:
            shards = max(shards, 2)
        assert self.cluster.scale_to(shards) == shards

    @precondition(lambda self: self.crash_budget_left)
    @rule(data=st.data())
    def fail_shard(self, data: Any) -> None:
        shard = data.draw(st.integers(0, self.cluster.active_shards - 1))
        self.cluster.fail_shard(shard)
        self.fail_calls += 1

    @rule(ms=st.sampled_from([1, 10]))
    def pause(self, ms: int) -> None:
        time.sleep(ms / 1000.0)

    @rule()
    def settle(self) -> None:
        """Every admitted request resolves while the cluster is up."""
        _, pending = wait(self.futures, timeout=DEADLINE_S)
        assert not pending, f"{len(pending)} futures unresolved after {DEADLINE_S} s"

    # ------------------------------------------------------------------
    def teardown(self) -> None:
        if self.cluster is None:
            return
        if self.lossless:
            # A crash met only by the shutdown drain has no open survivor.
            self.settle()
        _bounded(self.cluster.shutdown, "shutdown()")
        self._check_outcomes()
        self._check_counters()
        leaked = set(multiprocessing.active_children()) - self.children_before
        assert not leaked, f"worker processes outlived shutdown: {leaked}"
        threads = [t.name for t in _cluster_threads() if t not in self.threads_before]
        assert not threads, f"cluster threads outlived shutdown: {threads}"

    def _check_outcomes(self) -> None:
        direct = _direct()
        for future, index, count in zip(self.futures, self.future_tasks, self.resolutions):
            assert future.done(), "a future outlived shutdown"
            assert count == 1, f"a future resolved {count} times"
            error = future.exception()
            if error is None:
                assert future.result() == direct[index]
            else:
                assert isinstance(error, (RequestRejected, ShardFailedError)), repr(error)
        if self.lossless:
            failed = [
                f for f in self.futures if isinstance(f.exception(), ShardFailedError)
            ]
            assert not failed and not self.unroutable_at_submit

    def _check_counters(self) -> None:
        summary: Dict[str, Any] = self.cluster.telemetry_summary()
        admission = summary["admission"]
        reached = len(self.futures) + self.rejected_at_submit
        assert admission["admitted"] + admission["rejected"] == reached
        assert admission["rejected"] == self.rejected_at_submit
        shed = sum(isinstance(f.exception(), RequestRejected) for f in self.futures)
        assert admission["shed"] == shed
        faults = summary["faults"]
        assert faults["crashes"] <= len(self.plan.crashes) + self.fail_calls
        assert faults["delays"] <= len(self.plan.delays)
        assert faults["dropped"] <= len(self.plan.drops)
        assert faults["duplicated"] <= len(self.plan.duplicates)


def test_crash_racing_shutdown() -> None:
    """Regression: a crash racing ``shutdown()``.

    One shard, ``fail_shard(0)``, then ``shutdown()`` while the crash is
    being handled.  Shutdown used to join a replacement worker that had
    not been started yet (``AssertionError: can only join a started
    process``), leaving the cluster's threads running.  The pauses sweep
    the race window.
    """
    children_before = set(multiprocessing.active_children())
    for step in range(24):
        cluster = ClusterService(ClusterConfig(serve=LIVE, shards=1)).start()
        cluster.fail_shard(0)
        time.sleep(step / 1000.0)
        _bounded(cluster.shutdown, "shutdown()")
        assert set(multiprocessing.active_children()) <= children_before


@pytest.mark.parametrize("retry", [False, True], ids=["fail-fast", "retry"])
@pytest.mark.parametrize("admission", ["queue", "reject", "shed"])
def test_live_cluster_keeps_every_contract(admission: str, retry: bool) -> None:
    run_state_machine_as_test(lambda: LiveCluster(admission, retry), settings=SETTINGS)
