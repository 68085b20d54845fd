"""Sharded multi-process serving: route, admit, serve, survive crashes.

One :class:`~repro.serve.service.AlignmentService` is GIL-bound: however
fast the engine, a single scheduler thread caps the whole stack.  This
module scales the serving layer *horizontally*, the way the paper scales
lanes across more hardware (fig15): N worker **processes**, each running
its own service with streaming refill, behind a deterministic
:class:`ShardRouter` front-end.

The pieces, and where the determinism lives:

:class:`ShardRouter`
    A pure routing function ``(task, request_id) -> shard``: ``"hash"``
    mixes the request id through CRC32 (uniform spread), ``"length"``
    groups by anti-diagonal count (co-locating similar sweep lengths,
    the cluster mirror of length-aware batch formation).  The *same*
    function partitions a replay trace and routes live submissions, and
    :meth:`ShardRouter.place` is the one rule both use to skip shards
    that cannot take work, so the virtual-clock study and the live
    cluster agree on placement.
:func:`cluster_replay`
    Deterministic cross-shard replay: the trace is partitioned by the
    router, each partition drains once through the ordinary
    :func:`repro.serve.scheduler.replay` (arrival times unchanged --
    shards share one clock; a crash is an event of the shard's own
    replay, and only what the dying worker did not deliver is
    re-routed), and the per-shard event streams merge into one
    :class:`ClusterReport`.  Results are bit-identical to
    :meth:`repro.api.Session.align` on the trace's tasks, makespan is
    the slowest shard's makespan, and merged percentiles are computed on
    the pooled raw samples (:meth:`TelemetrySink.merge`), never by
    averaging per-shard percentiles.
:class:`ClusterService`
    The live counterpart: worker processes are spawned with the same
    spawn-safe registry rebuilding :mod:`repro.bench.runner` uses for
    suites (the engine's defining module travels by name and is
    re-imported inside the worker), requests flow through per-shard
    parent-side :class:`~repro.serve.queueing.MicroBatcher` queues under
    an :class:`~repro.serve.queueing.AdmissionController` (bounded
    admission: queue / reject / shed), and a credit window keeps each
    worker's in-flight set bounded so queued work stays sheddable.  One
    parent thread runs the cluster: it blocks in
    :func:`multiprocessing.connection.wait` on each worker's result pipe
    and process sentinel and on a wake-up pipe, dispatches, fans results
    out to futures and hands retiring workers their drain sentinel.  A
    worker sends every message synchronously, so once its process is
    gone the loop reads its pipe to the end: the worker drained if its
    final telemetry message arrived, and crashed otherwise.  On a crash
    the stranded queue is pulled back through the existing
    :meth:`MicroBatcher.preempt` hook and fanned out -- failed fast with
    :class:`ShardFailedError`, or re-queued on surviving shards when
    ``ClusterConfig(retry_failed=True)`` -- and the worker is restarted
    (up to ``max_restarts``) for subsequent traffic.

The cluster is *elastic*: :meth:`ClusterService.scale_to` adds or
removes live worker processes while the admission controller stays up
(a draining shard's queued requests are preempted and re-routed; its
in-flight work finishes on the old worker), and a :class:`ScalePlan`
replays the same resizes on the virtual clock
(``cluster_replay(resize_at=...)``).  The ``"stable"`` router policy
exists for exactly this: a deterministic stable-partition scheme where
resizing from ``n`` to ``n+1`` shards relocates at most
``ceil(keys / (n + 1))`` of any contiguous request-id range -- the
minimal-movement property consistent hashing promises, with a hard
bound (``tests/serve/test_router_stability.py`` pins it).

Failure is a first-class input: a :class:`~repro.serve.faults.FaultPlan`
(``ClusterConfig(faults=...)`` or ``cluster_replay(faults=...)``)
injects crashes, stalls, dropped and duplicated dispatches
deterministically into both the live worker loop and the replay DES, so
the crash/retry/restart contracts are pinned by replayable chaos tests
instead of wall-clock races.

Telemetry is aggregated under ``SERVE_SCHEMA_VERSION`` 4: the merged
summary carries cluster-wide p50/p95/p99, queue depth, lane occupancy,
admission, fault and resize counters, plus a ``"shards"`` block with
each shard's own summary (see :mod:`repro.serve.telemetry`).
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
import time
import zlib
from concurrent.futures import Future
from dataclasses import dataclass, field
from importlib import import_module
from multiprocessing import connection
from multiprocessing.reduction import ForkingPickler
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.align.types import AlignmentResult, AlignmentTask
from repro.serve.autotune import (
    AutotuneConfig,
    RouterChoice,
    TrafficObserver,
    autotune_router,
)
from repro.serve.config import ServeConfig
from repro.serve.faults import FaultPlan, ShardFaults
from repro.serve.loadgen import RequestTrace
from repro.serve.queueing import (
    AdmissionController,
    MicroBatcher,
    RequestRejected,
    ServeRequest,
)
from repro.serve.scheduler import ServeReport, ServiceTime, replay
from repro.serve.telemetry import TelemetrySink

__all__ = [
    "ROUTE_POLICIES",
    "ShardRouter",
    "ShardFailedError",
    "ScalePlan",
    "ClusterConfig",
    "ClusterReport",
    "cluster_replay",
    "ClusterService",
]

#: Routing policies of :class:`ShardRouter`: ``"hash"`` spreads requests
#: uniformly by request id, ``"length"`` co-locates similar
#: anti-diagonal counts so per-shard batches stay length-homogeneous,
#: ``"stable"`` is the stable-partition scheme whose resizes relocate the
#: minimal key range (see :meth:`ShardRouter.route`).
ROUTE_POLICIES = ("hash", "length", "stable")

#: Exit code a worker uses for injected faults (:meth:`ClusterService.fail_shard`).
_CRASH_EXIT_CODE = 70

#: Control token that makes a worker die abruptly (chaos hook).
_CRASH = "__crash__"


class ShardFailedError(RuntimeError):
    """A worker process died with requests still queued or in flight.

    Carries the shard index and the worker's exit code so callers can
    tell a crash (negative signal / nonzero code) from an injected fault
    (``fail_shard``).  Raised from the stranded requests' futures -- and
    from :meth:`ClusterService.submit` when every shard is down.
    """

    def __init__(self, shard: int, exitcode: Optional[int] = None) -> None:
        detail = f" (exit code {exitcode})" if exitcode is not None else ""
        super().__init__(f"serving shard {shard} failed{detail}")
        self.shard = shard
        self.exitcode = exitcode


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardRouter:
    """Deterministic request-to-shard placement (pure, processless).

    ``"hash"`` routes by CRC32 of the request id -- uniform and
    history-free, the classic front-end spread.  ``"length"`` routes by
    ``task.num_antidiagonals // length_stride``, so tasks with similar
    sweep lengths land on the same shard and its batches stay cheap to
    pad -- the cluster-level mirror of the batcher's length-aware
    formation.  ``"stable"`` is the elastic-resize policy: a
    jump-style stable partition of the request id
    (Lamping & Veach's chain, evaluated without randomness -- id ``k``
    moves to shard ``j - 1`` at chain level ``j`` iff
    ``k % j == j - 1``), so growing from ``n`` to ``n + 1`` shards moves
    exactly the ids congruent to ``n (mod n + 1)`` -- all onto the new
    shard, at most ``ceil(keys / (n + 1))`` of any contiguous id range
    -- and every other placement is untouched.  The trade-off is a
    mildly uneven spread (the chain favours low shards on small ranges),
    which is why ``"stable"`` is the resize policy rather than the
    default.  All three are pure functions of ``(task, request_id)``:
    :func:`cluster_replay` partitions traces with the same object the
    live :class:`ClusterService` routes with, which is what makes
    cluster replays deterministic.
    """

    shards: int
    policy: str = "hash"
    length_stride: int = 128

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.policy not in ROUTE_POLICIES:
            raise ValueError(
                f"router policy must be one of {ROUTE_POLICIES}, got {self.policy!r}"
            )
        if self.length_stride <= 0:
            raise ValueError("length_stride must be positive")

    def route(self, task: AlignmentTask, request_id: int) -> int:
        """The shard index serving ``request_id`` carrying ``task``."""
        if self.policy == "stable":
            shard = 0
            for level in range(2, self.shards + 1):
                if request_id % level == level - 1:
                    shard = level - 1
            return shard
        if self.policy == "hash":
            key = zlib.crc32(int(request_id).to_bytes(8, "little"))
        else:  # "length"
            key = task.num_antidiagonals // self.length_stride
        return int(key) % self.shards

    def place(
        self, task: AlignmentTask, request_id: int, usable: Callable[[int], bool]
    ) -> Optional[int]:
        """The routed shard if ``usable`` accepts it, else the first usable
        shard scanning forward (wrapping); ``None`` when none is usable.

        The one placement rule of both drivers: the replay skips shards
        dead on arrival, the live cluster failed and retiring ones.
        """
        first = self.route(task, request_id)
        for offset in range(self.shards):
            shard = (first + offset) % self.shards
            if usable(shard):
                return shard
        return None

    def partition(self, tasks: Sequence[AlignmentTask]) -> List[List[int]]:
        """Per-shard lists of trace indices (submission order preserved)."""
        shards: List[List[int]] = [[] for _ in range(self.shards)]
        for index, task in enumerate(tasks):
            shards[self.route(task, index)].append(index)
        return shards


# ----------------------------------------------------------------------
# elastic scaling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScalePlan:
    """A deterministic shard-count schedule for one replayed drain.

    ``steps`` are ``(at_ms, shards)`` pairs in strictly increasing
    virtual time: requests arriving at or after ``at_ms`` route across
    ``shards`` shards (under the same policy/stride).  Requests already
    assigned to a shard that a step removes keep draining there -- a
    replayed scale-down retires shards gracefully, mirroring the live
    :meth:`ClusterService.scale_to` drain.  The live counterpart of a
    plan is simply calling ``scale_to`` at the corresponding moments.
    """

    steps: Tuple[Tuple[float, int], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a ScalePlan needs at least one (at_ms, shards) step")
        normalized = tuple(
            (float(at_ms), int(shards)) for at_ms, shards in self.steps
        )
        object.__setattr__(self, "steps", normalized)
        previous = -1.0
        for at_ms, shards in normalized:
            if at_ms < 0:
                raise ValueError(f"resize time must be non-negative, got {at_ms}")
            if at_ms <= previous:
                raise ValueError("resize times must be strictly increasing")
            if shards < 1:
                raise ValueError(f"resize target must be >= 1 shard, got {shards}")
            previous = at_ms

    def shards_at(self, at_ms: float, initial: int) -> int:
        """The active shard count at virtual time ``at_ms``."""
        shards = initial
        for step_ms, step_shards in self.steps:
            if at_ms >= step_ms:
                shards = step_shards
        return shards

    def max_shards(self, initial: int) -> int:
        """The widest the cluster ever gets (the replay's shard universe)."""
        return max(initial, max(shards for _, shards in self.steps))


def _as_scale_plan(
    resize_at: "Optional[ScalePlan | Sequence[Tuple[float, int]]]",
) -> Optional[ScalePlan]:
    if resize_at is None or isinstance(resize_at, ScalePlan):
        return resize_at
    return ScalePlan(steps=tuple(resize_at))


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterConfig:
    """Policy of one sharded serving cluster.

    Parameters
    ----------
    serve:
        The per-shard :class:`ServeConfig` -- every worker process runs
        an ordinary :class:`AlignmentService` under this configuration
        (engine, refill mode, micro-batching knobs all apply per shard).
    shards:
        Number of worker processes (>= 1).
    router, length_stride:
        Routing policy (see :class:`ShardRouter`).
    max_pending, admission, class_limits:
        Bounded admission per shard (see
        :class:`~repro.serve.queueing.AdmissionController`): the pending
        budget counts queued plus in-flight requests of one shard, and
        ``admission`` picks the overload policy (``"queue"`` blocks the
        submitter, ``"reject"`` raises
        :class:`~repro.serve.queueing.RequestRejected`, ``"shed"``
        evicts queued lower-priority work).  Admission is a live-service
        concern: :func:`cluster_replay` serves every request of a trace
        (which is what keeps replays bit-identical to ``Session.align``).
    max_inflight:
        Credit window: how many dispatched-but-uncompleted requests one
        worker may hold (``None`` = twice the serve batch size).  Work
        beyond the window stays in the parent-side queue, where it is
        still sheddable and preemptable.
    retry_failed:
        When a worker crashes, re-queue its stranded requests on the
        surviving shards instead of failing their futures with
        :class:`ShardFailedError`.
    max_restarts:
        How many times each crashed worker is replaced (for traffic
        arriving *after* the crash; stranded requests are never silently
        replayed on the replacement -- that is what ``retry_failed``
        controls).
    start_method:
        ``multiprocessing`` start method (``None`` = platform default).
        Anything but ``"fork"`` requires the engine to live in an
        importable module, exactly like :mod:`repro.bench.runner`'s
        spawn-safe suite rule.
    faults:
        Optional :class:`~repro.serve.faults.FaultPlan` injected into the
        drain: the live cluster honours ``after_requests`` triggers and
        dispatch indices, :func:`cluster_replay` honours ``at_ms``
        triggers and dispatch indices (an explicit ``faults=`` argument
        to ``cluster_replay`` overrides this field).
    autotune:
        Router autotuning: ``True`` (defaults) or an
        :class:`~repro.serve.autotune.AutotuneConfig`.  The first
        ``sample_size`` admitted tasks are observed, then the routing
        policy/stride minimising shard load imbalance replaces the
        configured router (``router``/``length_stride`` become the
        baseline the improvement is measured against).
    """

    serve: ServeConfig = field(default_factory=ServeConfig)
    shards: int = 2
    router: str = "hash"
    length_stride: int = 128
    max_pending: Optional[int] = None
    admission: str = "queue"
    class_limits: Mapping[int, int] = field(default_factory=dict)
    max_inflight: Optional[int] = None
    retry_failed: bool = False
    max_restarts: int = 1
    start_method: Optional[str] = None
    faults: Optional[FaultPlan] = None
    autotune: "bool | AutotuneConfig | None" = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ValueError(
                f"faults must be a FaultPlan, got {type(self.faults).__name__}"
            )
        self.autotune_config()  # validate eagerly
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        if self.start_method not in (None, "fork", "spawn", "forkserver"):
            raise ValueError(
                "start_method must be None, 'fork', 'spawn' or 'forkserver', "
                f"got {self.start_method!r}"
            )
        # Validate eagerly by constructing the pure policy objects.
        self.router_for()
        self.admission_controller()

    def router_for(self) -> ShardRouter:
        """The routing function replay and the live cluster share."""
        return ShardRouter(
            shards=self.shards, policy=self.router, length_stride=self.length_stride
        )

    def admission_controller(self) -> AdmissionController:
        """The per-shard bounded-admission policy."""
        return AdmissionController(
            max_pending=self.max_pending,
            policy=self.admission,
            class_limits=dict(self.class_limits),
        )

    def autotune_config(self) -> Optional[AutotuneConfig]:
        """The normalised autotuner config (None = autotuning off)."""
        if self.autotune is None or self.autotune is False:
            return None
        if self.autotune is True:
            return AutotuneConfig()
        if not isinstance(self.autotune, AutotuneConfig):
            raise ValueError(
                "autotune must be True/False/None or an AutotuneConfig, "
                f"got {type(self.autotune).__name__}"
            )
        return self.autotune

    def replace(self, **changes: Any) -> "ClusterConfig":
        """A copy with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    @property
    def policy_name(self) -> str:
        """Default record label (``"shards4"`` for a 4-shard cluster)."""
        return f"shards{self.shards}"


# ----------------------------------------------------------------------
# deterministic cross-shard replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterReport(ServeReport):
    """Merged outcome of one cluster drain.

    ``config`` is the per-shard serve configuration, and ``requests``
    are in global submission order with request ids re-stamped to trace
    indices, so :meth:`results` lines up with ``Session.align`` on the
    same tasks.  ``telemetry`` is the merged schema-v4 summary: pooled
    samples at the top level plus a ``"shards"`` block of per-shard
    summaries.  ``shard_reports`` holds one :class:`ServeReport` per
    shard of the drain's shard universe, in index order; a crashed
    shard's report covers both its dying worker and its replacement.
    """

    cluster: ClusterConfig
    shard_reports: Tuple[ServeReport, ...]

    @property
    def shards(self) -> int:
        """The width of the drain's shard universe."""
        return len(self.shard_reports)


_INF = float("inf")


def cluster_replay(
    trace: RequestTrace,
    config: Optional[ClusterConfig] = None,
    *,
    policy: Optional[str] = None,
    service_time: Optional[ServiceTime] = None,
    resize_at: "Optional[ScalePlan | Sequence[Tuple[float, int]]]" = None,
    faults: Optional[FaultPlan] = None,
) -> ClusterReport:
    """Drain ``trace`` across ``config.shards`` virtual shards.

    The trace is partitioned by the cluster's :class:`ShardRouter`
    (arrival times unchanged -- every shard reads the same clock), each
    partition drains through the ordinary single-service
    :func:`~repro.serve.scheduler.replay`, and the event streams merge:
    makespan is the latest delivered completion, requests return to
    global submission order, and telemetry sinks merge sample-exactly.
    With ``timing="modeled"`` the whole cluster drain is a pure function
    of (trace, config, plan) -- and results are bit-identical to
    ``Session.align`` for any trace, shard count, resize schedule and
    survivable fault plan, because each shard runs the same engine
    arithmetic on its subset.

    ``resize_at`` (a :class:`ScalePlan` or ``[(at_ms, shards), ...]``)
    makes the drain elastic: requests route across the shard count
    active at their arrival; a removed shard drains the requests already
    assigned to it.  ``faults`` (default ``config.faults``) injects the
    replay-side triggers of a :class:`~repro.serve.faults.FaultPlan` into
    each shard's ``replay()``: stalls, drops, duplicates and the crash
    at ``at_ms``.  Each shard drains once, crashed shards first in crash
    order, so the requests a crashed worker did not deliver (its
    strands) reach the survivors before those drain.  Strands are either
    re-routed round-robin over the shards alive at the crash (arrival
    clamped to the crash time) when ``config.retry_failed``, or the
    whole replay raises :class:`ShardFailedError`, exactly like the live
    cluster.  Post-crash arrivals reach the shard's replacement worker
    when ``config.max_restarts`` allows one, and are routed on to the
    next alive shard otherwise.  Crash/retry/restart never change *what*
    is computed -- only placement and timing -- which is what the chaos
    suite (``tests/serve/test_faults.py``) pins.
    """
    config = config or ClusterConfig()
    plan = _as_scale_plan(resize_at)
    fault_plan = faults if faults is not None else config.faults

    # Router family: autotuning picks policy/stride once, from the trace
    # prefix, before any routing happens -- the choice is part of the
    # deterministic function of (trace, config).
    autotune_choice: Optional[RouterChoice] = None
    tuner = config.autotune_config()
    router_policy, stride = config.router, config.length_stride
    if tuner is not None and len(trace):
        sample = trace.tasks[: tuner.sample_size]
        autotune_choice = autotune_router(
            sample, config.shards, tuner, baseline=config.router_for()
        )
        router_policy, stride = autotune_choice.policy, autotune_choice.length_stride

    def router_for(shards: int) -> ShardRouter:
        return ShardRouter(shards=shards, policy=router_policy, length_stride=stride)

    initial = config.shards
    universe = plan.max_shards(initial) if plan is not None else initial

    crash_times: Dict[int, float] = {}
    if fault_plan is not None and fault_plan:
        fault_plan.validate_for(universe)
        for crash in fault_plan.crashes:
            if crash.at_ms is None:
                raise ValueError(
                    f"replayed crash on shard {crash.shard} needs an at_ms "
                    "trigger (after_requests addresses the live worker loop)"
                )
            crash_times[crash.shard] = crash.at_ms
    restartable = config.max_restarts >= 1

    def shards_at(at_ms: float) -> int:
        return plan.shards_at(at_ms, initial) if plan is not None else initial

    parent_sink = TelemetrySink()
    parent_sink.record_admission("admitted", len(trace))

    # Placement: each request lands on its arrival epoch's router target,
    # skipping shards already dead (crashed, unreplaceable) on arrival --
    # the same rule the live cluster routes with.
    pending: List[List[Tuple[int, float]]] = [[] for _ in range(universe)]
    for index, (task, arrival) in enumerate(zip(trace.tasks, trace.arrivals_ms)):
        router = router_for(shards_at(arrival))
        shard = router.place(
            task, index, lambda s: restartable or arrival < crash_times.get(s, _INF)
        )
        if shard is None:
            raise ShardFailedError(router.route(task, index), exitcode=_CRASH_EXIT_CODE)
        pending[shard].append((index, float(arrival)))

    # Resize accounting: one event per step; relocated counts the
    # requests of the new epoch that the previous epoch's router would
    # have placed elsewhere (the key range the resize actually moved).
    if plan is not None:
        steps = plan.steps
        for step_index, (at_ms, to_shards) in enumerate(steps):
            from_shards = initial if step_index == 0 else steps[step_index - 1][1]
            until = steps[step_index + 1][0] if step_index + 1 < len(steps) else _INF
            before, after = router_for(from_shards), router_for(to_shards)
            moved = sum(
                1
                for index, (task, arrival) in enumerate(
                    zip(trace.tasks, trace.arrivals_ms)
                )
                if at_ms <= arrival < until
                and before.route(task, index) != after.route(task, index)
            )
            parent_sink.record_resize(relocated=moved)

    shard_sinks = [TelemetrySink() for _ in range(universe)]
    shard_reports: Dict[int, ServeReport] = {}
    merged_requests: List[Optional[ServeRequest]] = [None] * len(trace)
    retried = 0
    # Crashed shards drain first, in crash order, so their strands reach
    # survivors before those survivors drain (a survivor that crashes
    # *later* takes the hand-off and re-strands it chronologically).
    for shard in sorted(range(universe), key=lambda s: (crash_times.get(s, _INF), s)):
        entries = pending[shard]
        subtrace = RequestTrace(
            name=trace.name,
            process=trace.process,
            tasks=tuple(trace.tasks[index] for index, _ in entries),
            arrivals_ms=tuple(arrival for _, arrival in entries),
        )
        shard_reports[shard] = report = replay(
            subtrace,
            config.serve,
            service_time=service_time,
            sink=shard_sinks[shard],
            faults=fault_plan.shard_faults(shard) if fault_plan else None,
        )
        stranded: List[Tuple[int, float]] = []
        for request, (index, arrival) in zip(report.requests, entries):
            if request.completion_ms is None:
                stranded.append((index, arrival))
            else:
                request.request_id = index
                merged_requests[index] = request
        if shard in crash_times:
            parent_sink.record_fault("crashes")
        if not stranded:
            continue
        crash_ms = crash_times[shard]  # only a crash strands requests
        targets = [
            target
            for target in range(shards_at(crash_ms))
            if target != shard and crash_times.get(target, _INF) > crash_ms
        ]
        if not (config.retry_failed and targets):
            raise ShardFailedError(shard, exitcode=_CRASH_EXIT_CODE)
        stranded.sort()  # by trace index: the live cluster's re-route order
        for offset, (index, arrival) in enumerate(stranded):
            target = targets[offset % len(targets)]
            pending[target].append((index, max(arrival, crash_ms)))
            pending[target].sort(key=lambda entry: (entry[1], entry[0]))
        retried += len(stranded)
    if retried:
        parent_sink.record_admission("retried", retried)

    merged = parent_sink
    shards_block: Dict[str, object] = {}
    for shard, sink in enumerate(shard_sinks):
        shards_block[str(shard)] = sink.summary()
        merged.merge(sink)
    telemetry: Dict[str, object] = merged.summary()
    telemetry["shards"] = shards_block
    if autotune_choice is not None:
        telemetry["autotune"] = autotune_choice.to_dict()

    requests = tuple(r for r in merged_requests if r is not None)
    assert len(requests) == len(trace)
    reports = tuple(shard_reports[shard] for shard in range(universe))
    return ClusterReport(
        policy=policy if policy is not None else config.policy_name,
        workload=trace.name,
        config=config.serve,
        requests=requests,
        makespan_ms=max(report.makespan_ms for report in reports),
        telemetry=telemetry,
        cluster=config,
        shard_reports=reports,
    )


# ----------------------------------------------------------------------
# spawn-safe engine rebuilding (the bench/runner.py pattern)
# ----------------------------------------------------------------------
def _engine_origin(engine: str) -> Optional[str]:
    """The module that registered ``engine`` (None when undiscoverable)."""
    from repro.api.engines import ENGINES

    entry = ENGINES.get(engine)
    return getattr(entry, "__module__", None)


def _ensure_engine_shardable(engine: str, origin: Optional[str], method: str) -> None:
    """Fail fast on engines a spawned worker could never rebuild.

    Mirrors :func:`repro.bench.runner._ensure_suites_shardable`: under
    ``fork`` children inherit the registry, so anything goes; under
    ``spawn``/``forkserver`` the worker re-imports the engine's defining
    module by name, which is impossible for ``__main__`` registrations.
    """
    if method == "fork":
        return
    if origin is None or origin == "__main__":
        raise ValueError(
            f"engine {engine!r} was registered in {origin or 'an unknown module'} "
            f"and cannot be rebuilt in a {method!r}-started worker process; "
            "move the register_engine(...) call into an importable module "
            "(or use start_method='fork')"
        )


def _resolve_engine(engine: str, origin: Optional[str]) -> None:
    """Inside a worker: make ``engine`` resolvable, importing its origin.

    The retry mirrors :func:`repro.bench.runner._build_cell_suite`: a
    spawned interpreter starts with only the built-in registrations, so
    a miss triggers one import of the engine's defining module (which
    re-runs its ``register_engine`` call) before giving up.
    """
    from repro.api.engines import get_engine

    try:
        get_engine(engine)
        return
    except KeyError:
        if not origin or origin == "__main__":
            raise
    import_module(origin)
    get_engine(engine)


def _outcome(request_id: int, future: "Future[AlignmentResult]") -> memoryview:
    """One request's outcome as the pickled ``(request_id, result or error)``
    message a worker sends on its result pipe.

    An error that does not survive a pickle round trip (it holds an
    unpicklable object, or its ``__init__`` rejects its own ``args``)
    travels as a :class:`RuntimeError` carrying its ``repr`` -- as does a
    result that cannot be pickled -- so the parent can always read what a
    worker sent and the request fails instead of stranding.
    """
    error = future.exception()
    message = (request_id, future.result() if error is None else error)
    try:
        payload = ForkingPickler.dumps(message)
        if error is not None:
            ForkingPickler.loads(payload)
    except Exception as failure:
        payload = ForkingPickler.dumps((request_id, RuntimeError(repr(error or failure))))
    return payload


def _shard_worker(
    config: ServeConfig,
    engine_origin: Optional[str],
    task_queue: Any,
    results: Any,
    crash_after: Optional[int] = None,
    delays_after: Tuple[Tuple[int, float], ...] = (),
) -> None:
    """Worker-process main: one AlignmentService fed from a task queue.

    Messages are ``(request_id, task, priority)`` tuples, a ``None``
    sentinel (drain and exit cleanly), or the crash token (die abruptly
    -- the chaos hook behind :meth:`ClusterService.fail_shard`).  Each
    outcome goes to the parent as one synchronous send on the worker's
    own ``results`` pipe, under a lock because in drain mode pool threads
    complete the futures.  The last message of a clean exit is
    ``(None, telemetry_state)``: the parent reads the pipe to its end
    once the process is gone, and counts the worker as drained only if
    that message arrived -- any other exit, including one that cut a
    message short, is a crash.

    ``crash_after`` / ``delays_after`` are the live triggers of a
    :class:`~repro.serve.faults.FaultPlan`: the worker dies abruptly on
    receiving its ``crash_after + 1``-th request (so exactly
    ``crash_after`` requests were accepted, the rest strand), and sleeps
    ``delay_ms`` before serving its ``after``-th message for each
    ``(after, delay_ms)`` stall.
    """
    from repro.serve.service import AlignmentService

    _resolve_engine(config.engine, engine_origin)
    service = AlignmentService(config)
    service.start()
    sending = threading.Lock()

    def report(request_id: int, future: "Future[AlignmentResult]") -> None:
        payload = _outcome(request_id, future)
        with sending:
            results.send_bytes(payload)

    received = 0
    while True:
        item = task_queue.get()
        if item is None:
            break
        if item == _CRASH:
            os._exit(_CRASH_EXIT_CODE)
        request_id, task, _priority = item
        received += 1
        if crash_after is not None and received > crash_after:
            os._exit(_CRASH_EXIT_CODE)
        for after, delay_ms in delays_after:
            if after == received:
                service.telemetry.record_fault("delays")
                time.sleep(delay_ms / 1000.0)
        future = service.submit(task)
        future.add_done_callback(lambda f, rid=request_id: report(rid, f))
    service.shutdown(wait=True)
    results.send((None, service.telemetry.state()))


#: ``(future, result or error)`` pairs the holder of the lock collects and
#: resolves after releasing it (future callbacks are user code).
_Outcomes = List[Tuple["Future[AlignmentResult]", Any]]


def _settle(outcomes: _Outcomes) -> None:
    """Resolve each pending future with its result or error (call without
    the lock)."""
    for future, outcome in outcomes:
        if future.done():
            continue
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)


# ----------------------------------------------------------------------
# the live cluster
# ----------------------------------------------------------------------
class _Shard:
    """Parent-side bookkeeping of one worker slot."""

    def __init__(
        self, index: int, batcher: MicroBatcher, faults: Optional[ShardFaults]
    ) -> None:
        self.index = index
        self.batcher = batcher  # queued, not yet sent to the worker
        self.inflight: Dict[int, ServeRequest] = {}  # sent, not yet completed
        self.futures: Dict[int, "Future[AlignmentResult]"] = {}
        self.process: Any = None  # the live worker; None once the loop reaps it
        self.task_queue: Any = None
        self.results: Any = None  # read end of the worker's result pipe
        self.drained = False  # the worker's final telemetry message arrived
        self.closing = False  # the worker was handed its drain sentinel
        self.restarts = 0
        self.retiring = False  # draining out of the routable set (scale-down)
        self.sent = 0  # dispatch-stream index (drop/duplicate fault addressing)
        self.faults = faults  # dispatch-level fault view
        self.fault_armed = False  # worker-side fault triggers already consumed

    @property
    def routable(self) -> bool:
        """Whether new work may be placed here (lock held)."""
        return self.process is not None and not self.retiring and not self.closing


class ClusterService:
    """Live sharded alignment service over worker processes.

    The usage mirrors :class:`AlignmentService`::

        config = ClusterConfig(shards=4, serve=ServeConfig(engine="vector"))
        with ClusterService(config) as cluster:
            futures = [cluster.submit(task) for task in tasks]
            scores = [f.result().score for f in futures]

    ``submit`` routes through the cluster's :class:`ShardRouter`, applies
    the bounded-admission policy (possibly blocking, rejecting, or
    shedding queued lower-priority work), and parks the request in the
    target shard's parent-side :class:`MicroBatcher`.  Everything else
    runs on one parent thread, the cluster loop: it blocks in
    :func:`multiprocessing.connection.wait` on each worker's result pipe
    and process sentinel and on a wake-up pipe that ``submit``,
    ``scale_to`` and ``shutdown`` write to; forwards queued requests to
    each worker while its in-flight window has room (so queued work
    stays sheddable and preemptable); fans results back to futures; and
    turns worker death into :class:`ShardFailedError` fan-out / retry /
    restart.  When a worker's sentinel fires, everything it sent is
    already readable, so the loop reads its pipe to the end first: the
    worker drained if its final telemetry message arrived, and crashed
    otherwise.
    """

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self._router = self.config.router_for()
        self._admission = self.config.admission_controller()
        import multiprocessing

        self._ctx = multiprocessing.get_context(self.config.start_method)
        self._engine_origin: Optional[str] = None
        self._lock = threading.Lock()
        #: Notified by the loop on every pass: queue-admission submitters
        #: wait here for credit, and ``scale_to`` for a retired worker.
        self._changed = threading.Condition(self._lock)
        serve = self.config.serve
        self._shards = [
            self._new_shard(index) for index in range(self.config.shards)
        ]
        #: Routable prefix of ``self._shards``: ``scale_to`` grows/shrinks
        #: this (and the router) while retired slots linger for reuse.
        self._active = self.config.shards
        #: Per-worker in-flight credit: enough to keep a worker's own
        #: batcher busy, small enough that overload stays parent-side
        #: (where it can be shed / preempted / counted).
        self._window = (
            self.config.max_inflight
            if self.config.max_inflight is not None
            else max(2 * serve.max_batch_size, 2)
        )
        self._loop: Optional[threading.Thread] = None
        self._wake_r = self._wake_w = -1  # the wake-up pipe, opened by start()
        self._next_id = 0
        self._epoch = time.monotonic()
        self._started = False
        self._stopping = False
        self._closed = False
        self.telemetry = TelemetrySink()
        self._shard_sink_states: Dict[int, Mapping[str, object]] = {}
        tuner = self.config.autotune_config()
        self._observer = TrafficObserver(tuner) if tuner is not None else None
        self._autotune_choice: Optional[RouterChoice] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _now_ms(self) -> float:
        return (time.monotonic() - self._epoch) * 1000.0

    def _new_shard(self, index: int) -> _Shard:
        """A fresh parent-side shard slot (batcher mirrors the config)."""
        serve = self.config.serve
        return _Shard(
            index,
            MicroBatcher(
                serve.max_batch_size,
                serve.max_wait_ms,
                length_aware=serve.length_aware,
            ),
            None if self.config.faults is None else self.config.faults.shard_faults(index),
        )

    def start(self) -> "ClusterService":
        """Spawn the workers and the cluster loop (idempotent)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("cluster has been shut down")
            if self._started:
                return self
            engine = self.config.serve.engine
            origin = _engine_origin(engine)
            _ensure_engine_shardable(engine, origin, self._ctx.get_start_method())
            self._engine_origin = origin
            self._wake_r, self._wake_w = os.pipe()
            os.set_blocking(self._wake_w, False)
            # Processes first, the loop thread second: forking after our
            # own thread exists is the classic fork-with-threads trap.
            for shard in self._shards:
                self._spawn_worker(shard)
            self._loop = threading.Thread(
                target=self._run, name="repro-cluster-loop", daemon=True
            )
            self._loop.start()
            self._started = True
        return self

    def _spawn_worker(self, shard: _Shard) -> None:
        """Start a worker for ``shard`` with a fresh task queue and result
        pipe (lock held: no other fork may inherit the pipe's write end,
        or the pipe would stay open after this worker dies).

        The first worker of a shard carries the live (served-count)
        triggers of the configured fault plan; replacements and reused
        slots start clean -- a fault fires once, not once per worker.
        """
        crash_after: Optional[int] = None
        delays_after: Tuple[Tuple[int, float], ...] = ()
        plan = self.config.faults
        if plan is not None and not shard.fault_armed:
            crash_after = plan.crash_after(shard.index)
            delays_after = plan.delays_after(shard.index)
            shard.fault_armed = True
        shard.task_queue = self._ctx.Queue()
        shard.results, sender = self._ctx.Pipe(duplex=False)
        shard.process = self._ctx.Process(
            target=_shard_worker,
            args=(
                self.config.serve,
                self._engine_origin,
                shard.task_queue,
                sender,
                crash_after,
                delays_after,
            ),
            name=f"repro-serve-shard-{shard.index}",
            daemon=True,
        )
        shard.process.start()
        sender.close()
        shard.drained = shard.closing = False

    def _wake(self) -> None:
        """Interrupt the loop's wait (lock held, cluster running)."""
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # the pipe is full, so the loop is due to wake anyway

    def shutdown(self, wait: bool = True) -> None:
        """Drain every queued request, stop the workers and the loop.

        Queued requests are flushed to their workers, each worker drains
        its own service before exiting (no request is ever dropped by a
        clean shutdown), and any future left unresolved by a worker that
        died mid-shutdown fails with :class:`ShardFailedError`.  Every
        process, pipe and queue the cluster opened is closed before this
        returns, and every queue's feeder thread joined -- except that of
        a crashed worker's queue, which its dead reader may have left
        blocked on a full pipe.
        """
        with self._lock:
            if self._started and not self._stopping:
                self._wake()
            self._stopping = True
            self._closed = True
            self._changed.notify_all()
        if self._loop is None:
            return
        self._loop.join()
        leftovers: _Outcomes = []
        with self._lock:
            if self._wake_r >= 0:
                os.close(self._wake_r)
                os.close(self._wake_w)
                self._wake_r = self._wake_w = -1
            for shard in self._shards:
                leftovers += [
                    (future, ShardFailedError(shard.index))
                    for future in shard.futures.values()
                ]
                shard.futures.clear()
                shard.inflight.clear()
        _settle(leftovers)

    def __enter__(self) -> "ClusterService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def alive_shards(self) -> List[int]:
        """Indices of shards whose worker process is currently healthy."""
        with self._lock:
            return [shard.index for shard in self._shards if shard.process is not None]

    def fail_shard(self, shard: int) -> None:
        """Chaos hook: make one worker die abruptly (``os._exit``).

        The worker processes everything already queued to it, then dies
        without draining its service -- exactly the stranding a real
        crash produces, but deterministically placed.  Tests use this to
        pin the crash-robustness contract.  A shard without a live
        worker has nothing to crash.
        """
        with self._lock:
            if not self._started:
                raise RuntimeError("cluster is not started")
            target = self._shards[shard]
            if target.process is not None:
                target.task_queue.put(_CRASH)

    # ------------------------------------------------------------------
    # elasticity
    # ------------------------------------------------------------------
    @property
    def active_shards(self) -> int:
        """The current routable shard count (changes via :meth:`scale_to`)."""
        with self._lock:
            return self._active

    def _reroute(
        self,
        source: _Shard,
        requests: Sequence[ServeRequest],
        pick: Callable[[ServeRequest], _Shard],
        orphans: _Outcomes,
    ) -> int:
        """Queue ``requests``, taken off ``source``, on the shards ``pick``
        chooses, futures included (lock held); returns how many changed
        shard.  A request ``pick`` cannot place (:class:`ShardFailedError`)
        has its future appended to ``orphans``, to be failed outside the
        lock (future callbacks are user code).
        """
        moved = 0
        for request in requests:
            try:
                target = pick(request)
            except ShardFailedError as error:
                future = source.futures.pop(request.request_id, None)
                if future is not None:
                    orphans.append((future, error))
                continue
            target.batcher.add(request)
            if target is not source:
                future = source.futures.pop(request.request_id, None)
                if future is not None:
                    target.futures[request.request_id] = future
                moved += 1
        return moved

    def scale_to(self, shards: int) -> int:
        """Grow or shrink the live cluster to ``shards`` workers.

        Before :meth:`start` this simply re-cuts the (empty) cluster.
        On a running cluster:

        * **grow** -- new worker processes spawn (a retired slot is
          reused once the loop has reaped its old worker), then the
          wider router is published atomically with the new shard count
          and queued requests whose routed shard changed migrate, so
          placement never straddles two epochs.  Under the ``"stable"``
          policy the migration touches at most ``ceil(keys/(n+1))`` of
          the queued ids per added shard.
        * **shrink** -- the narrower router is published first, then the
          shards leaving the routable set start *draining*: their queued
          requests are preempted and re-routed (futures travel along),
          their in-flight work finishes on the old worker, and the loop
          hands the worker its sentinel so it exits cleanly.
          ``shutdown`` still accounts for every request.

        Each live resize records one ``resize`` telemetry event with the
        number of relocated queued requests.  Returns the new count.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        orphans: _Outcomes = []
        with self._lock:
            if self._closed or self._stopping:
                raise RuntimeError("cluster has been shut down")
            if not self._started:
                # Pre-start reshape: pure configuration, no resize event.
                self.config = self.config.replace(shards=shards)
                self._router = self.config.router_for()
                self._admission = self.config.admission_controller()
                self._shards = [self._new_shard(i) for i in range(shards)]
                self._active = shards
                return shards
            old = self._active
            if shards == old:
                return shards
            while len(self._shards) < shards:
                self._shards.append(self._new_shard(len(self._shards)))
            for index in range(old, shards):
                slot = self._shards[index]
                if slot.task_queue is not None:
                    # Reused slot: its old worker finishes draining first.
                    while slot.process is not None and not self._stopping:
                        self._changed.wait()
                    if self._stopping:
                        raise RuntimeError("cluster has been shut down")
                    refreshed = self._new_shard(index)
                    refreshed.sent = slot.sent
                    refreshed.fault_armed = slot.fault_armed
                    self._shards[index] = slot = refreshed
                self._spawn_worker(slot)
            # Grow: the wider epoch is published with the new workers.
            # Shrink: the narrower router first, then the leavers drain.
            self._router = dataclasses.replace(self._router, shards=shards)
            self._active = shards
            moved = 0
            if shards > old:
                # Queued requests whose routed shard changed migrate.
                for slot in self._shards[:shards]:
                    if not slot.routable:
                        continue
                    strays = slot.batcher.preempt(
                        lambda r, here=slot.index: self._router.route(
                            r.task, r.request_id
                        )
                        != here
                    )
                    moved += self._reroute(slot, strays, self._target_shard, orphans)
            else:
                for slot in self._shards[shards:]:
                    if slot.retiring or slot.process is None:
                        continue  # a crashed slot's queue was re-routed already
                    slot.retiring = True
                    queued = slot.batcher.preempt(lambda r: True)
                    moved += self._reroute(slot, queued, self._target_shard, orphans)
            self.telemetry.record_resize(relocated=moved)
            self._wake()
        _settle(orphans)
        return shards

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _target_shard(self, request: ServeRequest) -> _Shard:
        """The routed shard among the active set, skipping shards without
        a worker and retiring ones (lock held)."""
        task, request_id = request.task, request.request_id
        index = self._router.place(
            task, request_id, lambda shard: self._shards[shard].routable
        )
        if index is None:
            raise ShardFailedError(self._router.route(task, request_id))
        return self._shards[index]

    def submit(
        self, task: AlignmentTask, *, priority: int = 0
    ) -> "Future[AlignmentResult]":
        """Route and enqueue one task; may block, reject, or shed.

        Under ``admission="queue"`` with a full shard this call *blocks*
        until space frees -- that is the explicit backpressure.  Under
        ``"reject"`` it raises :class:`RequestRejected`; under
        ``"shed"`` it may evict a queued strictly-lower-priority request
        (whose future then raises :class:`RequestRejected`).
        """
        self.start()
        shed_futures: List["Future[AlignmentResult]"] = []
        with self._lock:
            if self._observer is not None and self._autotune_choice is None:
                if self._observer.observe(task):
                    # The sample is complete: swap the router in the same
                    # lock step, so placement stays a deterministic
                    # function of the submission order.
                    choice = self._observer.tune(
                        self._active, baseline=self._router
                    )
                    self._autotune_choice = choice
                    self._router = dataclasses.replace(
                        self._router,
                        policy=choice.policy,
                        length_stride=choice.length_stride,
                    )
            while True:
                if self._stopping:
                    raise RuntimeError("cluster is shutting down")
                request = ServeRequest(
                    task=task,
                    request_id=self._next_id,
                    arrival_ms=self._now_ms(),
                    priority=priority,
                )
                shard = self._target_shard(request)
                decision = self._admission.decide(
                    request, shard.batcher.pending, tuple(shard.inflight.values())
                )
                if decision.action != "wait":
                    break
                self._changed.wait()
            if decision.action == "reject":
                self.telemetry.record_admission("rejected")
                raise RequestRejected(
                    f"shard {shard.index} is at its admission limit "
                    f"({self._admission.max_pending} pending; "
                    f"policy={self._admission.policy!r})"
                )
            if decision.action == "shed":
                victims = set(map(id, decision.victims))
                for victim in shard.batcher.preempt(lambda r: id(r) in victims):
                    future = shard.futures.pop(victim.request_id, None)
                    if future is not None:
                        shed_futures.append(future)
                    self.telemetry.record_admission("shed")
            self._next_id += 1
            result_future: "Future[AlignmentResult]" = Future()
            shard.batcher.add(request)
            shard.futures[request.request_id] = result_future
            self.telemetry.record_admission("admitted")
            self.telemetry.record_queue_depth(
                sum(len(s.batcher) for s in self._shards)
            )
            self._wake()
        for future in shed_futures:  # user callbacks run outside the lock
            future.set_exception(
                RequestRejected("request shed to admit higher-priority work")
            )
        return result_future

    def map(self, tasks: Sequence[AlignmentTask]) -> List[AlignmentResult]:
        """Submit every task and gather results in submission order."""
        futures = [self.submit(task) for task in tasks]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # the cluster loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        """Dispatch, then block until a worker's result pipe or sentinel
        (or the wake-up pipe) is ready, and handle what arrived; return
        once a stopping cluster has reaped every worker."""
        while True:
            outcomes: _Outcomes = []
            with self._lock:
                self._dispatch()
                pipes = {s.results: s for s in self._shards if s.results is not None}
                sentinels = {
                    s.process.sentinel: s for s in self._shards if s.process is not None
                }
                if self._stopping and not sentinels:
                    return
            ready = connection.wait([self._wake_r, *pipes, *sentinels])
            with self._lock:
                if self._wake_r in ready:
                    os.read(self._wake_r, 4096)
                for handle in ready:
                    if handle in pipes:
                        self._read(pipes[handle], outcomes)
                for handle in ready:
                    if handle in sentinels:
                        self._reap(sentinels[handle], outcomes)
                self._changed.notify_all()
            _settle(outcomes)

    def _dispatch(self) -> None:
        """Send queued requests to each worker while its credit window has
        room (lock held).  A stopping cluster or a retiring shard instead
        flushes the whole queue and hands the worker its drain sentinel.

        Dispatch-level faults (drop/duplicate, addressed by the shard's
        0-based send index) fire here -- but never on that final flush,
        where a dropped send would have no later dispatch to ride home on
        (a lost send is latency, never loss).  A ``put`` never blocks (the
        queue's feeder thread writes the pipe), so a stalled worker cannot
        stall the loop.
        """
        for shard in self._shards:
            if shard.process is None or shard.closing:
                continue
            finishing = self._stopping or shard.retiring
            while True:
                limit = len(shard.batcher) if finishing else self._window - len(shard.inflight)
                taken = shard.batcher.take(limit, self._now_ms())
                if not taken:
                    break
                view = shard.faults
                for request in taken:
                    copies = 1
                    if view is not None and not finishing:
                        index = shard.sent
                        shard.sent += 1
                        if index in view.drops:
                            self.telemetry.record_fault("dropped")
                            shard.batcher.restore([request])
                            continue
                        if index in view.duplicates:
                            self.telemetry.record_fault("duplicated")
                            copies = 2
                    shard.inflight[request.request_id] = request
                    message = (request.request_id, request.task, request.priority)
                    for _ in range(copies):
                        shard.task_queue.put(message)
                self.telemetry.record_queue_depth(
                    sum(len(s.batcher) for s in self._shards)
                )
            if finishing:
                shard.task_queue.put(None)
                shard.closing = True

    def _read(self, shard: _Shard, outcomes: _Outcomes) -> None:
        """Take every message waiting on the shard's result pipe, closing
        the pipe at its end (lock held)."""
        pipe = shard.results
        if pipe is None:
            return
        try:
            while pipe.poll():
                request_id, payload = pipe.recv()
                if request_id is None:  # the worker's final telemetry
                    self._shard_sink_states[shard.index] = payload
                    shard.drained = True
                    continue
                shard.inflight.pop(request_id, None)
                future = shard.futures.pop(request_id, None)
                if future is not None:  # None: a duplicate's second outcome
                    outcomes.append((future, payload))
        except (EOFError, OSError):
            pipe.close()
            shard.results = None

    def _reap(self, shard: _Shard, outcomes: _Outcomes) -> None:
        """The worker's process ended: read its pipe to the end, release
        its process, pipe and queue, and if it crashed settle what it
        stranded (lock held).

        The worker sent synchronously, so everything it sent is readable
        now: it drained if its final telemetry message arrived, and
        crashed otherwise.  A crash fails the stranded requests with
        :class:`ShardFailedError`, or re-queues them round-robin on the
        surviving shards under ``retry_failed``, and restarts the worker
        (up to ``max_restarts``) for later traffic.
        """
        self._read(shard, outcomes)
        if shard.results is not None:  # no end of file: close it all the same
            shard.results.close()
            shard.results = None
        process = shard.process
        process.join()
        exitcode = process.exitcode
        process.close()
        shard.process = None
        queue = shard.task_queue
        queue.close()
        if shard.drained:
            queue.join_thread()
            return
        # A dead reader may leave the queue's pipe full: never join its feeder.
        queue.cancel_join_thread()
        self.telemetry.record_fault("crashes")
        stranded = list(shard.inflight.values())
        shard.inflight.clear()
        stranded += shard.batcher.preempt(lambda request: True)
        stranded.sort(key=lambda request: request.request_id)
        survivors = [s for s in self._shards[: self._active] if s.routable]
        if self.config.retry_failed and survivors and stranded:
            rotation = itertools.cycle(survivors)
            retried = self._reroute(shard, stranded, lambda _: next(rotation), outcomes)
            self.telemetry.record_admission("retried", retried)
        else:
            error = ShardFailedError(shard.index, exitcode=exitcode)
            for request in stranded:
                future = shard.futures.pop(request.request_id, None)
                if future is not None:
                    outcomes.append((future, error))
        # A retiring shard has nothing left to route to it and a stopping
        # cluster nothing left to serve: neither earns a replacement.
        if (
            not (self._stopping or shard.retiring)
            and shard.restarts < self.config.max_restarts
        ):
            shard.restarts += 1
            self._spawn_worker(shard)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def telemetry_summary(self) -> Dict[str, object]:
        """Merged schema-v4 summary: pooled samples + per-shard block.

        Worker sinks arrive at clean worker exit, so the per-shard block
        is complete after :meth:`shutdown`; before that it covers the
        shards that have already exited.  Latency percentiles pool the
        workers' per-request samples (service-side latency); admission,
        fault and resize counters come from the front-end.  When the
        router was autotuned, the ``"autotune"`` block records the
        choice and the imbalance evidence behind it.
        """
        with self._lock:
            merged = TelemetrySink.from_state(self.telemetry.state())
            states = dict(self._shard_sink_states)
            choice = self._autotune_choice
        shards_block: Dict[str, object] = {}
        for index in sorted(states):
            sink = TelemetrySink.from_state(states[index])
            shards_block[str(index)] = sink.summary()
            merged.merge(sink)
        summary: Dict[str, object] = merged.summary()
        summary["shards"] = shards_block
        if choice is not None:
            summary["autotune"] = choice.to_dict()
        return summary

