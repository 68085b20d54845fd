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
    function partitions a replay trace and routes live submissions, so
    the virtual-clock study and the live cluster agree on placement.
:func:`cluster_replay`
    Deterministic cross-shard replay: the trace is partitioned by the
    router, each partition drains through the ordinary
    :func:`repro.serve.scheduler.replay` (arrival times unchanged --
    shards share one clock), and the per-shard event streams merge into
    one :class:`ClusterReport`.  Results are bit-identical to
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
    worker's in-flight set bounded so queued work stays sheddable.  A
    monitor thread per shard watches the worker process; on a crash the
    stranded queue is pulled back through the existing
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
import os
import threading
import time
import zlib
from concurrent.futures import Future
from dataclasses import dataclass, field
from importlib import import_module
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
class ClusterReport:
    """Merged outcome of one cluster drain (duck-types ServeReport).

    ``requests`` are in global submission order with request ids
    re-stamped to trace indices, so :meth:`results` lines up with
    ``Session.align`` on the same tasks.  ``telemetry`` is the merged
    schema-v4 summary: pooled samples at the top level plus a
    ``"shards"`` block of per-shard summaries.  ``shard_reports`` holds
    one :class:`ServeReport` per shard *segment* -- normally one per
    shard, two for a shard whose worker crashed and was replaced
    mid-drain -- so ``shards`` (the width of the drain's shard universe)
    is carried separately.
    """

    policy: str
    workload: str
    cluster: ClusterConfig
    shard_reports: Tuple[ServeReport, ...]
    shard_count: int
    requests: Tuple[ServeRequest, ...]
    makespan_ms: float
    telemetry: Dict[str, object]

    @property
    def config(self) -> ServeConfig:
        """The per-shard serve configuration (record-builder surface)."""
        return self.cluster.serve

    @property
    def shards(self) -> int:
        return self.shard_count

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of virtual drain time."""
        if self.makespan_ms <= 0:
            return 0.0
        return self.num_requests / self.makespan_ms * 1000.0

    def results(self) -> List[AlignmentResult]:
        """Alignment results in submission (trace) order."""
        out: List[AlignmentResult] = []
        for request in self.requests:
            if request.result is None:
                raise ValueError(f"request {request.request_id} has no result")
            out.append(request.result)
        return out

    def scores(self) -> List[int]:
        return [result.score for result in self.results()]


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
    replay-side triggers of a :class:`~repro.serve.faults.FaultPlan`:
    stalls/drops/duplicates thread into each shard's event loop, and a
    crash at ``at_ms`` splits the shard's drain -- requests completed by
    the crash survive, the rest are stranded and either re-routed
    round-robin over the shards alive at the crash (arrival clamped to
    the crash time) when ``config.retry_failed``, or the whole replay
    raises :class:`ShardFailedError`, exactly like the live monitor.
    Post-crash arrivals reach the shard's replacement worker when
    ``config.max_restarts`` allows one, and are routed on to the next
    alive shard otherwise.  Crash/retry/restart never change *what* is
    computed -- only placement and timing -- which is what the chaos
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

    def dead_at(shard: int, at_ms: float) -> bool:
        """Whether ``shard`` can no longer take arrivals at ``at_ms``."""
        if restartable:
            return False
        crash_ms = crash_times.get(shard)
        return crash_ms is not None and crash_ms <= at_ms

    parent_sink = TelemetrySink()
    parent_sink.record_admission("admitted", len(trace))

    # Placement: each request lands on its arrival epoch's router target,
    # skipping shards already dead (crashed, unreplaceable) on arrival --
    # the replay twin of the live offset scan in ``_target_shard``.
    pending: List[List[Tuple[int, float]]] = [[] for _ in range(universe)]
    for index, (task, arrival) in enumerate(zip(trace.tasks, trace.arrivals_ms)):
        active = shards_at(arrival)
        first = router_for(active).route(task, index)
        for offset in range(active):
            shard = (first + offset) % active
            if not dead_at(shard, arrival):
                pending[shard].append((index, float(arrival)))
                break
        else:
            raise ShardFailedError(first, exitcode=_CRASH_EXIT_CODE)

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

    shard_sinks: Dict[int, TelemetrySink] = {}
    segment_reports: List[ServeReport] = []
    merged_requests: List[Optional[ServeRequest]] = [None] * len(trace)
    retried = 0

    def shard_sink(shard: int) -> TelemetrySink:
        if shard not in shard_sinks:
            shard_sinks[shard] = TelemetrySink()
        return shard_sinks[shard]

    def run_segment(
        shard: int,
        entries: Sequence[Tuple[int, float]],
        view: Optional[ShardFaults],
    ) -> Tuple[ServeReport, TelemetrySink]:
        subtrace = RequestTrace(
            name=trace.name,
            process=trace.process,
            tasks=tuple(trace.tasks[index] for index, _ in entries),
            arrivals_ms=tuple(arrival for _, arrival in entries),
        )
        sink = TelemetrySink()
        report = replay(
            subtrace, config.serve, service_time=service_time, sink=sink, faults=view
        )
        return report, sink

    # Crashed shards drain first, in crash order, so their stranded work
    # reaches survivors before those survivors drain (a survivor that
    # crashes *later* takes the hand-off and re-strands it chronologically).
    for shard, crash_ms in sorted(crash_times.items(), key=lambda kv: (kv[1], kv[0])):
        entries = pending[shard]
        doomed = [entry for entry in entries if entry[1] < crash_ms]
        pending[shard] = [entry for entry in entries if entry[1] >= crash_ms]
        assert restartable or not pending[shard]
        view = fault_plan.shard_faults(shard) if fault_plan else None
        report, sink = run_segment(shard, doomed, view)
        segment_reports.append(report)
        survivors: List[ServeRequest] = []
        stranded: List[Tuple[int, float]] = []
        for request, (index, arrival) in zip(report.requests, doomed):
            if request.completion_ms is not None and request.completion_ms <= crash_ms:
                request.request_id = index
                merged_requests[index] = request
                survivors.append(request)
            else:
                stranded.append((index, arrival))
        # The doomed drain simulated past the crash to find the cut; keep
        # only the per-request samples the worker actually delivered.
        sink.wait_ms = [request.wait_ms for request in survivors]
        sink.latency_ms = [request.latency_ms for request in survivors]
        shard_sink(shard).merge(sink)
        parent_sink.record_fault("crashes")
        if not stranded:
            continue
        active = shards_at(crash_ms)
        targets = [
            target
            for target in range(active)
            if target != shard
            and (target not in crash_times or crash_times[target] > crash_ms)
        ]
        if not (config.retry_failed and targets):
            raise ShardFailedError(shard, exitcode=_CRASH_EXIT_CODE)
        stranded.sort()  # by trace index: the live monitor's re-route order
        for offset, (index, arrival) in enumerate(stranded):
            target = targets[offset % len(targets)]
            pending[target].append((index, max(arrival, crash_ms)))
            pending[target].sort(key=lambda entry: (entry[1], entry[0]))
        retried += len(stranded)
    if retried:
        parent_sink.record_admission("retried", retried)

    for shard in range(universe):
        entries = pending[shard]
        crashed_here = shard in crash_times
        if crashed_here and not entries:
            continue  # nothing for a replacement worker to do
        view = None
        if fault_plan:
            view = fault_plan.shard_faults(shard)
            if crashed_here:
                # The replacement worker: future stalls still apply,
                # dispatch-indexed faults stayed with the dead worker.
                view = view.after(crash_times[shard])
            if not view:
                view = None
        report, sink = run_segment(shard, entries, view)
        segment_reports.append(report)
        for request, (index, _) in zip(report.requests, entries):
            request.request_id = index
            merged_requests[index] = request
        shard_sink(shard).merge(sink)

    merged = parent_sink
    shards_block: Dict[str, object] = {}
    for shard in sorted(shard_sinks):
        shards_block[str(shard)] = shard_sinks[shard].summary()
        merged.merge(shard_sinks[shard])
    telemetry: Dict[str, object] = merged.summary()
    telemetry["shards"] = shards_block
    if autotune_choice is not None:
        telemetry["autotune"] = autotune_choice.to_dict()

    requests = tuple(r for r in merged_requests if r is not None)
    assert len(requests) == len(trace)
    return ClusterReport(
        policy=policy if policy is not None else config.policy_name,
        workload=trace.name,
        cluster=config,
        shard_reports=tuple(segment_reports),
        shard_count=universe,
        requests=requests,
        makespan_ms=max(
            (
                request.completion_ms
                for request in requests
                if request.completion_ms is not None
            ),
            default=0.0,
        ),
        telemetry=telemetry,
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


def _report_result(
    result_queue: Any, shard: int, request_id: int, future: "Future[AlignmentResult]"
) -> None:
    """Worker-side future callback: ship one outcome to the parent."""
    exc = future.exception()
    try:
        if exc is not None:
            result_queue.put(("error", shard, request_id, exc))
        else:
            result_queue.put(("result", shard, request_id, future.result()))
    except Exception as send_error:  # unpicklable payload: degrade, don't strand
        result_queue.put(
            ("error", shard, request_id, RuntimeError(repr(exc or send_error)))
        )


def _shard_worker(
    shard: int,
    config: ServeConfig,
    engine_origin: Optional[str],
    task_queue: Any,
    result_queue: Any,
    crash_after: Optional[int] = None,
    delays_after: Tuple[Tuple[int, float], ...] = (),
) -> None:
    """Worker-process main: one AlignmentService fed from a task queue.

    Messages are ``(request_id, task, priority)`` tuples, a ``None``
    sentinel (drain and exit cleanly), or the crash token (die abruptly
    -- the chaos hook behind :meth:`ClusterService.fail_shard`).  On a
    clean exit the worker ships its telemetry sink state home, then an
    ``("exit", shard)`` marker the parent uses to distinguish shutdown
    from death.

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
        future.add_done_callback(
            lambda f, rid=request_id: _report_result(result_queue, shard, rid, f)
        )
    service.shutdown(wait=True)
    result_queue.put(("telemetry", shard, service.telemetry.state()))
    result_queue.put(("exit", shard))


# ----------------------------------------------------------------------
# the live cluster
# ----------------------------------------------------------------------
class _Shard:
    """Parent-side bookkeeping of one worker process."""

    def __init__(self, index: int, batcher: MicroBatcher) -> None:
        self.index = index
        self.batcher = batcher  # queued, not yet sent to the worker
        self.inflight: Dict[int, ServeRequest] = {}  # sent, not yet completed
        self.futures: Dict[int, "Future[AlignmentResult]"] = {}
        self.process: Any = None
        self.task_queue: Any = None
        self.failed = False
        self.exited = False  # clean worker exit observed
        self.restarts = 0
        self.retiring = False  # draining out of the routable set (scale-down)
        self.sentinel_sent = False  # dispatcher handed the worker its sentinel
        self.sent = 0  # dispatch-stream index (drop/duplicate fault addressing)
        self.faults: Optional[ShardFaults] = None  # dispatch-level fault view
        self.fault_armed = False  # worker-side fault triggers already consumed

    @property
    def routable(self) -> bool:
        """Whether the router may place new work here (lock held)."""
        return not self.failed and not self.retiring

    @property
    def pending(self) -> int:
        """Queued + in-flight requests charged against admission budgets."""
        return len(self.batcher) + len(self.inflight)


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
    target shard's parent-side :class:`MicroBatcher`.  A per-shard
    dispatcher thread forwards queued requests to the worker while its
    in-flight window has room (so queued work stays sheddable and
    preemptable), a single collector thread fans results back to
    futures, and a monitor thread per shard turns worker death into
    :class:`ShardFailedError` fan-out / retry / restart.
    """

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self._router = self.config.router_for()
        self._admission = self.config.admission_controller()
        import multiprocessing

        self._ctx = multiprocessing.get_context(self.config.start_method)
        self._engine_origin: Optional[str] = None
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
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
        self._result_queue: Any = None
        self._dispatchers: List[threading.Thread] = []
        self._monitors: List[threading.Thread] = []
        self._collector: Optional[threading.Thread] = None
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
        shard = _Shard(
            index,
            MicroBatcher(
                serve.max_batch_size,
                serve.max_wait_ms,
                length_aware=serve.length_aware,
            ),
        )
        if self.config.faults is not None:
            shard.faults = self.config.faults.shard_faults(index)
        return shard

    def start(self) -> "ClusterService":
        """Spawn the workers and service threads (idempotent)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("cluster has been shut down")
            if self._started:
                return self
            self._started = True
        engine = self.config.serve.engine
        origin = _engine_origin(engine)
        _ensure_engine_shardable(engine, origin, self._ctx.get_start_method())
        self._engine_origin = origin
        self._result_queue = self._ctx.Queue()
        # Processes first, threads second: forking after our own service
        # threads exist is the classic fork-with-threads trap.
        for shard in self._shards:
            self._spawn_worker(shard)
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-cluster-collector", daemon=True
        )
        self._collector.start()
        for shard in self._shards:
            self._start_shard_threads(shard)
        return self

    def _start_shard_threads(self, shard: _Shard) -> None:
        """Start (or restart, after slot reuse) one shard's service threads."""
        dispatcher = threading.Thread(
            target=self._dispatch_loop,
            args=(shard,),
            name=f"repro-cluster-dispatch-{shard.index}",
            daemon=True,
        )
        dispatcher.start()
        monitor = threading.Thread(
            target=self._monitor_loop,
            args=(shard,),
            name=f"repro-cluster-monitor-{shard.index}",
            daemon=True,
        )
        monitor.start()
        with self._lock:
            self._dispatchers.append(dispatcher)
            self._monitors.append(monitor)

    def _spawn_worker(self, shard: _Shard) -> None:
        """Create (or replace) the worker process of one shard.

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
        shard.process = self._ctx.Process(
            target=_shard_worker,
            args=(
                shard.index,
                self.config.serve,
                self._engine_origin,
                shard.task_queue,
                self._result_queue,
                crash_after,
                delays_after,
            ),
            name=f"repro-serve-shard-{shard.index}",
            daemon=True,
        )
        shard.process.start()

    def shutdown(self, wait: bool = True) -> None:
        """Drain every queued request, stop workers and threads.

        Queued requests are flushed to their workers, each worker drains
        its own service before exiting (no request is ever dropped by a
        clean shutdown), and any future left unresolved by a worker that
        died mid-shutdown fails with :class:`ShardFailedError`.
        """
        with self._wakeup:
            self._stopping = True
            self._closed = True
            started = self._started
            self._wakeup.notify_all()
        if not started:
            return
        for dispatcher in self._dispatchers:
            dispatcher.join()
        for shard in self._shards:
            if shard.process is not None:
                shard.process.join()
        for monitor in self._monitors:
            monitor.join()
        # Workers flush their queues before exiting, so by now every
        # result/telemetry/exit message is buffered; the sentinel lands
        # behind them and the collector drains in order.
        self._result_queue.put(("stop",))
        if self._collector is not None:
            self._collector.join()
        leftovers: List[Tuple[int, "Future[AlignmentResult]"]] = []
        with self._lock:
            for shard in self._shards:
                for request_id, future in shard.futures.items():
                    leftovers.append((shard.index, future))
                shard.futures.clear()
                shard.inflight.clear()
        for index, future in leftovers:
            if not future.done():
                future.set_exception(ShardFailedError(index))

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
            return [
                shard.index
                for shard in self._shards
                if not shard.failed
                and shard.process is not None
                and shard.process.is_alive()
            ]

    def fail_shard(self, shard: int) -> None:
        """Chaos hook: make one worker die abruptly (``os._exit``).

        The worker processes everything already queued to it, then dies
        without draining its service -- exactly the stranding a real
        crash produces, but deterministically placed.  Tests use this to
        pin the crash-robustness contract.
        """
        with self._lock:
            target = self._shards[shard]
            if target.task_queue is None:
                raise RuntimeError("cluster is not started")
            target.task_queue.put(_CRASH)

    # ------------------------------------------------------------------
    # elasticity
    # ------------------------------------------------------------------
    @property
    def active_shards(self) -> int:
        """The current routable shard count (changes via :meth:`scale_to`)."""
        with self._lock:
            return self._active

    def _relocate_queued(self) -> Tuple[int, List[Tuple["Future[AlignmentResult]", BaseException]]]:
        """Move queued requests whose routed shard changed (lock held).

        Returns ``(moved, orphans)``: futures in ``orphans`` must be
        failed *outside* the lock (their callbacks are user code).
        """
        moved = 0
        orphans: List[Tuple["Future[AlignmentResult]", BaseException]] = []
        for slot in self._shards[: self._active]:
            if not slot.routable:
                continue
            strays = slot.batcher.preempt(
                lambda r, here=slot.index: self._router.route(r.task, r.request_id)
                != here
            )
            for request in strays:
                try:
                    target = self._target_shard(request.task, request.request_id)
                except ShardFailedError as error:
                    future = slot.futures.pop(request.request_id, None)
                    if future is not None:
                        orphans.append((future, error))
                    continue
                if target is slot:  # routed away, offset-scanned back
                    slot.batcher.add(request)
                    continue
                target.batcher.add(request)
                future = slot.futures.pop(request.request_id, None)
                if future is not None:
                    target.futures[request.request_id] = future
                moved += 1
        return moved, orphans

    def scale_to(self, shards: int) -> int:
        """Grow or shrink the live cluster to ``shards`` workers.

        Before :meth:`start` this simply re-cuts the (empty) cluster.
        On a running cluster:

        * **grow** -- new worker processes spawn (retired slots are
          reused once their old worker finishes draining), then the
          wider router is published atomically with the new shard count
          and queued requests whose routed shard changed migrate, so
          placement never straddles two epochs.  Under the ``"stable"``
          policy the migration touches at most ``ceil(keys/(n+1))`` of
          the queued ids per added shard.
        * **shrink** -- the narrower router is published first, then the
          shards leaving the routable set start *draining*: their queued
          requests are preempted and re-routed (futures travel along),
          their in-flight work finishes on the old worker, and the
          dispatcher hands the worker its sentinel so it exits cleanly.
          ``shutdown`` still accounts for every request.

        Each live resize records one ``resize`` telemetry event with the
        number of relocated queued requests.  Returns the new count.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        to_spawn: List[_Shard] = []
        with self._wakeup:
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
            if shards > old:
                while len(self._shards) < shards:
                    self._shards.append(self._new_shard(len(self._shards)))
                for index in range(old, shards):
                    slot = self._shards[index]
                    if slot.process is not None:
                        # Reused retired slot: let the old worker finish
                        # draining before a replacement takes over.
                        while not (slot.exited or slot.failed):
                            self._wakeup.wait()
                        refreshed = self._new_shard(index)
                        refreshed.sent = slot.sent
                        refreshed.fault_armed = slot.fault_armed
                        self._shards[index] = refreshed
                        slot = refreshed
                    to_spawn.append(slot)
        if to_spawn:
            # Grow: spawn processes and threads outside the lock, then
            # publish the wider epoch atomically.
            for slot in to_spawn:
                self._spawn_worker(slot)
            for slot in to_spawn:
                self._start_shard_threads(slot)
            with self._wakeup:
                self._router = ShardRouter(
                    shards=shards,
                    policy=self._router.policy,
                    length_stride=self._router.length_stride,
                )
                self._active = shards
                moved, orphans = self._relocate_queued()
                self.telemetry.record_resize(relocated=moved)
                self._wakeup.notify_all()
            for future, error in orphans:
                if not future.done():
                    future.set_exception(error)
            return shards
        # Shrink: publish the narrower router, then drain the leavers.
        orphans = []
        with self._wakeup:
            self._router = ShardRouter(
                shards=shards,
                policy=self._router.policy,
                length_stride=self._router.length_stride,
            )
            self._active = shards
            moved = 0
            for slot in self._shards[shards:]:
                if slot.retiring or slot.process is None:
                    continue
                slot.retiring = True
                if slot.failed:
                    continue  # the crash path already re-routed its queue
                for request in slot.batcher.preempt(lambda r: True):
                    try:
                        target = self._target_shard(
                            request.task, request.request_id
                        )
                    except ShardFailedError as error:
                        future = slot.futures.pop(request.request_id, None)
                        if future is not None:
                            orphans.append((future, error))
                        continue
                    target.batcher.add(request)
                    future = slot.futures.pop(request.request_id, None)
                    if future is not None:
                        target.futures[request.request_id] = future
                    moved += 1
            self.telemetry.record_resize(relocated=moved)
            self._wakeup.notify_all()
        for future, error in orphans:
            if not future.done():
                future.set_exception(error)
        return shards

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _target_shard(self, task: AlignmentTask, request_id: int) -> _Shard:
        """The routed shard among the active set, skipping failed and
        retiring ones (lock held)."""
        active = self._active
        first = self._router.route(task, request_id)
        for offset in range(active):
            shard = self._shards[(first + offset) % active]
            if shard.routable:
                return shard
        raise ShardFailedError(first)

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
        with self._wakeup:
            if self._observer is not None and self._autotune_choice is None:
                if self._observer.observe(task):
                    # The sample is complete: swap the router in the same
                    # lock step, so placement stays a deterministic
                    # function of the submission order.
                    choice = self._observer.tune(
                        self._active, baseline=self._router
                    )
                    self._autotune_choice = choice
                    self._router = ShardRouter(
                        shards=self._active,
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
                shard = self._target_shard(task, request.request_id)
                decision = self._admission.decide(
                    request, shard.batcher.pending, tuple(shard.inflight.values())
                )
                if decision.action != "wait":
                    break
                self._wakeup.wait()
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
            self._wakeup.notify_all()
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
    # service threads
    # ------------------------------------------------------------------
    def _dispatch_loop(self, shard: _Shard) -> None:
        """Forward queued requests to the worker while credit remains.

        Dispatch-level faults (drop/duplicate, addressed by the shard's
        0-based send index) fire here -- but never on the final
        stopping/retiring flush, where a dropped send would have no later
        dispatch to ride home on (a lost send is latency, never loss).
        """
        while True:
            sends: List[Tuple[ServeRequest, int]] = []  # (request, copies)
            with self._wakeup:
                while True:
                    if self._stopping or shard.retiring:
                        # Flush everything still queued (workers drain on
                        # the sentinel), then hand off and exit.
                        taken = shard.batcher.take(len(shard.batcher), self._now_ms())
                        break
                    if shard.failed:
                        self._wakeup.wait()
                        continue
                    budget = self._window - len(shard.inflight)
                    if len(shard.batcher) and budget > 0:
                        taken = shard.batcher.take(budget, self._now_ms())
                        break
                    self._wakeup.wait()
                finishing = self._stopping or shard.retiring
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
                    sends.append((request, copies))
                if taken:
                    self.telemetry.record_queue_depth(
                        sum(len(s.batcher) for s in self._shards)
                    )
                if finishing:
                    # Set before the sentinel ships: once the worker exits
                    # the monitor must already see this flag (it is what
                    # distinguishes a drained worker from a crashed one).
                    shard.sentinel_sent = True
                queue = shard.task_queue
            for request, copies in sends:
                for _ in range(copies):
                    queue.put((request.request_id, request.task, request.priority))
            if finishing:
                queue.put(None)
                return

    def _collect_loop(self) -> None:
        """Fan worker messages back to futures and telemetry."""
        while True:
            message = self._result_queue.get()
            kind = message[0]
            if kind == "stop":
                return
            if kind == "telemetry":
                _, index, state = message
                with self._lock:
                    self._shard_sink_states[index] = state
                continue
            if kind == "exit":
                _, index = message
                with self._wakeup:
                    self._shards[index].exited = True
                    self._wakeup.notify_all()
                continue
            _, index, request_id, payload = message
            completion = self._now_ms()
            with self._wakeup:
                shard = self._shards[index]
                request = shard.inflight.pop(request_id, None)
                future = shard.futures.pop(request_id, None)
                if kind == "result" and request is not None:
                    request.result = payload
                    request.completion_ms = completion
                self._wakeup.notify_all()
            if future is not None and not future.done():
                if kind == "result":
                    future.set_result(payload)
                else:
                    future.set_exception(payload)

    def _monitor_loop(self, shard: _Shard) -> None:
        """Health check: join the worker, handle death, maybe restart."""
        while True:
            process = shard.process
            process.join()
            to_fail: List[Tuple["Future[AlignmentResult]", BaseException]] = []
            with self._wakeup:
                if shard.sentinel_sent and process.exitcode == 0:
                    # The sentinel is authoritative: a worker that was
                    # handed its sentinel and exited cleanly *drained* --
                    # even if the collector has not yet processed the
                    # ("exit", shard) marker when join() returns.  Wait
                    # for the marker instead of declaring a crash (the
                    # race is routine for scale-down drains, where only
                    # this shard stops while the cluster keeps serving).
                    while not shard.exited and not self._stopping:
                        self._wakeup.wait()
                    return
                if self._stopping or shard.exited:
                    return
                shard.failed = True
                exitcode = process.exitcode
                self.telemetry.record_fault("crashes")
                # Stranded work: everything still queued (pulled back
                # through the preempt hook) plus everything in flight.
                stranded = list(shard.inflight.values())
                shard.inflight.clear()
                stranded += shard.batcher.preempt(lambda request: True)
                stranded.sort(key=lambda request: request.request_id)
                survivors = [
                    s for s in self._shards[: self._active]
                    if s is not shard and s.routable
                ]
                if self.config.retry_failed and survivors and stranded:
                    for offset, request in enumerate(stranded):
                        target = survivors[offset % len(survivors)]
                        target.batcher.add(request)
                        future = shard.futures.pop(request.request_id, None)
                        if future is not None:
                            target.futures[request.request_id] = future
                    self.telemetry.record_admission("retried", len(stranded))
                else:
                    error = ShardFailedError(shard.index, exitcode=exitcode)
                    for request in stranded:
                        future = shard.futures.pop(request.request_id, None)
                        if future is not None:
                            to_fail.append((future, error))
                # A retiring shard has nothing left to route to it, so a
                # crash mid-drain re-routes its strands but never earns a
                # replacement worker.
                restart = (
                    shard.restarts < self.config.max_restarts
                    and not shard.retiring
                )
                if restart:
                    shard.restarts += 1
                self._wakeup.notify_all()
            for future, error in to_fail:  # callbacks outside the lock
                if not future.done():
                    future.set_exception(error)
            if not restart:
                return
            self._spawn_worker(shard)
            with self._wakeup:
                shard.failed = False
                shard.sentinel_sent = False
                if self._stopping:
                    # Shutdown raced the restart: the dispatcher already
                    # sent its sentinel to the dead worker's queue, so
                    # drain the replacement directly or join() hangs.
                    shard.sentinel_sent = True
                    shard.task_queue.put(None)
                self._wakeup.notify_all()

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


# Re-exported by repro.serve; keep Callable referenced for typing tools.
_ServiceTime = Callable[[Sequence[AlignmentTask]], float]
