"""Virtual-clock replay of the micro-batching service.

:func:`replay` drains a :class:`~repro.serve.loadgen.RequestTrace`
through the :class:`~repro.serve.queueing.MicroBatcher` policy as a
discrete-event simulation: a virtual clock advances from arrival to
dispatch to completion, and every formed batch is executed **for real**
through the configured :mod:`repro.api` engine (results are the point of
serving; only *time* is simulated).

One event loop serves both refill modes (``config.resolved_refill()``),
with two admission rules:

idle server -- the cut rule
    A batch is dispatched at ``t = max(ready, free)``.  Ready is "queue
    reached ``max_batch_size``" or "oldest pending request hit its
    deadline"; free is the earliest free server -- the first of
    ``config.workers`` busy-until times under ``"drain"``
    (drain-then-form), the single stream under ``"continuous"``.  An
    earlier arrival that could change the batch moves the clock to that
    arrival first.  Ties (an arrival at exactly the dispatch time)
    resolve in favour of dispatching, so a request never waits on a
    same-instant arrival.  Stalls push the dispatch time, and dropped or
    duplicated dispatches are indexed here.
busy stream -- refill
    Under continuous refill one streaming handle stays open for the whole
    busy period; at every slice boundary newly arrived requests are
    admitted into lanes freed by compaction (:meth:`MicroBatcher.take`,
    priority-ordered).  Refill admission can only shorten waits, never
    lengthen them, so the ``max_wait_ms`` contract holds in both modes.

The modes differ only in how far a dispatched batch runs.  Under
``"drain"`` it runs to completion on one worker through a one-shot
:class:`repro.api.InFlightBatch` handle (streaming engines still stream
internally, but get no refill) while the clock moves on; under
``"continuous"`` the stream advances one engine *slice* and the clock
with it.

A worker crash is an event of the same loop: the worker stops
dispatching at the crash time, work it has not delivered by then stays
unstamped, and a replacement worker runs the loop afresh on the later
arrivals (see :func:`replay`).

Three timing sources:

``timing="measured"``
    The engine call (handle construction plus drain, or one slice) is
    wall-clocked and that duration is charged to the virtual clock -- an
    offline load test of the real engine, which is what the serve
    benchmark records.
``timing="modeled"``
    Service time comes from :func:`modeled_service_ms` (per batch) or
    :func:`modeled_slice_ms` (per slice), deterministic linear models;
    the entire drain (batches, timestamps, telemetry) becomes a pure
    function of the trace and the configuration.  The two models charge
    the same per-task and per-anti-diagonal rates, and continuous mode
    pays the dispatch overhead once per busy period (the stream behaves
    like a persistent kernel), so makespan differences between the modes
    come from scheduling, not from inconsistent accounting.
``service_time=...``
    An injectable override (tests use constants): called per batch in
    drain mode, per slice (with the live tasks) in continuous mode.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.align.streaming import InFlightBatch, SliceStats
from repro.align.vector import DEFAULT_SLICE_WIDTH
from repro.align.types import AlignmentResult, AlignmentTask
from repro.serve.config import ServeConfig
from repro.serve.faults import ShardFaults
from repro.serve.loadgen import RequestTrace
from repro.serve.queueing import MicroBatcher, ServeRequest
from repro.serve.telemetry import TelemetrySink

__all__ = ["ServeReport", "modeled_service_ms", "modeled_slice_ms", "replay"]

_INF = float("inf")
_T = TypeVar("_T")

#: Signature of an injectable service-time model: batch tasks -> ms.
ServiceTime = Callable[[Sequence[AlignmentTask]], float]


def modeled_service_ms(tasks: Sequence[AlignmentTask], config: ServeConfig) -> float:
    """Deterministic service time of one batch under ``config``'s model.

    A fixed dispatch overhead, a per-task cost, and a per-anti-diagonal
    cost charged once on the *longest* task -- tasks of one batch sweep
    together, so the sweep length is the batch maximum.  The shape
    mirrors why micro-batching wins: overhead and sweep cost amortise
    over the batch, only the per-task term scales.
    """
    if not tasks:
        return 0.0
    longest = max(task.num_antidiagonals for task in tasks)
    return (
        config.model_overhead_ms
        + config.model_task_us * len(tasks) / 1000.0
        + config.model_antidiag_us * longest / 1000.0
    )


def modeled_slice_ms(
    config: ServeConfig,
    *,
    slice_width: int,
    admitted: int,
    busy_start: bool,
) -> float:
    """Deterministic service time of one streaming slice.

    The same rates as :func:`modeled_service_ms`, charged per slice: the
    sweep term covers ``slice_width`` anti-diagonals, the per-task term
    is paid once per *admission* (setup of a lane), and the dispatch
    overhead only at a busy-period start -- a continuously-refilled
    stream is a persistent kernel, so total modeled work over a busy
    period matches the drain model and any makespan/latency difference
    comes from scheduling.
    """
    return (
        (config.model_overhead_ms if busy_start else 0.0)
        + config.model_task_us * admitted / 1000.0
        + config.model_antidiag_us * slice_width / 1000.0
    )


@dataclass(frozen=True)
class ServeReport:
    """Outcome of one drain: stamped requests, makespan and telemetry."""

    policy: str
    workload: str
    config: ServeConfig
    requests: Tuple[ServeRequest, ...]
    makespan_ms: float
    telemetry: Dict[str, object]

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
        """Alignment results in submission (request-id) order."""
        out: List[AlignmentResult] = []
        for request in self.requests:
            if request.result is None:
                raise ValueError(f"request {request.request_id} has no result")
            out.append(request.result)
        return out

    def scores(self) -> List[int]:
        return [result.score for result in self.results()]


def replay(
    trace: RequestTrace,
    config: Optional[ServeConfig] = None,
    *,
    policy: Optional[str] = None,
    service_time: Optional[ServiceTime] = None,
    sink: Optional[TelemetrySink] = None,
    faults: Optional[ShardFaults] = None,
) -> ServeReport:
    """Drain ``trace`` through the service policy on a virtual clock.

    ``service_time`` overrides the timing mode with an arbitrary model
    (tests use constants); it is called per batch under drain-then-form
    and per slice (with the tasks live during that slice) under
    continuous refill.  Otherwise ``config.timing`` picks measured or
    modeled durations.  ``sink`` lets a caller keep the raw telemetry
    samples (:func:`repro.serve.cluster.cluster_replay` passes one per
    shard and merges them); the report's ``telemetry`` summary is taken
    from it either way.  ``faults`` injects a deterministic
    :class:`~repro.serve.faults.ShardFaults` view into the event loop --
    stalls push dispatch times, dropped dispatches restore their batch to
    the queue, duplicated dispatches charge the worker twice, and a crash
    at ``faults.crash_ms`` kills the worker.  The dying worker serves
    the arrivals before the crash and delivers a request iff it
    completes by ``crash_ms``; every other pre-crash arrival keeps
    ``completion_ms is None`` (the stranded work ``cluster_replay``
    re-routes).  A replacement worker starts idle at ``crash_ms``, with
    fresh state and ``faults.after(crash_ms)``, and serves the arrivals
    from the crash on.  Results are bit-identical to scoring the trace's
    tasks directly with the configured engine -- neither batching,
    refill nor fault timing ever changes the arithmetic.
    """
    config = config or ServeConfig()
    faults = faults if faults is not None else ShardFaults()
    if config.resolved_refill() == "continuous" and (faults.drops or faults.duplicates):
        raise ValueError(
            "drop/duplicate faults address drain-mode batch dispatches; "
            "continuous refill has no discrete dispatch stream to index "
            "(use delay faults, or refill='drain')"
        )
    requests = trace.requests()
    arrivals = sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
    sink = sink if sink is not None else TelemetrySink()
    crash_ms = faults.crash_ms if faults.crash_ms is not None else _INF
    before = [r for r in arrivals if r.arrival_ms < crash_ms]
    _event_loop(before, config, faults, crash_ms, sink, service_time)
    # The replacement worker: idle from the crash on, with fresh state.
    after = arrivals[len(before):]
    _event_loop(after, config, faults.after(crash_ms), _INF, sink, service_time)
    return ServeReport(
        policy=policy if policy is not None else config.policy_name,
        workload=trace.name,
        config=config,
        requests=tuple(requests),
        makespan_ms=max(
            (r.completion_ms for r in requests if r.completion_ms is not None),
            default=0.0,
        ),
        telemetry=sink.summary(),
    )


def _event_loop(
    arrivals: Sequence[ServeRequest],
    config: ServeConfig,
    faults: ShardFaults,
    until: float,
    sink: TelemetrySink,
    service_time: Optional[ServiceTime],
) -> None:
    """One worker's drain of ``arrivals`` (sorted by arrival time).

    Stamps the requests it delivers in place.  The worker dies at
    virtual time ``until``: it dispatches a batch or starts a slice only
    before then, and delivers only what completes by then.
    """
    from repro.api.engines import open_batch

    if not arrivals:
        return
    # Stalls due from ``until`` on belong to the replacement worker.
    stalls = [stall for stall in faults.stalls if stall[0] < until]
    options = config.engine_options()
    stream: Optional[InFlightBatch] = None
    if config.resolved_refill() == "continuous":
        stream = open_batch(
            (), engine=config.engine, options=options, capacity=config.max_batch_size
        )
    slice_width = (
        options.slice_width if options.slice_width is not None else DEFAULT_SLICE_WIDTH
    )
    queue = deque(arrivals)
    batcher = MicroBatcher(
        config.max_batch_size, config.max_wait_ms, length_aware=config.length_aware
    )
    workers = [0.0] * config.workers  # busy-until times (drain-then-form)
    inflight: Dict[int, ServeRequest] = {}  # stream lane -> request (continuous)
    stall_idx = 0
    dispatch_index = 0
    now = 0.0

    def admit_until(limit_ms: float) -> None:
        while queue and queue[0].arrival_ms <= limit_ms:
            batcher.add(queue.popleft())
            sink.record_queue_depth(len(batcher))

    def stalled(at_ms: float) -> Tuple[float, int]:
        """Time ``at_ms`` becomes after the stalls due by then, plus the
        stall cursor to commit *if* it is used (an earlier arrival may
        still preempt a dispatch, so application is non-destructive)."""
        cursor = stall_idx
        while cursor < len(stalls) and stalls[cursor][0] <= at_ms:
            at_ms = max(at_ms, stalls[cursor][0] + stalls[cursor][1])
            cursor += 1
        return at_ms, cursor

    def charge(
        run: Callable[[], _T], tasks: Sequence[AlignmentTask], modeled_ms: float
    ) -> Tuple[_T, float]:
        """Run one engine call and return its output and service time."""
        started = time.perf_counter()
        out = run()
        if service_time is not None:
            duration = float(service_time(tasks))
        elif config.timing == "modeled":
            duration = modeled_ms
        else:
            duration = (time.perf_counter() - started) * 1000.0
        if duration < 0:
            raise ValueError("service time must be non-negative")
        return out, duration

    def drain_batch(
        tasks: List[AlignmentTask],
    ) -> Tuple[List[AlignmentResult], Sequence[SliceStats]]:
        handle = open_batch(
            tasks,
            engine=config.engine,
            options=options,
            capacity=max(config.max_batch_size, len(tasks)),
        )
        return handle.drain(), handle.stats

    while queue or len(batcher) or (stream is not None and stream.live):
        if stream is not None and stream.live:
            # Busy stream: freed lanes take pending requests at this slice
            # boundary, priority classes first.
            batch = batcher.take(stream.free, now)
            busy_start = False
            if batch:
                sink.record_refill(len(batch))
                sink.record_queue_depth(len(batcher))
        else:
            next_arrival = queue[0].arrival_ms if queue else _INF
            if not len(batcher):
                now = max(now, next_arrival)
                admit_until(now)
                continue
            # Idle server: cut when a full batch is pending or the oldest
            # request's deadline falls due, once the earliest server frees.
            deadline = batcher.next_deadline_ms()
            assert deadline is not None
            ready = now if batcher.size_ready() else deadline
            free_at = min(workers) if stream is None else now
            dispatch_at, stall_cursor = stalled(max(ready, free_at))
            if next_arrival < dispatch_at:
                # An arrival precedes the would-be dispatch and may fill the
                # batch (or become its length-mate); admit it first.
                now = next_arrival
                admit_until(now)
                continue
            if dispatch_at >= until:
                break  # the worker dies before this dispatch
            now = max(now, dispatch_at)
            sink.record_fault("delays", stall_cursor - stall_idx)
            stall_idx = stall_cursor
            batch = batcher.form_batch(now)
            sink.record_queue_depth(len(batcher))  # dispatched requests left the queue
            this_dispatch = dispatch_index
            dispatch_index += 1
            if this_dispatch in faults.drops:
                # The send was lost before reaching the worker: the batch
                # returns to the queue and goes out on a later dispatch.
                sink.record_fault("dropped")
                batcher.restore(batch)
                sink.record_queue_depth(len(batcher))
                continue
            sink.record_batch(len(batch))
            busy_start = True

        completed: List[Tuple[ServeRequest, AlignmentResult]]
        if stream is None:
            # Drain-then-form: the batch runs to completion on one worker.
            tasks = [request.task for request in batch]
            (results, stats), duration = charge(
                lambda: drain_batch(tasks), tasks, modeled_service_ms(tasks, config)
            )
            if len(results) != len(batch):
                raise ValueError(
                    f"engine {config.engine!r} returned {len(results)} results "
                    f"for a batch of {len(batch)} tasks"
                )
            slot = workers.index(free_at)
            if this_dispatch in faults.duplicates:
                # Delivered twice: the worker serves both copies (the slot
                # stays busy for two service times) but results are stamped
                # once, at the first copy's completion.
                sink.record_fault("duplicated")
                workers[slot] = now + 2 * duration
            else:
                workers[slot] = now + duration
            completion = now + duration
            completed = list(zip(batch, results))
        else:
            # Continuous refill: the stream advances one slice.
            for index, request in zip(stream.admit([r.task for r in batch]), batch):
                inflight[index] = request
                request.batch_occupancy = stream.live
            live_tasks = [inflight[index].task for index in sorted(inflight)]
            stats, duration = charge(
                stream.step,  # one slice
                live_tasks,
                modeled_slice_ms(
                    config,
                    slice_width=slice_width,
                    admitted=len(batch),
                    busy_start=busy_start,
                ),
            )
            # A stall crossed while the slice ran pushes its boundary: the
            # device pauses mid-slice, completions land after the stall.
            now, stall_cursor = stalled(now + duration)
            sink.record_fault("delays", stall_cursor - stall_idx)
            stall_idx = stall_cursor
            completion = now
            completed = [
                (inflight.pop(index), result) for index, result in stream.take_completed()
            ]
        for stat in stats:
            sink.record_slice(stat)
        if completion <= until:  # work finishing after the crash is lost
            for request, result in completed:
                request.result = result
                request.completion_ms = completion
                sink.record_request(request.wait_ms, request.latency_ms)
        if stream is not None:
            if now >= until:
                break  # the worker died during this slice
            admit_until(now)  # arrivals during the slice meet its boundary
