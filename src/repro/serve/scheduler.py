"""Virtual-clock replay of the micro-batching service.

:func:`replay` drains a :class:`~repro.serve.loadgen.RequestTrace`
through the :class:`~repro.serve.queueing.MicroBatcher` policy as a
discrete-event simulation: a virtual clock advances from arrival to
dispatch to completion, and every formed batch is executed **for real**
through the configured :mod:`repro.api` engine (results are the point of
serving; only *time* is simulated).

Two dispatch disciplines, selected by ``config.resolved_refill()``:

``"drain"`` (drain-then-form)
    The classic loop: ``config.workers`` parallel servers are modeled as
    a bank of busy-until times, a dispatched batch runs to completion,
    and only then is the queue looked at again.  Batches execute through
    a one-shot :class:`repro.api.InFlightBatch` handle (streaming
    engines still stream internally, but get no refill).
``"continuous"`` (continuous lane refill)
    One streaming handle stays open for the whole busy period.  The
    clock advances one engine *slice* at a time; at every slice boundary
    newly arrived requests are admitted into lanes freed by compaction
    (:meth:`MicroBatcher.take`, priority-ordered).  While the stream is
    idle the normal cut conditions apply unchanged, so the
    ``max_wait_ms`` contract is preserved -- refill admission can only
    shorten waits, never lengthen them.

Three timing sources:

``timing="measured"``
    The engine call (one drained batch, or one slice) is wall-clocked
    and that duration is charged to the virtual clock -- an offline load
    test of the real engine, which is what the serve benchmark records.
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

The drain event loop has one rule worth stating: a batch is dispatched
at ``t = max(worker-free time, ready time)`` where ready is "queue
reached ``max_batch_size``" or "oldest pending request hit its deadline"
-- unless an earlier arrival would change the picture, in which case the
clock advances to that arrival first.  Ties (an arrival at exactly the
dispatch time) resolve in favour of dispatching, so a request never
waits on a same-instant arrival.  The continuous loop inherits the same
rule for dispatches into an idle stream.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.align.vector import DEFAULT_SLICE_WIDTH
from repro.align.types import AlignmentResult, AlignmentTask
from repro.serve.config import ServeConfig
from repro.serve.faults import ShardFaults
from repro.serve.loadgen import RequestTrace
from repro.serve.queueing import MicroBatcher, ServeRequest
from repro.serve.telemetry import TelemetrySink

__all__ = ["ServeReport", "modeled_service_ms", "modeled_slice_ms", "replay"]

_INF = float("inf")

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
    the queue, duplicated dispatches charge the worker twice (crash
    faults live one level up, in ``cluster_replay``).  Results are
    bit-identical to scoring the trace's tasks directly with the
    configured engine -- neither batching, refill nor fault timing ever
    changes the arithmetic.
    """
    config = config or ServeConfig()
    if config.resolved_refill() == "continuous":
        if faults is not None and (faults.drops or faults.duplicates):
            raise ValueError(
                "drop/duplicate faults address drain-mode batch dispatches; "
                "continuous refill has no discrete dispatch stream to index "
                "(use delay faults, or refill='drain')"
            )
        return _replay_continuous(
            trace, config, policy=policy, service_time=service_time, sink=sink,
            faults=faults,
        )
    return _replay_drain(
        trace, config, policy=policy, service_time=service_time, sink=sink,
        faults=faults,
    )


# ----------------------------------------------------------------------
# drain-then-form
# ----------------------------------------------------------------------
def _replay_drain(
    trace: RequestTrace,
    config: ServeConfig,
    *,
    policy: Optional[str],
    service_time: Optional[ServiceTime],
    sink: Optional[TelemetrySink] = None,
    faults: Optional[ShardFaults] = None,
) -> ServeReport:
    from repro.api.engines import open_batch

    options = config.engine_options()
    requests = trace.requests()
    queue = deque(sorted(requests, key=lambda r: (r.arrival_ms, r.request_id)))
    batcher = MicroBatcher(
        config.max_batch_size, config.max_wait_ms, length_aware=config.length_aware
    )
    workers = [0.0] * config.workers
    sink = sink if sink is not None else TelemetrySink()
    stalls = faults.stalls if faults is not None else ()
    drops = faults.drops if faults is not None else frozenset()
    duplicates = faults.duplicates if faults is not None else frozenset()
    stall_idx = 0
    dispatch_index = 0
    now = 0.0
    makespan_end = 0.0

    def stalled(at_ms: float) -> Tuple[float, int]:
        """Dispatch time after stalls due by ``at_ms``, plus the stall
        cursor to commit *if* the dispatch happens (an earlier arrival may
        still preempt it, so application is non-destructive)."""
        cursor = stall_idx
        while cursor < len(stalls) and stalls[cursor][0] <= at_ms:
            at_ms = max(at_ms, stalls[cursor][0] + stalls[cursor][1])
            cursor += 1
        return at_ms, cursor

    def admit_until(limit_ms: float) -> None:
        while queue and queue[0].arrival_ms <= limit_ms:
            batcher.add(queue.popleft())
            sink.record_queue_depth(len(batcher))

    def execute(tasks: Sequence[AlignmentTask]) -> Tuple[List[AlignmentResult], float]:
        capacity = max(config.max_batch_size, len(tasks))
        if service_time is not None:
            handle = open_batch(
                tasks, engine=config.engine, options=options, capacity=capacity
            )
            results = handle.drain()
            duration = float(service_time(tasks))
        elif config.timing == "modeled":
            handle = open_batch(
                tasks, engine=config.engine, options=options, capacity=capacity
            )
            results = handle.drain()
            duration = modeled_service_ms(tasks, config)
        else:
            started = time.perf_counter()
            handle = open_batch(
                tasks, engine=config.engine, options=options, capacity=capacity
            )
            results = handle.drain()
            duration = (time.perf_counter() - started) * 1000.0
        for stat in handle.stats:
            sink.record_slice(stat)
        return results, duration

    while queue or len(batcher):
        next_arrival = queue[0].arrival_ms if queue else _INF
        if not len(batcher):
            now = max(now, next_arrival)
            admit_until(now)
            continue
        free_at = min(workers)
        if batcher.size_ready():
            dispatch_at = max(now, free_at)
        else:
            deadline = batcher.next_deadline_ms()
            assert deadline is not None
            dispatch_at = max(deadline, free_at)
        dispatch_at, stall_cursor = stalled(dispatch_at)
        if next_arrival < dispatch_at:
            # An arrival precedes the would-be dispatch and may fill the
            # batch (or become its length-mate); admit it first.
            now = next_arrival
            admit_until(now)
            continue
        now = max(now, dispatch_at)
        for _ in range(stall_cursor - stall_idx):
            sink.record_fault("delays")
        stall_idx = stall_cursor
        batch = batcher.form_batch(now)
        sink.record_queue_depth(len(batcher))  # dispatched requests left the queue
        this_dispatch = dispatch_index
        dispatch_index += 1
        if this_dispatch in drops:
            # The send was lost before reaching the worker: the batch
            # returns to the queue and goes out on a later dispatch.
            sink.record_fault("dropped")
            batcher.restore(batch)
            sink.record_queue_depth(len(batcher))
            continue
        tasks = [request.task for request in batch]
        results, duration = execute(tasks)
        if len(results) != len(batch):
            raise ValueError(
                f"engine {config.engine!r} returned {len(results)} results "
                f"for a batch of {len(batch)} tasks"
            )
        if duration < 0:
            raise ValueError("service time must be non-negative")
        slot = workers.index(free_at)
        if this_dispatch in duplicates:
            # Delivered twice: the worker serves both copies (the slot
            # stays busy for two service times) but results are stamped
            # once, at the first copy's completion.
            sink.record_fault("duplicated")
            workers[slot] = now + 2 * duration
        else:
            workers[slot] = now + duration
        completion = now + duration
        makespan_end = max(makespan_end, completion)
        sink.record_batch(len(batch))
        for request, result in zip(batch, results):
            request.result = result
            request.completion_ms = completion
            sink.record_request(request.wait_ms, request.latency_ms)

    return ServeReport(
        policy=policy if policy is not None else config.policy_name,
        workload=trace.name,
        config=config,
        requests=tuple(requests),
        makespan_ms=makespan_end,
        telemetry=sink.summary(),
    )


# ----------------------------------------------------------------------
# continuous lane refill
# ----------------------------------------------------------------------
def _replay_continuous(
    trace: RequestTrace,
    config: ServeConfig,
    *,
    policy: Optional[str],
    service_time: Optional[ServiceTime],
    sink: Optional[TelemetrySink] = None,
    faults: Optional[ShardFaults] = None,
) -> ServeReport:
    """One streaming handle, refilled at every slice boundary.

    Models a single device whose lane capacity is ``max_batch_size``
    (``config.workers`` is a drain-mode knob).  The invariant split:

    * stream **idle** -- the normal cut conditions decide when to
      dispatch, exactly like drain mode, so ``max_wait_ms`` holds;
    * stream **busy** -- refill is free: every pending request is
      admitted into a free lane at the very next slice boundary,
      priority classes first (length-aware grouping never delays
      refill).
    """
    from repro.api.engines import open_batch

    options = config.engine_options()
    slice_width = (
        options.slice_width if options.slice_width is not None else DEFAULT_SLICE_WIDTH
    )
    stream = open_batch(
        (), engine=config.engine, options=options, capacity=config.max_batch_size
    )
    requests = trace.requests()
    queue = deque(sorted(requests, key=lambda r: (r.arrival_ms, r.request_id)))
    batcher = MicroBatcher(
        config.max_batch_size, config.max_wait_ms, length_aware=config.length_aware
    )
    sink = sink if sink is not None else TelemetrySink()
    inflight: Dict[int, ServeRequest] = {}
    stalls = faults.stalls if faults is not None else ()
    stall_idx = 0
    now = 0.0
    makespan_end = 0.0

    def admit_until(limit_ms: float) -> None:
        while queue and queue[0].arrival_ms <= limit_ms:
            batcher.add(queue.popleft())
            sink.record_queue_depth(len(batcher))

    def stalled(at_ms: float) -> Tuple[float, int]:
        """Non-destructive stall application (see ``_replay_drain``)."""
        cursor = stall_idx
        while cursor < len(stalls) and stalls[cursor][0] <= at_ms:
            at_ms = max(at_ms, stalls[cursor][0] + stalls[cursor][1])
            cursor += 1
        return at_ms, cursor

    def admit_to_stream(batch: List[ServeRequest]) -> None:
        indices = stream.admit([request.task for request in batch])
        for index, request in zip(indices, batch):
            inflight[index] = request

    while queue or len(batcher) or stream.live:
        admit_until(now)
        busy_start = stream.live == 0
        admitted_now = 0
        if stream.live:
            # Refill: freed lanes take pending requests immediately.
            taken = batcher.take(stream.free, now) if stream.free else []
            if taken:
                admit_to_stream(taken)
                for request in taken:
                    request.batch_occupancy = stream.live
                admitted_now = len(taken)
                sink.record_refill(len(taken))
                sink.record_queue_depth(len(batcher))
        else:
            next_arrival = queue[0].arrival_ms if queue else _INF
            if not len(batcher):
                if not queue:
                    break
                now = max(now, next_arrival)
                continue
            if batcher.size_ready():
                dispatch_at = now
            else:
                deadline = batcher.next_deadline_ms()
                assert deadline is not None
                dispatch_at = max(deadline, now)
            dispatch_at, stall_cursor = stalled(dispatch_at)
            if next_arrival < dispatch_at:
                now = next_arrival
                continue
            now = max(now, dispatch_at)
            for _ in range(stall_cursor - stall_idx):
                sink.record_fault("delays")
            stall_idx = stall_cursor
            batch = batcher.form_batch(now)
            admit_to_stream(batch)
            admitted_now = len(batch)
            sink.record_batch(len(batch))
            sink.record_queue_depth(len(batcher))

        # One slice of the in-flight batch.
        live_tasks = [inflight[index].task for index in sorted(inflight)]
        if service_time is not None:
            stats = stream.step(1)
            duration = float(service_time(live_tasks))
        elif config.timing == "modeled":
            stats = stream.step(1)
            duration = modeled_slice_ms(
                config,
                slice_width=slice_width,
                admitted=admitted_now,
                busy_start=busy_start,
            )
        else:
            started = time.perf_counter()
            stats = stream.step(1)
            duration = (time.perf_counter() - started) * 1000.0
        if duration < 0:
            raise ValueError("service time must be non-negative")
        now += duration
        # A stall crossed while the slice ran pushes its boundary: the
        # device pauses mid-slice, completions land after the stall.
        while stall_idx < len(stalls) and stalls[stall_idx][0] <= now:
            now = max(now, stalls[stall_idx][0] + stalls[stall_idx][1])
            sink.record_fault("delays")
            stall_idx += 1
        for stat in stats:
            sink.record_slice(stat)
        for index, result in stream.take_completed():
            request = inflight.pop(index)
            request.result = result
            request.completion_ms = now
            makespan_end = max(makespan_end, now)
            sink.record_request(request.wait_ms, request.latency_ms)

    return ServeReport(
        policy=policy if policy is not None else config.policy_name,
        workload=trace.name,
        config=config,
        requests=tuple(requests),
        makespan_ms=makespan_end,
        telemetry=sink.summary(),
    )
