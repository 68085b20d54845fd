"""The live micro-batching alignment service (real threads, futures).

:class:`AlignmentService` is the online counterpart of
:func:`repro.serve.scheduler.replay`: the same
:class:`~repro.serve.queueing.MicroBatcher` policy, but driven by a real
scheduler thread over a monotonic wall clock.  ``submit(task)`` returns
a :class:`concurrent.futures.Future` immediately; the scheduler cuts
batches when the queue fills or the oldest request's ``max_wait_ms``
expires, executes them through the configured :mod:`repro.api` engine,
and fans each result back to its request's future.

With ``workers > 1`` batch execution is sharded over a
:class:`~concurrent.futures.ThreadPoolExecutor` (mirroring how
:mod:`repro.bench.runner` shards figure cells over a pool): the
scheduler thread keeps forming batches while earlier batches are still
being scored.  Threads are the right pool here -- the engines spend
their time in NumPy kernels that release the GIL, and tasks must not be
pickled per request.

Both refill modes run in one scheduler loop, the live mirror of
:func:`~repro.serve.scheduler.replay`'s event loop.  Under
drain-then-form a cut batch runs to completion through the same
``open_batch(...).drain()`` call the replay makes, so the engine gets
the configured options and every engine slice reaches the telemetry.
When the configuration resolves to continuous refill
(``config.resolved_refill() == "continuous"``, the default for
streaming engines such as ``"vector"``), the loop instead keeps one
:class:`repro.api.InFlightBatch` open, runs it slice by slice, and
admits newly submitted tasks into lanes freed by compaction at every
slice boundary (:meth:`MicroBatcher.take`).  The ``max_wait_ms``
contract is unchanged: an idle stream dispatches under the normal cut
conditions, and a busy stream admits pending requests at the very next
boundary, which can only shorten waits.

Exactness: a served task's result is bit-identical to scoring it with
:meth:`repro.api.Session.align` -- the service only decides *when* and
*with whom* a task is scored, never *how*.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.align.streaming import InFlightBatch, SliceStats
from repro.align.types import AlignmentResult, AlignmentTask
from repro.serve.config import ServeConfig
from repro.serve.queueing import MicroBatcher, ServeRequest
from repro.serve.telemetry import TelemetrySink

__all__ = ["AlignmentService"]


class AlignmentService:
    """Online alignment service: queue in single tasks, serve batches.

    Usable as a context manager (the idiomatic form)::

        with Session(dataset="ONT-HG002").serve(max_wait_ms=2.0) as svc:
            futures = [svc.submit(task) for task in tasks]
            scores = [f.result().score for f in futures]

    ``start()`` is implicit on first :meth:`submit`; :meth:`shutdown`
    drains every pending request before returning (no request is ever
    dropped), then stops the scheduler thread and the worker pool.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self._refill = self.config.resolved_refill()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._batcher = MicroBatcher(
            self.config.max_batch_size,
            self.config.max_wait_ms,
            length_aware=self.config.length_aware,
        )
        self._futures: Dict[int, "Future[AlignmentResult]"] = {}
        self._next_id = 0
        self._epoch = time.monotonic()
        self._scheduler: Optional[threading.Thread] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._stopping = False
        self._closed = False
        self.telemetry = TelemetrySink()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AlignmentService":
        """Start the scheduler thread (idempotent)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("service has been shut down")
            if self._scheduler is None:
                if self.config.workers > 1:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.config.workers,
                        thread_name_prefix="repro-serve-worker",
                    )
                self._scheduler = threading.Thread(
                    target=self._scheduler_loop, name="repro-serve-scheduler", daemon=True
                )
                self._scheduler.start()
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Drain pending requests, then stop the scheduler and pool.

        ``wait=False`` skips waiting for in-flight *batch executions*,
        but the scheduler thread is always joined first: it only cuts
        the final batches and exits, and joining it guarantees every
        pending request reaches an executor before the pool stops
        accepting work (no request is ever stranded on an unresolved
        future).
        """
        with self._wakeup:
            self._stopping = True
            self._closed = True
            self._wakeup.notify_all()
            scheduler = self._scheduler
        if scheduler is not None:
            scheduler.join()
        if self._pool is not None:
            self._pool.shutdown(wait=wait)

    def __enter__(self) -> "AlignmentService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _now_ms(self) -> float:
        return (time.monotonic() - self._epoch) * 1000.0

    def submit(self, task: AlignmentTask) -> "Future[AlignmentResult]":
        """Enqueue one task; the returned future resolves to its result."""
        self.start()
        future: "Future[AlignmentResult]" = Future()
        with self._wakeup:
            if self._stopping:
                raise RuntimeError("service is shutting down")
            request = ServeRequest(
                task=task, request_id=self._next_id, arrival_ms=self._now_ms()
            )
            self._next_id += 1
            self._batcher.add(request)
            self._futures[request.request_id] = future
            self.telemetry.record_queue_depth(len(self._batcher))
            self._wakeup.notify_all()
        return future

    def map(self, tasks: Sequence[AlignmentTask]) -> List[AlignmentResult]:
        """Submit every task and gather results in submission order."""
        futures = [self.submit(task) for task in tasks]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # scheduler thread
    # ------------------------------------------------------------------
    def _scheduler_loop(self) -> None:
        """Cut batches (or refill a busy stream's free lanes) and run them.

        The stream serialises execution, so under continuous refill this
        thread steps it itself; there is nothing for a pool to overlap.
        """
        from repro.api.engines import open_batch

        stream: Optional[InFlightBatch] = None
        if self._refill == "continuous":
            stream = open_batch(
                (),
                engine=self.config.engine,
                options=self.config.engine_options(),
                capacity=self.config.max_batch_size,
            )
        inflight: Dict[int, Tuple[ServeRequest, "Future[AlignmentResult]"]] = {}
        while True:
            with self._wakeup:
                while True:
                    now = self._now_ms()
                    if stream is not None and stream.live:
                        # Busy stream: refill free lanes immediately.
                        batch = self._batcher.take(stream.free, now)
                        break
                    if len(self._batcher) and (
                        self._stopping or self._batcher.ready(now)
                    ):
                        batch = self._batcher.form_batch(now)
                        break
                    if self._stopping and not len(self._batcher):
                        return
                    deadline = self._batcher.next_deadline_ms()
                    timeout = (
                        None if deadline is None else max(deadline - now, 0.0) / 1000.0
                    )
                    self._wakeup.wait(timeout)
                futures = [self._futures.pop(r.request_id) for r in batch]
                if batch:
                    if stream is not None and stream.live:
                        self.telemetry.record_refill(len(batch))
                    else:
                        self.telemetry.record_batch(len(batch))
                    # Dispatched requests left the queue: sample the depth
                    # so backpressure telemetry sees them as dequeued now,
                    # not at batch completion.
                    self.telemetry.record_queue_depth(len(self._batcher))
            if stream is None:
                if self._pool is not None:
                    self._pool.submit(self._execute, batch, futures)
                else:
                    self._execute(batch, futures)
                continue
            try:
                indices = stream.admit([request.task for request in batch])
                for index, request, future in zip(indices, batch, futures):
                    inflight[index] = (request, future)
                    request.batch_occupancy = stream.live
                stats = stream.step(1)
                completed = [
                    (*inflight.pop(index), result)
                    for index, result in stream.take_completed()
                ]
            except BaseException as exc:  # engine failure fans out, never hangs
                for future in [*futures, *(future for _, future in inflight.values())]:
                    if not future.done():
                        future.set_exception(exc)
                with self._wakeup:
                    self._stopping = True
                    self._closed = True
                    for request in self._batcher.preempt(lambda request: True):
                        self._futures.pop(request.request_id).set_exception(exc)
                return
            self._complete(stats, completed)

    def _execute(
        self,
        batch: List[ServeRequest],
        futures: List["Future[AlignmentResult]"],
    ) -> None:
        """Run one cut batch to completion (drain-then-form), exactly as
        :func:`repro.serve.scheduler.replay` does."""
        from repro.api.engines import open_batch

        tasks = [request.task for request in batch]
        try:
            handle = open_batch(
                tasks,
                engine=self.config.engine,
                options=self.config.engine_options(),
                capacity=max(self.config.max_batch_size, len(tasks)),
            )
            results = handle.drain()
            if len(results) != len(batch):
                # A broken custom engine must error, not strand futures.
                raise ValueError(
                    f"engine {self.config.engine!r} returned {len(results)} "
                    f"results for a batch of {len(batch)} tasks"
                )
        except BaseException as exc:  # engine failure fans out, never hangs
            for future in futures:
                future.set_exception(exc)
            return
        self._complete(handle.stats, list(zip(batch, futures, results)))

    def _complete(
        self,
        stats: Sequence[SliceStats],
        completed: Sequence[Tuple[ServeRequest, "Future[AlignmentResult]", AlignmentResult]],
    ) -> None:
        """Record the engine slices, stamp completions, resolve futures."""
        completion = self._now_ms()
        with self._lock:
            for stat in stats:
                self.telemetry.record_slice(stat)
            for request, _, result in completed:
                request.result = result
                request.completion_ms = completion
                self.telemetry.record_request(request.wait_ms, request.latency_ms)
        for _, future, result in completed:
            future.set_result(result)
