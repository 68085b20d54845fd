"""Request queue and micro-batch formation policy.

:class:`MicroBatcher` is the *pure* scheduling policy shared by the
virtual-clock replay (:func:`repro.serve.scheduler.replay`) and the live
threaded service (:class:`repro.serve.service.AlignmentService`).  It
holds pending :class:`ServeRequest` objects in arrival order and answers
two questions:

* **when** to cut a batch -- as soon as ``max_batch_size`` requests are
  pending, or once the oldest pending request has waited
  ``max_wait_ms`` (no request is ever held longer hoping for
  batch-mates); and
* **which** requests ride together -- the length-aware policy reuses
  :func:`repro.core.uneven_bucketing.length_bucket_order` over the
  pending requests' anti-diagonal counts, then dispatches the bucket
  containing the oldest request, so co-batched tasks have similar sweep
  lengths and engine-side padding stays cheap.  (This is the serving
  mirror of the vector engine's own bucketing; see DESIGN.md.)

Streaming engines add a third question -- **who refills** a lane freed
by compaction mid-sweep.  :meth:`MicroBatcher.take` answers it: remove
up to ``limit`` requests for immediate admission into an in-flight
batch, highest :attr:`ServeRequest.priority` class first and oldest
first within a class.  Length-aware grouping deliberately does not
apply to refill -- a freed lane takes whatever is oldest/most urgent,
exactly like the paper's subwarp rejoining takes the next task
regardless of length.  :meth:`MicroBatcher.preempt` is the matching
preemption hook: pull chosen requests back out of the queue (to
re-prioritise, reject under overload, or hand to another server).

Because the policy object never touches clocks, threads or engines, the
replay and the live service form *identical* batches for identical
arrival sequences.

The sharded cluster (:mod:`repro.serve.cluster`) adds a fourth question
-- **whether** a request is admitted at all.  :class:`AdmissionController`
is the bounded-admission policy: a per-shard pending budget
(``max_pending``, counted over queued *and* in-flight requests) plus
optional per-priority-class limits, resolved under one of three overload
policies -- ``"queue"`` (block the submitter: explicit backpressure),
``"reject"`` (fail the arrival with :class:`RequestRejected`), or
``"shed"`` (evict the youngest strictly-lower-priority queued request to
make room).  Like the batcher it is pure -- no clocks, no locks -- so
the same decisions are unit-testable and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.align.types import AlignmentResult, AlignmentTask
from repro.core.uneven_bucketing import length_bucket_order

__all__ = [
    "ServeRequest",
    "MicroBatcher",
    "ADMISSION_POLICIES",
    "AdmissionDecision",
    "AdmissionController",
    "RequestRejected",
]

#: Overload policies of :class:`AdmissionController`: ``"queue"`` blocks
#: the submitter until space frees (backpressure), ``"reject"`` refuses
#: the arrival, ``"shed"`` evicts queued lower-priority work to admit it.
ADMISSION_POLICIES = ("queue", "reject", "shed")


class RequestRejected(RuntimeError):
    """An arrival was refused (or a queued request shed) under overload."""


@dataclass(eq=False)
class ServeRequest:
    """One align request travelling through the service.

    Timestamps are in service-clock milliseconds (virtual for replays,
    monotonic wall time for the live service); ``dispatch_ms`` /
    ``completion_ms`` / ``result`` are filled in as the request
    progresses.  Requests compare by identity (``eq=False``): two
    submissions of the same task are distinct requests.

    ``priority`` is the request's class (higher serves first); it only
    influences *refill* selection (:meth:`MicroBatcher.take`) -- batch
    formation stays strictly arrival-ordered so the ``max_wait_ms``
    deadline argument is unchanged.
    """

    task: AlignmentTask
    request_id: int
    arrival_ms: float = 0.0
    priority: int = 0
    dispatch_ms: Optional[float] = None
    completion_ms: Optional[float] = None
    batch_occupancy: int = 0
    result: Optional[AlignmentResult] = None

    @property
    def done(self) -> bool:
        return self.completion_ms is not None

    @property
    def wait_ms(self) -> float:
        """Queueing delay: time between arrival and batch dispatch."""
        if self.dispatch_ms is None:
            raise ValueError(f"request {self.request_id} was never dispatched")
        return self.dispatch_ms - self.arrival_ms

    @property
    def latency_ms(self) -> float:
        """End-to-end latency: time between arrival and completion."""
        if self.completion_ms is None:
            raise ValueError(f"request {self.request_id} never completed")
        return self.completion_ms - self.arrival_ms

    @property
    def workload(self) -> int:
        """Batch-formation workload estimate (anti-diagonal count)."""
        return self.task.num_antidiagonals


class MicroBatcher:
    """Pending-request queue plus the batch-formation policy.

    Requests must be added in arrival order (both drivers do); the
    oldest pending request is therefore always at the front, which is
    what makes :meth:`next_deadline_ms` O(1).
    """

    def __init__(
        self,
        max_batch_size: int,
        max_wait_ms: float,
        *,
        length_aware: bool = True,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        self.length_aware = bool(length_aware)
        self._pending: List[ServeRequest] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> Tuple[ServeRequest, ...]:
        """Snapshot of the queue (oldest first)."""
        return tuple(self._pending)

    def add(self, request: ServeRequest) -> None:
        """Enqueue one request (callers add in arrival order)."""
        self._pending.append(request)

    # ------------------------------------------------------------------
    # cut conditions
    # ------------------------------------------------------------------
    def size_ready(self) -> bool:
        """A full batch is pending."""
        return len(self._pending) >= self.max_batch_size

    def next_deadline_ms(self) -> Optional[float]:
        """Clock time at which the oldest pending request must dispatch."""
        if not self._pending:
            return None
        return self._pending[0].arrival_ms + self.max_wait_ms

    def ready(self, now_ms: float) -> bool:
        """Whether a batch should be cut at ``now_ms``."""
        if not self._pending:
            return False
        deadline = self.next_deadline_ms()
        assert deadline is not None
        return self.size_ready() or now_ms >= deadline

    # ------------------------------------------------------------------
    # batch selection
    # ------------------------------------------------------------------
    def form_batch(self, now_ms: float) -> List[ServeRequest]:
        """Cut and return the next batch (empty when nothing pends).

        The batch always contains the oldest pending request (the one
        whose deadline forced the cut).  With ``length_aware`` and more
        pending requests than fit, members are the oldest request's
        length bucket; otherwise the FIFO prefix.  Dispatch time and
        batch occupancy are stamped on every member.
        """
        if not self._pending:
            return []
        if self.length_aware and len(self._pending) > self.max_batch_size:
            workloads = [request.workload for request in self._pending]
            buckets = length_bucket_order(workloads, self.max_batch_size)
            chosen = next(bucket for bucket in buckets if 0 in bucket)
        else:
            chosen = list(range(min(len(self._pending), self.max_batch_size)))
        members = set(chosen)
        batch = [self._pending[index] for index in chosen]
        self._pending = [
            request
            for index, request in enumerate(self._pending)
            if index not in members
        ]
        for request in batch:
            request.dispatch_ms = now_ms
            request.batch_occupancy = len(batch)
        return batch

    # ------------------------------------------------------------------
    # streaming refill + preemption hooks
    # ------------------------------------------------------------------
    def take(self, limit: int, now_ms: float) -> List[ServeRequest]:
        """Remove up to ``limit`` requests for refill into an in-flight batch.

        Selection is by priority class (highest :attr:`ServeRequest.priority`
        first), oldest first within a class.  Length-aware grouping does not
        apply: a freed lane takes the most urgent pending request regardless
        of its sweep length (see the module docstring).  Dispatch time is
        stamped on every taken request; the caller stamps
        ``batch_occupancy`` once it knows the post-admission live count.
        """
        if limit <= 0 or not self._pending:
            return []
        order = sorted(
            range(len(self._pending)),
            key=lambda index: (-self._pending[index].priority, index),
        )
        members = set(order[: int(limit)])
        batch = [self._pending[index] for index in sorted(members)]
        self._pending = [
            request
            for index, request in enumerate(self._pending)
            if index not in members
        ]
        for request in batch:
            request.dispatch_ms = now_ms
        return batch

    def restore(self, requests: Sequence[ServeRequest]) -> None:
        """Return requests whose dispatch was revoked to the queue.

        The inverse of :meth:`take`/:meth:`form_batch` for the fault and
        resize paths: a dropped dispatch (:class:`repro.serve.faults.DropFault`)
        or a draining shard puts its requests back so they go out again
        later.  The queue re-sorts by ``(arrival_ms, request_id)``, so the
        oldest-request-at-front invariant behind :meth:`next_deadline_ms`
        survives out-of-order returns; stale ``dispatch_ms`` stamps are
        cleared (the next dispatch re-stamps them).
        """
        if not requests:
            return
        for request in requests:
            request.dispatch_ms = None
            self._pending.append(request)
        self._pending.sort(key=lambda request: (request.arrival_ms, request.request_id))

    def preempt(
        self, predicate: Callable[[ServeRequest], bool]
    ) -> List[ServeRequest]:
        """Remove and return every pending request matching ``predicate``.

        This is the scheduler-side preemption hook: under overload a
        driver can pull low-priority requests back out of the queue to
        reject, re-prioritise, or hand to another server.  Requests keep
        their stamps; the remaining queue preserves arrival order (so
        :meth:`next_deadline_ms` stays O(1)).
        """
        taken = [request for request in self._pending if predicate(request)]
        if taken:
            kept = set(map(id, taken))
            self._pending = [
                request for request in self._pending if id(request) not in kept
            ]
        return taken


# ----------------------------------------------------------------------
# bounded admission
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.

    ``action`` is ``"accept"``, ``"reject"``, ``"wait"`` (backpressure:
    the caller should block until space frees and re-decide) or
    ``"shed"`` (accept the arrival after evicting ``victims`` -- queued
    requests of strictly lower priority -- from the queue, e.g. via
    :meth:`MicroBatcher.preempt`).
    """

    action: str
    victims: Tuple[ServeRequest, ...] = ()

    @property
    def admitted(self) -> bool:
        """Whether the arrival enters the queue (accept or shed)."""
        return self.action in ("accept", "shed")


@dataclass(frozen=True)
class AdmissionController:
    """Pure bounded-admission policy (reject / queue / shed).

    Parameters
    ----------
    max_pending:
        Per-queue budget counted over queued *and* in-flight requests
        (``None`` = unbounded).  In-flight work cannot be revoked, so
        only queued requests are ever shed.
    policy:
        What happens to an arrival that would exceed a limit -- one of
        :data:`ADMISSION_POLICIES`.
    class_limits:
        Optional per-priority-class budgets: ``{priority: limit}``.  A
        class at its limit rejects further arrivals of that class
        regardless of policy -- shedding can only evict *strictly lower*
        priority work, which never frees a slot of the arrival's own
        class, and queueing behind one's own class would invert the
        priority order.

    The controller is a frozen dataclass of plain values: deciding twice
    over the same queue snapshot yields the same decision, which is what
    lets the cluster replay and the live cluster agree.
    """

    max_pending: Optional[int] = None
    policy: str = "queue"
    class_limits: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"policy must be one of {ADMISSION_POLICIES}, got {self.policy!r}"
            )
        if self.max_pending is not None and self.max_pending <= 0:
            raise ValueError("max_pending must be positive when given")
        for priority, limit in self.class_limits.items():
            if limit <= 0:
                raise ValueError(
                    f"class limit for priority {priority} must be positive, got {limit}"
                )

    @property
    def bounded(self) -> bool:
        """Whether any limit is configured at all."""
        return self.max_pending is not None or bool(self.class_limits)

    def decide(
        self,
        request: ServeRequest,
        queued: Sequence[ServeRequest],
        inflight: Sequence[ServeRequest] = (),
    ) -> AdmissionDecision:
        """Decide ``request``'s fate against the current queue snapshot.

        ``queued`` are the sheddable pending requests (oldest first, the
        :attr:`MicroBatcher.pending` snapshot); ``inflight`` the
        dispatched-but-incomplete ones, which count against the budgets
        but can never be victims.
        """
        class_limit = self.class_limits.get(request.priority)
        if class_limit is not None:
            in_class = sum(
                1
                for other in (*queued, *inflight)
                if other.priority == request.priority
            )
            if in_class >= class_limit:
                # A class at its own limit cannot be shed around (see the
                # class docstring), and waiting behind one's own class
                # would invert priority order -- so this is always a
                # rejection, even under policy="queue"/"shed".
                return AdmissionDecision(action="reject")
        if self.max_pending is None:
            return AdmissionDecision(action="accept")
        total = len(queued) + len(inflight)
        if total < self.max_pending:
            return AdmissionDecision(action="accept")
        if self.policy == "reject":
            return AdmissionDecision(action="reject")
        if self.policy == "queue":
            return AdmissionDecision(action="wait")
        # policy == "shed": evict the lowest-priority, youngest queued
        # request -- but only if it is *strictly* below the arrival
        # (shedding a peer to admit a peer gains nothing).
        victim: Optional[ServeRequest] = None
        for candidate in queued:  # oldest first; later = younger wins ties
            if candidate.priority >= request.priority:
                continue
            if victim is None or candidate.priority <= victim.priority:
                victim = candidate
        if victim is None:
            return AdmissionDecision(action="reject")
        return AdmissionDecision(action="shed", victims=(victim,))
