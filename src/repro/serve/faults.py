"""Deterministic fault injection for the sharded serving cluster.

Crash-robustness used to be testable only through the live chaos hook
(:meth:`repro.serve.cluster.ClusterService.fail_shard`), which places a
crash *somewhere* in real time -- good for smoke tests, useless for
pinning the retry / restart / re-route contracts bit-exactly.  A
:class:`FaultPlan` makes failure a first-class, replayable input: it
names which shard fails, when (virtual time for the replay DES, a
served-request count for the live worker loop), and which dispatches are
delayed, dropped, or duplicated -- so chaos tests run the *same* failure
on every run and assert exact outcomes.

Four fault kinds:

:class:`CrashFault`
    The worker of one shard dies abruptly (``os._exit`` live, an event
    at ``at_ms`` in the shard's :func:`~repro.serve.scheduler.replay`).
    Everything queued or in flight on the shard is stranded and follows
    the normal crash contract: re-routed onto survivors under
    ``ClusterConfig(retry_failed=True)``, failed fast with
    :class:`~repro.serve.cluster.ShardFailedError` otherwise.
:class:`DelayFault`
    The shard stalls for ``delay_ms`` -- a GC pause / noisy-neighbour
    model.  In replay the stall pushes every dispatch at or after
    ``at_ms``; live the worker sleeps before serving its
    ``after_requests``-th message.
:class:`DropFault`
    One dispatch from the front-end to the shard is lost.  The requests
    of the dropped dispatch return to the parent-side queue
    (:meth:`~repro.serve.queueing.MicroBatcher.restore`) and go out again
    on a later dispatch -- a lost send is latency, never silent loss.
:class:`DuplicateFault`
    One dispatch is delivered twice.  The shard serves the work twice
    (the duplicate costs real service time) but the result is delivered
    once -- duplicate delivery must never double-resolve a future or
    double-count a result.

Triggers: ``at_ms`` addresses the replay's virtual clock, and
``after_requests`` (1-based served-message count) addresses the live
worker loop; each layer honours its own trigger and ignores the other.
Drop/duplicate faults address the *dispatch stream* of a shard by
0-based index -- batch dispatches in the replay DES, per-request sends
of the live cluster loop -- so the two layers interpret the same plan at
their own granularity.

:class:`ShardFaults` is the per-shard view :func:`repro.serve.scheduler.replay`
consumes: the cluster slices a plan into one view per shard and threads
it through each shard's drain, crash included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

__all__ = [
    "CrashFault",
    "DelayFault",
    "DropFault",
    "DuplicateFault",
    "FaultPlan",
    "ShardFaults",
]


def _check_shard(shard: int) -> None:
    if shard < 0:
        raise ValueError(f"fault shard must be non-negative, got {shard}")


def _check_trigger(at_ms: Optional[float], after_requests: Optional[int]) -> None:
    if at_ms is None and after_requests is None:
        raise ValueError(
            "a crash/delay fault needs a trigger: at_ms (replay virtual time) "
            "and/or after_requests (live served-request count)"
        )
    if at_ms is not None and at_ms < 0:
        raise ValueError(f"at_ms must be non-negative, got {at_ms}")
    if after_requests is not None and after_requests < 1:
        raise ValueError(f"after_requests must be >= 1, got {after_requests}")


@dataclass(frozen=True)
class CrashFault:
    """Kill one shard's worker: at virtual ``at_ms`` (replay) and/or
    right before it would serve its ``after_requests``-th message (live)."""

    shard: int
    at_ms: Optional[float] = None
    after_requests: Optional[int] = None

    def __post_init__(self) -> None:
        _check_shard(self.shard)
        _check_trigger(self.at_ms, self.after_requests)


@dataclass(frozen=True)
class DelayFault:
    """Stall one shard for ``delay_ms`` at ``at_ms`` (replay) and/or
    before serving its ``after_requests``-th message (live)."""

    shard: int
    delay_ms: float
    at_ms: Optional[float] = None
    after_requests: Optional[int] = None

    def __post_init__(self) -> None:
        _check_shard(self.shard)
        _check_trigger(self.at_ms, self.after_requests)
        if self.delay_ms <= 0:
            raise ValueError(f"delay_ms must be positive, got {self.delay_ms}")


@dataclass(frozen=True)
class DropFault:
    """Lose the ``dispatch``-th (0-based) send to ``shard``; its requests
    are restored to the queue and re-dispatched later."""

    shard: int
    dispatch: int

    def __post_init__(self) -> None:
        _check_shard(self.shard)
        if self.dispatch < 0:
            raise ValueError(f"dispatch index must be non-negative, got {self.dispatch}")


@dataclass(frozen=True)
class DuplicateFault:
    """Deliver the ``dispatch``-th (0-based) send to ``shard`` twice; the
    duplicate costs service time but its result is delivered once."""

    shard: int
    dispatch: int

    def __post_init__(self) -> None:
        _check_shard(self.shard)
        if self.dispatch < 0:
            raise ValueError(f"dispatch index must be non-negative, got {self.dispatch}")


@dataclass(frozen=True)
class ShardFaults:
    """One shard's slice of a :class:`FaultPlan`, as the scheduler sees it.

    ``stalls`` are ``(at_ms, delay_ms)`` pairs sorted by time; ``drops``
    and ``duplicates`` are 0-based dispatch indices; ``crash_ms`` is the
    virtual time the shard's worker dies (``None`` = never).  A
    default-constructed view is falsy, so drivers can skip the fault
    bookkeeping entirely when no fault targets their shard.
    """

    stalls: Tuple[Tuple[float, float], ...] = ()
    drops: FrozenSet[int] = frozenset()
    duplicates: FrozenSet[int] = frozenset()
    crash_ms: Optional[float] = None

    def __bool__(self) -> bool:
        return bool(
            self.stalls or self.drops or self.duplicates or self.crash_ms is not None
        )

    def after(self, at_ms: float) -> "ShardFaults":
        """The view a replacement worker sees after a crash at ``at_ms``:
        only stalls scheduled from then on; dispatch-indexed faults stay
        with the first worker's dispatch stream, and the crash with the
        first worker."""
        return ShardFaults(
            stalls=tuple(stall for stall in self.stalls if stall[0] >= at_ms)
        )


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible failure schedule for one cluster drain.

    The same plan drives both layers: :func:`~repro.serve.cluster.cluster_replay`
    honours virtual-time triggers (``at_ms``) and dispatch indices on its
    DES, :class:`~repro.serve.cluster.ClusterService` honours served-count
    triggers (``after_requests``) in its workers and dispatch indices in
    its cluster loop.  At most one crash per shard -- a restarted worker that
    re-crashes is a crash *loop*, which is a different experiment.
    """

    crashes: Tuple[CrashFault, ...] = ()
    delays: Tuple[DelayFault, ...] = ()
    drops: Tuple[DropFault, ...] = ()
    duplicates: Tuple[DuplicateFault, ...] = field(default=())

    def __post_init__(self) -> None:
        crashed = [crash.shard for crash in self.crashes]
        if len(crashed) != len(set(crashed)):
            raise ValueError("at most one CrashFault per shard")
        seen_drops = [(drop.shard, drop.dispatch) for drop in self.drops]
        if len(seen_drops) != len(set(seen_drops)):
            raise ValueError("duplicate DropFault entries for one dispatch")
        seen_dups = [(dup.shard, dup.dispatch) for dup in self.duplicates]
        if len(seen_dups) != len(set(seen_dups)):
            raise ValueError("duplicate DuplicateFault entries for one dispatch")
        overlap = set(seen_drops) & set(seen_dups)
        if overlap:
            raise ValueError(
                f"dispatch(es) {sorted(overlap)} are both dropped and duplicated"
            )

    def __bool__(self) -> bool:
        return bool(self.crashes or self.delays or self.drops or self.duplicates)

    # ------------------------------------------------------------------
    def max_shard(self) -> int:
        """Largest shard index any fault addresses (-1 for an empty plan)."""
        indices = [
            *(crash.shard for crash in self.crashes),
            *(delay.shard for delay in self.delays),
            *(drop.shard for drop in self.drops),
            *(dup.shard for dup in self.duplicates),
        ]
        return max(indices, default=-1)

    def validate_for(self, shards: int) -> None:
        """Reject plans addressing shards outside a ``shards``-wide cluster."""
        if self.max_shard() >= shards:
            raise ValueError(
                f"fault plan addresses shard {self.max_shard()} but the drain "
                f"never has more than {shards} shard(s)"
            )

    def crash_after(self, shard: int) -> Optional[int]:
        """The live served-count crash trigger of ``shard``."""
        for crash in self.crashes:
            if crash.shard == shard and crash.after_requests is not None:
                return crash.after_requests
        return None

    def delays_after(self, shard: int) -> Tuple[Tuple[int, float], ...]:
        """Live ``(after_requests, delay_ms)`` stalls of ``shard``."""
        return tuple(
            (delay.after_requests, delay.delay_ms)
            for delay in self.delays
            if delay.shard == shard and delay.after_requests is not None
        )

    def shard_faults(self, shard: int) -> ShardFaults:
        """The replay-side view of ``shard``: stalls, dispatch faults and
        the crash time."""
        stalls = sorted(
            (delay.at_ms, delay.delay_ms)
            for delay in self.delays
            if delay.shard == shard and delay.at_ms is not None
        )
        return ShardFaults(
            stalls=tuple(stalls),
            drops=frozenset(
                drop.dispatch for drop in self.drops if drop.shard == shard
            ),
            duplicates=frozenset(
                dup.dispatch for dup in self.duplicates if dup.shard == shard
            ),
            crash_ms=next(
                (crash.at_ms for crash in self.crashes if crash.shard == shard), None
            ),
        )
