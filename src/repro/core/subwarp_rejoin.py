"""Subwarp rejoining: slice-boundary work stealing inside a warp.

Section 4.3 of the paper.  A warp is split into subwarps, each assigned an
alignment task.  Tasks finish at wildly different times (band geometry and
the termination condition are data dependent), so without intervention the
warp's latency is the *maximum* over its subwarps while the finished
subwarps' lanes idle.  Subwarp rejoining lets a finished subwarp join the
first still-active subwarp at that subwarp's next slice boundary, donating
its threads and shrinking the remaining per-slice latency; when no active
subwarp remains, the subwarps reset to their original sizes and each
fetches its next task.

:class:`SubwarpRejoinSimulator` is an event-driven implementation of that
protocol over per-slice work amounts.  Each slice is described by the
compute work it contains (thread-cycles, which parallelise over however
many threads currently serve the task) and a latency component (memory
traffic, which does not shrink when threads are added).  The simulator
reports per-warp latency, the number of rejoin events and the idle
thread-cycles that remain -- the quantities the ablation study (Figure 9)
and the balancing study (Figure 11) need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

__all__ = ["SliceCost", "TaskSliceCosts", "SubwarpTimeline", "RejoinResult", "SubwarpRejoinSimulator"]


@dataclass(frozen=True)
class SliceCost:
    """Cost of one slice of one task.

    Attributes
    ----------
    compute_thread_cycles:
        Thread-cycles of cell computation in the slice; divides by the
        number of threads currently assigned.
    fixed_cycles:
        Latency that does not parallelise (memory transactions, reduction
        and termination-check latency).
    """

    compute_thread_cycles: float
    fixed_cycles: float = 0.0

    def latency(self, threads: int) -> float:
        """Latency of this slice when processed by ``threads`` threads."""
        if threads <= 0:
            raise ValueError("threads must be positive")
        return self.compute_thread_cycles / threads + self.fixed_cycles


@dataclass
class TaskSliceCosts:
    """Per-slice costs of one task (in processing order)."""

    task_id: int
    slices: List[SliceCost]

    def latency(self, threads: int) -> float:
        """Latency when one subwarp of ``threads`` processes it alone."""
        return sum(s.latency(threads) for s in self.slices)


@dataclass
class SubwarpTimeline:
    """Execution trace of one subwarp slot during the simulation."""

    subwarp_id: int
    finish_time: float = 0.0
    busy_cycles: float = 0.0
    tasks_completed: int = 0


@dataclass
class RejoinResult:
    """Outcome of simulating one warp."""

    warp_cycles: float
    rejoin_events: int
    idle_thread_cycles: float
    timelines: List[SubwarpTimeline] = field(default_factory=list)
    rounds: int = 0


class SubwarpRejoinSimulator:
    """Simulates one warp's subwarps with or without rejoining.

    Parameters
    ----------
    subwarp_size:
        Threads per subwarp.
    num_subwarps:
        Subwarps per warp (``32 / subwarp_size`` on real hardware).
    rejoin_overhead_cycles:
        Cost charged to the helped subwarp at every rejoin event
        (flag scan, target-alignment copy, ``__match_any_sync``).
    """

    def __init__(
        self,
        subwarp_size: int,
        num_subwarps: int,
        rejoin_overhead_cycles: float = 0.0,
    ):
        if subwarp_size <= 0 or num_subwarps <= 0:
            raise ValueError("subwarp_size and num_subwarps must be positive")
        self.subwarp_size = subwarp_size
        self.num_subwarps = num_subwarps
        self.rejoin_overhead_cycles = rejoin_overhead_cycles

    # ------------------------------------------------------------------
    # without rejoining: each subwarp drains its own queue
    # ------------------------------------------------------------------
    def simulate_without_rejoin(
        self, queues: Sequence[Sequence[TaskSliceCosts]]
    ) -> RejoinResult:
        """Baseline behaviour: no work stealing, warp latency is the max
        over subwarp queue latencies."""
        self._check_queues(queues)
        timelines = []
        for k, queue in enumerate(queues):
            busy = sum(task.latency(self.subwarp_size) for task in queue)
            timelines.append(
                SubwarpTimeline(
                    subwarp_id=k,
                    finish_time=busy,
                    busy_cycles=busy,
                    tasks_completed=len(queue),
                )
            )
        warp_cycles = max((t.finish_time for t in timelines), default=0.0)
        idle = sum(
            (warp_cycles - t.busy_cycles) * self.subwarp_size for t in timelines
        )
        return RejoinResult(
            warp_cycles=warp_cycles,
            rejoin_events=0,
            idle_thread_cycles=idle,
            timelines=timelines,
            rounds=max((len(q) for q in queues), default=0),
        )

    # ------------------------------------------------------------------
    # with rejoining: round-based work stealing at slice boundaries
    # ------------------------------------------------------------------
    def simulate_with_rejoin(
        self, queues: Sequence[Sequence[TaskSliceCosts]]
    ) -> RejoinResult:
        """Subwarp rejoining as described in Section 4.3.

        Tasks are consumed in *rounds*: at the start of a round each
        subwarp takes the next task from its queue; within the round,
        subwarps that finish rejoin the lowest-numbered still-active
        subwarp at its next slice boundary; when the round's tasks are all
        complete the subwarps reset and the next round begins.
        """
        self._check_queues(queues)
        num_rounds = max((len(q) for q in queues), default=0)
        timelines = [SubwarpTimeline(subwarp_id=k) for k in range(self.num_subwarps)]
        total_rejoin_events = 0
        total_idle = 0.0
        warp_time = 0.0

        for r in range(num_rounds):
            round_tasks = [
                list(queues[k][r].slices) if r < len(queues[k]) else []
                for k in range(self.num_subwarps)
            ]
            # Per-subwarp state within the round.
            threads = [self.subwarp_size] * self.num_subwarps
            # Pending donations: (time the helper became free, thread count).
            pending: list[list[tuple[float, int]]] = [[] for _ in range(self.num_subwarps)]
            now = [0.0] * self.num_subwarps  # local time per active subwarp
            remaining = [list(slices) for slices in round_tasks]
            active = [bool(slices) for slices in remaining]
            busy = [0.0] * self.num_subwarps

            # Subwarps whose round task is empty are immediately idle and
            # available to help; hand them to the first active subwarp.
            idle_pool = [k for k in range(self.num_subwarps) if not active[k]]

            def first_active() -> int:
                for k in range(self.num_subwarps):
                    if active[k]:
                        return k
                return -1

            # Donate the initially idle subwarps (their queue ran dry in an
            # earlier round) to the first active one.
            target = first_active()
            if target >= 0:
                for _ in idle_pool:
                    pending[target].append((0.0, self.subwarp_size))
                    total_rejoin_events += 1

            # Event loop: repeatedly advance the active subwarp whose next
            # slice completes earliest.  Helpers only contribute to slices
            # that start after they became free (they wait at the target's
            # next slice boundary), which keeps the simulation work
            # conserving.
            while any(active):
                next_finish = []
                for k in range(self.num_subwarps):
                    if not active[k]:
                        continue
                    sl = remaining[k][0]
                    joinable = sum(th for t, th in pending[k] if t <= now[k])
                    overhead = self.rejoin_overhead_cycles if joinable > 0 else 0.0
                    eff_threads = threads[k] + joinable
                    dur = sl.latency(eff_threads) + overhead
                    next_finish.append((now[k] + dur, k, dur, eff_threads))
                next_finish.sort()
                finish_time, k, dur, eff_threads = next_finish[0]
                # Commit the helpers that were waiting at this boundary and
                # the slice itself.
                joined = [entry for entry in pending[k] if entry[0] <= now[k]]
                if joined:
                    threads[k] += sum(th for _, th in joined)
                    pending[k] = [entry for entry in pending[k] if entry[0] > now[k]]
                remaining[k].pop(0)
                now[k] = finish_time
                busy[k] += dur
                if not remaining[k]:
                    active[k] = False
                    timelines[k].tasks_completed += 1
                    # This subwarp's threads (possibly grown) go help the
                    # first still-active subwarp, together with any helpers
                    # that were still waiting for it.
                    stranded = sum(th for _, th in pending[k])
                    pending[k] = []
                    target = first_active()
                    if target >= 0:
                        pending[target].append((finish_time, threads[k] + stranded))
                        total_rejoin_events += 1
                    threads[k] = 0

            round_time = max(now) if any(t > 0 for t in now) else 0.0
            warp_time += round_time
            total_idle += sum(
                (round_time - b) for b in busy
            ) * self.subwarp_size  # approximate: idle lanes at base width
            for k in range(self.num_subwarps):
                timelines[k].finish_time = warp_time
                timelines[k].busy_cycles += busy[k]

        return RejoinResult(
            warp_cycles=warp_time,
            rejoin_events=total_rejoin_events,
            idle_thread_cycles=max(0.0, total_idle),
            timelines=timelines,
            rounds=num_rounds,
        )

    # ------------------------------------------------------------------
    def _check_queues(self, queues: Sequence[Sequence[TaskSliceCosts]]) -> None:
        if len(queues) != self.num_subwarps:
            raise ValueError(
                f"expected {self.num_subwarps} subwarp queues, got {len(queues)}"
            )
