"""Load generation: arrival processes over alignment workloads.

A :class:`RequestTrace` pairs a task sequence with arrival times (in
milliseconds from the start of the drain); :class:`LoadGenerator` builds
traces from any task workload -- most usefully a registry dataset's
seeded/chained extension tasks (:meth:`LoadGenerator.from_dataset`),
which is the "heavy traffic" shape the service exists for.

Three arrival processes, all deterministic given the seed:

``poisson``
    Memoryless arrivals at a target rate (exponential inter-arrival
    gaps) -- the steady-traffic model.
``bursty``
    An ON/OFF process: Poisson arrivals at ``on_rate_rps`` during ON
    windows, silence during OFF windows.  Bursts are what make
    micro-batching shine (deep queues form, batches fill) and what
    stresses the ``max_wait_ms`` bound when they end.
``replay``
    Evenly spaced arrivals at a fixed rate in workload order -- the
    closed, reproducible process used for regression records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.align.types import AlignmentTask
from repro.serve.queueing import ServeRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.cache import SpecLike

__all__ = ["RequestTrace", "LoadGenerator"]


@dataclass(frozen=True)
class RequestTrace:
    """An arrival schedule over concrete tasks (arrivals in ms, sorted)."""

    name: str
    process: str
    tasks: Tuple[AlignmentTask, ...]
    arrivals_ms: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.tasks) != len(self.arrivals_ms):
            raise ValueError("tasks and arrivals_ms must have equal length")
        if any(t < 0 for t in self.arrivals_ms):
            raise ValueError("arrival times must be non-negative")
        if any(
            later < earlier
            for earlier, later in zip(self.arrivals_ms, self.arrivals_ms[1:])
        ):
            raise ValueError("arrival times must be non-decreasing")

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def duration_ms(self) -> float:
        """Time of the last arrival."""
        return self.arrivals_ms[-1] if self.arrivals_ms else 0.0

    @property
    def offered_rate_rps(self) -> float:
        """Mean offered load in requests per second."""
        if len(self) <= 1 or self.duration_ms <= 0:
            return 0.0
        return (len(self) - 1) / self.duration_ms * 1000.0

    def requests(self) -> List[ServeRequest]:
        """Fresh :class:`ServeRequest` objects for one drain.

        A new list every call, so the same trace can be drained under
        several policies without stale timestamps leaking between runs.
        """
        return [
            ServeRequest(task=task, request_id=index, arrival_ms=float(arrival))
            for index, (task, arrival) in enumerate(zip(self.tasks, self.arrivals_ms))
        ]


class LoadGenerator:
    """Builds request traces over one task workload.

    When a trace asks for more requests than the workload holds, tasks
    are cycled in order (the service treats each submission as a fresh
    request; results stay per-request).
    """

    def __init__(
        self,
        tasks: Sequence[AlignmentTask],
        *,
        name: str = "tasks",
        seed: int = 0,
    ) -> None:
        if not tasks:
            raise ValueError("LoadGenerator needs a non-empty task workload")
        self.tasks: Tuple[AlignmentTask, ...] = tuple(tasks)
        self.name = name
        self.seed = int(seed)

    @classmethod
    def from_dataset(
        cls,
        dataset: Union[str, "SpecLike"],
        *,
        seed: int = 0,
    ) -> "LoadGenerator":
        """A generator over a dataset's or registered workload's tasks.

        ``dataset`` accepts anything ``Session(dataset=...)`` does: a
        seeded dataset name or spec, or a registered workload name/spec
        (:mod:`repro.workloads` -- FASTA-backed, adversarial synthetic,
        protein-style scoring).  The workload comes through the same
        in-process memo :meth:`repro.api.Session.workload` uses, so a
        serve drain and a figure run of the same name in one process
        share one task tuple.
        """
        from repro.api.session import Session

        session = Session(dataset=dataset)
        spec = session.dataset
        assert spec is not None
        return cls(session.workload(), name=spec.name, seed=seed)

    # ------------------------------------------------------------------
    def _cycle_tasks(self, num_requests: int) -> Tuple[AlignmentTask, ...]:
        return tuple(self.tasks[i % len(self.tasks)] for i in range(num_requests))

    def _resolve(self, num_requests: Optional[int]) -> int:
        n = len(self.tasks) if num_requests is None else int(num_requests)
        if n <= 0:
            raise ValueError("num_requests must be positive")
        return n

    def _rng(self, seed: Optional[int]) -> np.random.Generator:
        return np.random.default_rng(self.seed if seed is None else seed)

    # ------------------------------------------------------------------
    # arrival processes
    # ------------------------------------------------------------------
    def poisson(
        self,
        rate_rps: float,
        num_requests: Optional[int] = None,
        *,
        seed: Optional[int] = None,
    ) -> RequestTrace:
        """Poisson arrivals at ``rate_rps`` requests per second."""
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        n = self._resolve(num_requests)
        gaps = self._rng(seed).exponential(scale=1000.0 / rate_rps, size=n)
        gaps[0] = 0.0  # the drain starts with the first request
        arrivals = np.cumsum(gaps)
        return RequestTrace(
            name=self.name,
            process="poisson",
            tasks=self._cycle_tasks(n),
            arrivals_ms=tuple(float(t) for t in arrivals),
        )

    def bursty(
        self,
        on_rate_rps: float,
        num_requests: Optional[int] = None,
        *,
        on_ms: float = 50.0,
        off_ms: float = 200.0,
        seed: Optional[int] = None,
    ) -> RequestTrace:
        """ON/OFF arrivals: Poisson bursts separated by silent gaps."""
        if on_rate_rps <= 0:
            raise ValueError("on_rate_rps must be positive")
        if on_ms <= 0 or off_ms < 0:
            raise ValueError("on_ms must be positive and off_ms non-negative")
        n = self._resolve(num_requests)
        rng = self._rng(seed)
        arrivals: List[float] = []
        now = 0.0
        remaining_on = on_ms
        for index in range(n):
            gap = 0.0 if index == 0 else float(rng.exponential(1000.0 / on_rate_rps))
            while gap >= remaining_on:
                gap -= remaining_on
                now += remaining_on + off_ms
                remaining_on = on_ms
            now += gap
            remaining_on -= gap
            arrivals.append(now)
        return RequestTrace(
            name=self.name,
            process="bursty",
            tasks=self._cycle_tasks(n),
            arrivals_ms=tuple(arrivals),
        )

    def replay(
        self,
        rate_rps: float,
        num_requests: Optional[int] = None,
    ) -> RequestTrace:
        """Deterministic evenly spaced arrivals in workload order."""
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        n = self._resolve(num_requests)
        interval = 1000.0 / rate_rps
        return RequestTrace(
            name=self.name,
            process="replay",
            tasks=self._cycle_tasks(n),
            arrivals_ms=tuple(index * interval for index in range(n)),
        )
