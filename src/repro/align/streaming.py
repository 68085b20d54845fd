"""The streaming engine contract: in-flight batches with lane refill.

The sliced vector engine (:mod:`repro.align.vector`) compacts terminated
tasks out of its struct-of-arrays buffers at every slice boundary -- but a one-shot
``align_tasks`` call lets the freed width go unused for the rest of the
sweep.  This module defines the contract that lets a *scheduler* reclaim
it: an :class:`InFlightBatch` is a resumable sweep that can be advanced
slice by slice (:meth:`~InFlightBatch.step`) and refilled with new tasks
in the lanes compaction freed (:meth:`~InFlightBatch.admit`) -- the
serving-layer analogue of the paper's subwarp rejoining, and of
continuous batching in LLM inference servers.

Three parties implement or consume the contract:

* ``VectorStream`` (:mod:`repro.align.vector`) is the real streaming
  sweep; its one-shot engine (``vector_align``) is a thin
  open-all-then-drain wrapper, so every bit-exactness test also pins
  the stream.
* :class:`OneShotBatch` adapts any plain engine callable -- ``scalar``
  or a third-party :func:`repro.api.register_engine` backend
  -- to the same interface with drain-then-form semantics: ``step()``
  scores everything admitted so far in one engine call.  Schedulers can
  therefore hold any engine behind one handle type.
* :func:`repro.api.engines.open_batch` resolves a name to whichever of
  the two applies (``supports_streaming`` reports which).

Exactness: admitting a task mid-stream starts its wavefront from the
same all-``NEG_INF`` state a fresh sweep would, and every anti-diagonal
of its band is swept with the same per-task arithmetic, so results are
bit-identical to a one-shot ``align_tasks`` call whatever the admission
order (``tests/align/test_streaming.py`` property-tests this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.align.types import AlignmentResult, AlignmentTask

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

__all__ = ["SliceStats", "InFlightBatch", "OneShotBatch"]


@dataclass(frozen=True)
class SliceStats:
    """Occupancy / termination accounting of one ``step()`` slice.

    ``live_before`` counts the tasks swept during the slice (after the
    boundary's admissions); ``completed`` how many retired at the slice
    end (``terminated`` of them because their Z-drop / X-drop condition
    fired, the rest because they exhausted their band).  ``capacity`` is
    the handle's lane budget, so ``occupancy`` is the fraction of the
    budget doing useful work -- the quantity continuous refill improves.
    """

    index: int
    admitted: int
    live_before: int
    completed: int
    terminated: int
    capacity: int

    @property
    def live_after(self) -> int:
        return self.live_before - self.completed

    @property
    def occupancy(self) -> float:
        """``live_before / capacity`` (0.0 for a zero-capacity handle)."""
        if self.capacity <= 0:
            return 0.0
        return self.live_before / self.capacity


@runtime_checkable
class InFlightBatch(Protocol):
    """A resumable, refillable alignment sweep (the streaming handle).

    The lifecycle: ``admit()`` injects tasks (at a slice boundary, which
    is whenever no ``step()`` call is mid-flight), ``step()`` advances
    one or more slices and retires finished tasks, ``take_completed()``
    hands out results as ``(admission_index, result)`` pairs, and
    ``drain()`` runs everything to completion, returning all results in
    admission order.  Implementations are single-threaded: callers
    serialise access (the serve scheduler owns its handle exclusively).
    """

    @property
    def capacity(self) -> int:
        """Lane budget: most tasks that may be in flight at once."""
        ...

    @property
    def live(self) -> int:
        """Tasks currently in the buffers (admitted, not yet retired)."""
        ...

    @property
    def free(self) -> int:
        """Lanes available to :meth:`admit` right now."""
        ...

    @property
    def admitted(self) -> int:
        """Total tasks ever admitted (also the next admission index)."""
        ...

    @property
    def done(self) -> bool:
        """Every admitted task has retired."""
        ...

    @property
    def stats(self) -> Tuple[SliceStats, ...]:
        """Per-slice occupancy/termination stats, oldest first."""
        ...

    def admit(self, tasks: Sequence[AlignmentTask]) -> List[int]:
        """Inject tasks into free lanes; returns their admission indices."""
        ...

    def step(self, n_slices: int = 1) -> List[SliceStats]:
        """Advance up to ``n_slices`` slices (fewer when work runs out)."""
        ...

    def take_completed(self) -> List[Tuple[int, AlignmentResult]]:
        """Results retired since the last call, as (index, result) pairs."""
        ...

    def drain(self) -> List[AlignmentResult]:
        """Run to completion; all results ever admitted, admission order."""
        ...


class OneShotBatch:
    """Adapter: a plain one-shot engine behind the streaming interface.

    ``scalar`` and third-party engines registered through
    :func:`repro.api.register_engine` stay ordinary callables; this
    adapter lets schedulers drive them through the same handle as a real
    stream.  The semantics are drain-then-form: every ``step()`` scores
    *all* tasks admitted since the previous step in one engine call and
    retires them immediately -- there is no mid-sweep refill to exploit,
    so occupancy equals whatever the scheduler batched.  Results are the
    engine's own, hence bit-identical to ``align_tasks``.
    """

    def __init__(
        self,
        engine: Callable[..., List[AlignmentResult]],
        tasks: Sequence[AlignmentTask] = (),
        *,
        capacity: int = 0,
        engine_kwargs: Optional[dict] = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._engine = engine
        self._kwargs = dict(engine_kwargs or {})
        self._capacity = int(capacity) if capacity else max(len(tasks), 1)
        self._pending: List[Tuple[int, AlignmentTask]] = []
        self._results: List[Optional[AlignmentResult]] = []
        self._fresh: List[Tuple[int, AlignmentResult]] = []
        self._stats: List[SliceStats] = []
        if tasks:
            self.admit(tasks)

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def live(self) -> int:
        return len(self._pending)

    @property
    def free(self) -> int:
        return self._capacity - len(self._pending)

    @property
    def admitted(self) -> int:
        return len(self._results)

    @property
    def done(self) -> bool:
        return not self._pending

    @property
    def stats(self) -> Tuple[SliceStats, ...]:
        return tuple(self._stats)

    # ------------------------------------------------------------------
    def admit(self, tasks: Sequence[AlignmentTask]) -> List[int]:
        tasks = list(tasks)
        if len(tasks) > self.free:
            raise ValueError(
                f"cannot admit {len(tasks)} task(s): only {self.free} of "
                f"{self._capacity} lanes are free"
            )
        indices = []
        for task in tasks:
            index = len(self._results)
            self._results.append(None)
            self._pending.append((index, task))
            indices.append(index)
        return indices

    def step(self, n_slices: int = 1) -> List[SliceStats]:
        if n_slices <= 0:
            raise ValueError("n_slices must be positive")
        if not self._pending:
            return []
        # One adapter "slice" is one whole engine call over everything
        # pending: a one-shot engine cannot pause mid-sweep.
        batch, self._pending = self._pending, []
        results = self._engine([task for _, task in batch], **self._kwargs)
        if len(results) != len(batch):
            raise ValueError(
                f"engine returned {len(results)} results for a batch of "
                f"{len(batch)} tasks"
            )
        terminated = 0
        for (index, _), result in zip(batch, results):
            self._results[index] = result
            self._fresh.append((index, result))
            terminated += bool(result.terminated)
        stat = SliceStats(
            index=len(self._stats),
            admitted=len(batch),
            live_before=len(batch),
            completed=len(batch),
            terminated=terminated,
            capacity=self._capacity,
        )
        self._stats.append(stat)
        return [stat]

    def take_completed(self) -> List[Tuple[int, AlignmentResult]]:
        fresh, self._fresh = self._fresh, []
        return fresh

    def drain(self) -> List[AlignmentResult]:
        while self._pending:
            self.step()
        self._fresh = []
        out = []
        for index, result in enumerate(self._results):
            if result is None:  # pragma: no cover - defensive
                raise RuntimeError(f"task {index} was never scored")
            out.append(result)
        return out
