"""Configuration of the micro-batching alignment service.

One frozen dataclass carries every policy knob the scheduler, the live
service and the CLI share, so a configuration can travel between the
virtual-clock replay and the threaded service unchanged and both behave
identically (same batches, same engine calls).

Streaming engines add one knob: ``refill``.  With ``"drain"`` the
scheduler runs the classic drain-then-form loop (a dispatched batch runs
to completion before the queue is looked at again); with
``"continuous"`` it keeps one :class:`repro.api.InFlightBatch` open and
admits pending requests into lanes freed by compaction at every slice
boundary.  The default ``"auto"`` picks continuous refill exactly when
the engine streams natively (:func:`repro.api.supports_streaming`), so
existing configurations with one-shot engines behave as before.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.align.vector import DEFAULT_BUCKET_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports serve)
    from repro.api.engines import EngineOptions

__all__ = ["TIMING_MODES", "REFILL_MODES", "ServeConfig"]

#: How batch service time is charged to the clock: ``"measured"`` times
#: the real engine call, ``"modeled"`` uses the deterministic linear
#: model of :func:`repro.serve.scheduler.modeled_service_ms`.
TIMING_MODES = ("measured", "modeled")

#: Lane-refill policy: ``"auto"`` resolves to ``"continuous"`` for
#: engines that stream natively and ``"drain"`` otherwise.
REFILL_MODES = ("auto", "continuous", "drain")


@dataclass(frozen=True)
class ServeConfig:
    """Policy of one alignment service.

    Parameters
    ----------
    engine:
        Alignment engine name from the :mod:`repro.api` engine registry
        (``"vector"`` by default: it streams natively, so the default
        refill is continuous; ``"scalar"`` is the oracle path).
    batch_size:
        Bucket size handed to the engine (``None`` keeps the engine
        default).  This is the *engine's* internal SIMD bucket; the
        scheduler's own batch bound is ``max_batch_size``.  Equivalent to
        ``options.batch_size`` (setting both to different values is an
        error).
    options:
        Typed engine tuning (:class:`repro.api.EngineOptions`); carries
        ``slice_width`` for streaming engines in addition to
        ``batch_size``.  ``None`` means engine defaults.
    refill:
        ``"auto"`` (default), ``"continuous"`` or ``"drain"`` -- see the
        module docstring.  ``"continuous"`` requires an engine that
        streams natively and models a single device whose lane capacity
        is ``max_batch_size``; ``workers`` applies to drain mode.
    max_batch_size:
        Most requests one dispatched batch may carry.  ``1`` disables
        micro-batching (every request is served alone -- the anchor the
        serve benchmark compares against).  Under continuous refill this
        is the in-flight batch's lane capacity.
    max_wait_ms:
        Longest the scheduler may hold a request hoping for batch-mates.
        Once the oldest pending request has waited this long, a batch is
        cut even if it is not full.  Continuous refill only strengthens
        the guarantee: while the in-flight batch has free lanes, pending
        requests are admitted at the very next slice boundary.
    workers:
        Number of batch executors.  The replay scheduler models them as
        parallel servers of a queueing system; the live service backs
        them with a thread pool.  Continuous refill serialises on the
        single in-flight batch, so ``workers`` is ignored there.
    length_aware:
        Form batches from requests of similar anti-diagonal count (via
        :func:`repro.core.uneven_bucketing.length_bucket_order`) instead
        of plain FIFO prefixes, so engine-side padding stays cheap.
        Refill admission is never length-aware (freed lanes take the
        oldest/most urgent request).
    timing:
        ``"measured"`` (wall-clock the engine call) or ``"modeled"``
        (deterministic cost model; replays become bit-reproducible).
    model_overhead_ms, model_task_us, model_antidiag_us:
        Parameters of the modeled service time: a fixed per-dispatch
        overhead, a per-task cost, and a per-anti-diagonal cost charged
        on the *longest* task of the batch (tasks of one batch sweep
        together, which is exactly why batching amortises).  Continuous
        refill charges the same parameters per slice, with the dispatch
        overhead paid once per busy period (the stream behaves like a
        persistent kernel).
    """

    engine: str = "vector"
    batch_size: Optional[int] = None
    max_batch_size: int = 32
    max_wait_ms: float = 4.0
    workers: int = 1
    length_aware: bool = True
    timing: str = "measured"
    model_overhead_ms: float = 0.25
    model_task_us: float = 8.0
    model_antidiag_us: float = 2.0
    options: Optional["EngineOptions"] = None
    refill: str = "auto"

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.batch_size is not None and self.batch_size <= 0:
            raise ValueError("batch_size must be positive when given")
        if self.timing not in TIMING_MODES:
            raise ValueError(
                f"timing must be one of {TIMING_MODES}, got {self.timing!r}"
            )
        if self.refill not in REFILL_MODES:
            raise ValueError(
                f"refill must be one of {REFILL_MODES}, got {self.refill!r}"
            )
        if self.model_overhead_ms < 0 or self.model_task_us < 0 or self.model_antidiag_us < 0:
            raise ValueError("modeled-timing parameters must be non-negative")
        if (
            self.options is not None
            and self.batch_size is not None
            and self.options.batch_size is not None
            and self.options.batch_size != self.batch_size
        ):
            raise ValueError(
                f"conflicting bucket sizes: batch_size={self.batch_size} vs "
                f"options.batch_size={self.options.batch_size}"
            )
        # Fail fast on unknown engine names, mirroring Session's eager
        # registry validation.  Imported lazily: the engine registry
        # lives above this module in the import graph.
        from repro.api.engines import get_engine, supports_streaming

        get_engine(self.engine)
        if self.refill == "continuous" and not supports_streaming(self.engine):
            raise ValueError(
                f"refill='continuous' requires a streaming engine, but "
                f"{self.engine!r} only supports one-shot batches "
                f"(use refill='auto' or 'drain')"
            )

    # ------------------------------------------------------------------
    def engine_options(self) -> "EngineOptions":
        """Typed engine tuning with ``batch_size`` folded in.

        The returned options always pin a concrete ``batch_size`` (the
        registry contract lets engines require it), so both refill modes
        call engines exactly like the pre-streaming scheduler did.
        """
        from repro.api.engines import EngineOptions

        base = self.options if self.options is not None else EngineOptions()
        if base.batch_size is None:
            base = base.replace(batch_size=self.effective_batch_size())
        return base

    def effective_batch_size(self) -> int:
        """The engine bucket size this configuration actually uses."""
        if self.batch_size is not None:
            return self.batch_size
        if self.options is not None and self.options.batch_size is not None:
            return self.options.batch_size
        return DEFAULT_BUCKET_SIZE

    def resolved_refill(self) -> str:
        """``refill`` with ``"auto"`` resolved against the engine."""
        if self.refill != "auto":
            return self.refill
        from repro.api.engines import supports_streaming

        return "continuous" if supports_streaming(self.engine) else "drain"

    def replace(self, **changes: Any) -> "ServeConfig":
        """A copy with ``changes`` applied (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    @property
    def policy_name(self) -> str:
        """Default label for telemetry/records.

        ``"batch1"`` when micro-batching is disabled, ``"continuous"``
        when the resolved refill mode streams, ``"microbatch"`` for the
        classic drain-then-form policy.
        """
        if self.max_batch_size <= 1:
            return "batch1"
        return "continuous" if self.resolved_refill() == "continuous" else "microbatch"
