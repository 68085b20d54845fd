"""The alignment-engine registry: name-keyed workload scoring backends.

An *engine* scores a whole workload of :class:`AlignmentTask` objects and
returns one :class:`AlignmentResult` per task, in task order.  Two
engines are built in:

``"scalar"``
    One banded wavefront sweep per task (the oracle path).
``"vector"``
    The struct-of-arrays engine (:mod:`repro.align.vector`, the
    default): buckets of tasks swept simultaneously with whole-array
    NumPy operations, terminated and completed tasks compacted out of
    the buffers every :data:`~repro.align.vector.DEFAULT_SLICE_WIDTH`
    anti-diagonals.  Bit-identical to ``"scalar"`` and many times
    faster (docs/ENGINES.md).

New backends register under a name and immediately become usable by
:class:`repro.api.Session`, :class:`repro.pipeline.mapper.LongReadMapper`
and anything else that resolves engines by name::

    @register_engine("my-backend")
    def my_backend(tasks, *, batch_size=DEFAULT_BUCKET_SIZE):
        return [...]

Two orthogonal extensions sit on top of the name-keyed callable:

* **Typed options.**  :class:`EngineOptions` bundles the per-engine
  tuning knobs (``batch_size``, ``slice_width``); unset fields defer to
  each engine's own defaults, except that the workflows
  (:class:`Session`, serving, the read mapper) pin an unset bucket size
  through :meth:`EngineOptions.with_bucket`.  :func:`align_tasks` and
  :class:`Session` take them as ``options=``.
* **Streaming.**  Engines whose sweep can pause at slice boundaries
  register an ``open_batch`` factory; :func:`open_batch` returns their
  :class:`~repro.align.streaming.InFlightBatch` handle, and
  :func:`supports_streaming` reports the capability.  Engines without
  the factory (``scalar``, third-party backends) are served through the
  :class:`~repro.align.streaming.OneShotBatch` adapter, so every
  registered name can sit behind the same handle type.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.align.antidiagonal import antidiagonal_align
from repro.align.streaming import InFlightBatch, OneShotBatch, SliceStats
from repro.align.traceback import TracebackResult, batch_traceback
from repro.align.types import AlignmentResult, AlignmentTask
from repro.align.vector import (
    DEFAULT_BUCKET_SIZE,
    DEFAULT_SLICE_WIDTH,
    DEFAULT_VECTOR_BUCKET_SIZE,
    VectorStream,
    vector_align,
)
from repro.api.registry import Registry

__all__ = [
    "AlignmentEngine",
    "EngineOptions",
    "ENGINES",
    "InFlightBatch",
    "OneShotBatch",
    "SliceStats",
    "register_engine",
    "get_engine",
    "engine_names",
    "supports_streaming",
    "open_batch",
    "align_tasks",
]

#: Signature every engine implements: ``(tasks, *, batch_size=...) -> results``.
AlignmentEngine = Callable[..., List[AlignmentResult]]

#: The engine registry.  ``"scalar"`` and ``"vector"`` are built in.
ENGINES: Registry[AlignmentEngine] = Registry("engine")

#: Option fields an engine accepts when its registration declares none.
_DEFAULT_OPTION_PARAMS: Tuple[str, ...] = ("batch_size",)


@dataclass(frozen=True)
class EngineOptions:
    """Typed per-engine tuning options.

    One frozen bundle carries the ``batch_size`` / ``slice_width`` knobs
    that Session, ServeConfig, LongReadMapper and the bench/serve CLIs
    hand to engines; it is the only carrier of engine tuning.
    Every field is optional: ``None`` means "the engine's own default",
    so an empty ``EngineOptions()`` reproduces exactly what calling the
    engine with no keywords would do, and options written for one engine
    work on another that understands fewer knobs (unknown fields are
    simply not forwarded -- each engine's registration declares which
    fields it accepts).

    >>> EngineOptions(batch_size=32).engine_kwargs(("batch_size", "slice_width"))
    {'batch_size': 32}
    >>> EngineOptions(batch_size=0)
    Traceback (most recent call last):
        ...
    ValueError: batch_size must be positive (got 0)
    """

    batch_size: Optional[int] = None
    slice_width: Optional[int] = None

    def __post_init__(self) -> None:
        for field in ("batch_size", "slice_width"):
            value = getattr(self, field)
            if value is not None and (not isinstance(value, int) or value <= 0):
                raise ValueError(f"{field} must be positive (got {value!r})")

    def replace(self, **changes: Any) -> "EngineOptions":
        """A copy with ``changes`` applied (like :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

    def with_bucket(self) -> "EngineOptions":
        """These options with an unset ``batch_size`` set to the workflow default.

        ``Session``, serving and ``LongReadMapper`` sweep buckets of
        :data:`~repro.align.vector.DEFAULT_BUCKET_SIZE` unless told
        otherwise; bare :func:`align_tasks` / :func:`open_batch` calls
        leave an unset ``batch_size`` to the engine.  This is the only
        place that rule is written.

        >>> EngineOptions(slice_width=8).with_bucket()
        EngineOptions(batch_size=64, slice_width=8)
        >>> EngineOptions(batch_size=17).with_bucket().batch_size
        17
        """
        if self.batch_size is not None:
            return self
        return self.replace(batch_size=DEFAULT_BUCKET_SIZE)

    def engine_kwargs(self, params: Sequence[str]) -> Dict[str, int]:
        """The keyword arguments to pass an engine accepting ``params``.

        Only explicitly-set fields are forwarded; everything else is the
        engine's own business.
        """
        out: Dict[str, int] = {}
        for param in params:
            value = getattr(self, param, None)
            if value is not None:
                out[param] = value
        return out


def register_engine(
    name: str,
    engine: Optional[AlignmentEngine] = None,
    *,
    replace: bool = False,
    option_params: Sequence[str] = _DEFAULT_OPTION_PARAMS,
    open_batch: Optional[Callable[..., InFlightBatch]] = None,
) -> Callable[[AlignmentEngine], AlignmentEngine] | AlignmentEngine:
    """Register an alignment engine (decorator or direct form).

    ``option_params`` names the :class:`EngineOptions` fields the engine
    accepts as keywords (``("batch_size",)`` unless it also understands
    ``slice_width``).  ``open_batch`` declares streaming support: a
    factory ``(tasks, *, capacity=None, options) -> InFlightBatch``
    returning a resumable handle; engines without one are adapted
    through :class:`~repro.align.streaming.OneShotBatch`.
    """
    meta: Dict[str, object] = {"option_params": tuple(option_params)}
    if open_batch is not None:
        meta["open_batch"] = open_batch
    return ENGINES.register(name, engine, replace=replace, meta=meta)


def get_engine(name: str) -> AlignmentEngine:
    """Resolve an engine by name (KeyError lists the registered names)."""
    return ENGINES.get(name)


def engine_names() -> Tuple[str, ...]:
    """Registered engine names in registration order."""
    return ENGINES.names()


# ----------------------------------------------------------------------
# built-in engines
# ----------------------------------------------------------------------
@register_engine("scalar")
def scalar_engine(
    tasks: Sequence[AlignmentTask], *, batch_size: int = DEFAULT_BUCKET_SIZE
) -> List[AlignmentResult]:
    """One wavefront sweep per task; ``batch_size`` is accepted and ignored."""
    return [
        antidiagonal_align(task.ref, task.query, task.scoring) for task in tasks
    ]


def _open_vector_batch(
    tasks: Sequence[AlignmentTask],
    *,
    capacity: Optional[int] = None,
    options: EngineOptions,
) -> VectorStream:
    """Streaming factory for ``"vector"``: a refillable VectorStream."""
    return VectorStream(
        tasks,
        capacity=capacity,
        slice_width=(
            options.slice_width
            if options.slice_width is not None
            else DEFAULT_SLICE_WIDTH
        ),
    )


@register_engine(
    "vector",
    option_params=("batch_size", "slice_width"),
    open_batch=_open_vector_batch,
)
def vector_engine(
    tasks: Sequence[AlignmentTask],
    *,
    batch_size: int = DEFAULT_VECTOR_BUCKET_SIZE,
    slice_width: int = DEFAULT_SLICE_WIDTH,
) -> List[AlignmentResult]:
    """Whole-array struct-of-arrays engine; bit-identical to ``"scalar"``."""
    return vector_align(tasks, bucket_size=batch_size, slice_width=slice_width)


# ----------------------------------------------------------------------
def supports_streaming(name: str) -> bool:
    """Whether ``open_batch(engine=name)`` returns a real streaming sweep.

    ``True`` for engines registered with an ``open_batch`` factory
    (built-in: ``"vector"``); ``False`` for engines served through the
    one-shot adapter.  Unknown names raise the same KeyError as
    :func:`get_engine`.
    """
    get_engine(name)  # the name-listing error
    return "open_batch" in ENGINES.meta(name)


def open_batch(
    tasks: Sequence[AlignmentTask] = (),
    *,
    engine: str = "vector",
    options: Optional[EngineOptions] = None,
    capacity: Optional[int] = None,
) -> InFlightBatch:
    """Open a resumable in-flight batch on a named engine.

    The streaming counterpart of :func:`align_tasks`: the returned
    :class:`~repro.align.streaming.InFlightBatch` can be advanced slice
    by slice (``step()``), refilled with new tasks in lanes freed by
    compaction (``admit()``), or simply drained.  ``capacity`` bounds
    how many tasks may be in flight at once (default: the size of the
    initial ``tasks``, minimum one lane).

    Engines registered without a streaming factory come back wrapped in
    the :class:`~repro.align.streaming.OneShotBatch` adapter -- same
    interface, drain-then-form semantics -- so callers never branch on
    :func:`supports_streaming` just to hold a handle.

    Whatever the admission order, ``drain()`` is bit-identical to
    ``align_tasks(...)`` on the same tasks:

    >>> from repro.align.scoring import preset
    >>> from repro.align.sequence import encode
    >>> from repro.align.types import AlignmentTask
    >>> task = AlignmentTask(
    ...     ref=encode("ACGTACGT"), query=encode("ACGTACGT"),
    ...     scoring=preset("figure1"),
    ... )
    >>> handle = open_batch([task])
    >>> [r.score for r in handle.drain()]
    [16]
    """
    fn = get_engine(engine)
    opts = options if options is not None else EngineOptions()
    meta = ENGINES.meta(engine)
    factory = meta.get("open_batch")
    if factory is not None:
        return factory(tasks, capacity=capacity, options=opts)
    params = meta.get("option_params", _DEFAULT_OPTION_PARAMS)
    return OneShotBatch(
        fn,
        tasks,
        capacity=capacity if capacity is not None else 0,
        engine_kwargs=opts.engine_kwargs(params),
    )


def align_tasks(
    tasks: Sequence[AlignmentTask],
    *,
    engine: str = "vector",
    options: Optional[EngineOptions] = None,
    cigars: bool = False,
) -> List[AlignmentResult] | List[TracebackResult]:
    """Score a workload with a named engine.

    The core implementation behind :meth:`repro.api.Session.align`.
    Tuning knobs travel as a typed :class:`EngineOptions`.

    With ``cigars=True`` the scored tasks additionally go through the
    batched traceback sweep
    (:func:`repro.align.traceback.batch_traceback`) and the return value
    becomes a list of :class:`~repro.align.traceback.TracebackResult`
    whose ``.result`` fields equal the engine's outputs, cross-checked
    field by field against the sweep's own.  The engine still does the
    scoring -- the traceback only reconstructs paths -- so scores with
    and without ``cigars`` are bit-identical for every engine.

    The built-in engines agree bit for bit, so swapping names never
    changes a score:

    >>> from repro.align.scoring import preset
    >>> from repro.align.sequence import encode
    >>> from repro.align.types import AlignmentTask
    >>> task = AlignmentTask(
    ...     ref=encode("ACGTACGT"), query=encode("ACGTACGT"),
    ...     scoring=preset("figure1"),
    ... )
    >>> [r.score for r in align_tasks([task], engine="scalar")]
    [16]
    >>> [r.score for r in align_tasks([task], engine="vector")]
    [16]
    >>> [tb.cigar.to_string() for tb in align_tasks([task], cigars=True)]
    ['8=']
    """
    opts = options if options is not None else EngineOptions()
    fn = get_engine(engine)
    params = ENGINES.meta(engine).get("option_params", _DEFAULT_OPTION_PARAMS)
    results = fn(tasks, **opts.engine_kwargs(params))
    if cigars:
        return batch_traceback(tasks, results)
    return results
