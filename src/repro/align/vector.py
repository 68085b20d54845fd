"""The struct-of-arrays alignment engine (the ``vector`` backend).

:func:`repro.align.antidiagonal.antidiagonal_align` vectorises *within*
one task; this module adds the second axis of parallelism the paper's
kernels exploit: *inter-task* parallelism.  A bucket of tasks is packed
into struct-of-arrays buffers (:func:`pack_tasks`: the GASAL2-style
batch interface -- padded 2-D code matrices plus per-task length,
geometry, gap-penalty and termination vectors) and the banded wavefront
sweep advances **all tasks of a bucket simultaneously**, one whole-array
operation per anti-diagonal.

Bucketing
---------
Tasks of wildly different sizes would waste padded lanes, so a workload
is first split into size-homogeneous buckets with
:func:`repro.core.uneven_bucketing.length_bucket_order` (sorted by
anti-diagonal count, the quantity that bounds sweep length).  This is the
SIMD mirror image of the paper's uneven bucketing: warps want *mixed*
workloads so rejoining can balance them, a data-parallel batch wants
*matched* workloads so padding is cheap.

Shifted views and panels
------------------------
The in-band row window only ever *slides*: between consecutive
anti-diagonals the lower row bound ``j_lo`` grows by 0 or 1 (each term
of its ``max`` is non-decreasing and grows by at most one), so the
previous wavefront is read through one of two *shifted views* of a
guard-padded buffer instead of a gather -- and the two-back H wavefront
through one of three.  Everything that depends only on the band geometry
-- row windows, shift selectors, lane masks, matrix-edge positions and
the substitution scores of every in-band cell -- is precomputed for a
whole *panel* of anti-diagonals in one set of array operations, so the
per-anti-diagonal step is reduced to a handful of whole-array integer
ufunc calls: shifted-view selects, the E/F/H maxima, the masked store,
one ``argmax`` for max-cell tracking and the vectorised Z-drop/X-drop
update.

Exactness
---------
The engine performs the scalar sweep's integer arithmetic in the scalar
sweep's order, so scores, maximum cells, termination anti-diagonals, work
counters and per-anti-diagonal profiles are bit-identical to
:func:`repro.align.antidiagonal.antidiagonal_align` and the
:func:`repro.align.reference.reference_align` oracle
(``tests/align/test_batch.py`` and ``tests/align/test_vector.py`` pin all
of it, including hypothesis property suites).  In particular:

* stored E/F/H lanes are masked to the live lane window, so a lane
  outside a task's band never contributes;
* guard columns on both sides of every buffer stay ``NEG_INF``, so a
  shifted view that peeks one lane outside the stored window reads
  ``NEG_INF``, exactly like the scalar engine's bounds-checked gathers;
* the termination condition is evaluated every anti-diagonal against
  the pre-update global maximum, like the scalar engine.

Every task carries its own Z-drop / X-drop parameters; a task whose
condition fires drops out of the active lane mask while the rest of its
bucket keeps sweeping.

Sliced termination and lane compaction
--------------------------------------
Masking a terminated task hides it from the arithmetic but not from the
*buffers*.  With ``slice_width`` set (the default,
:data:`DEFAULT_SLICE_WIDTH`) the sweep is cut into slices with the slice
geometry of the GPU-side simulator
(:func:`repro.core.sliced_diagonal.slice_ranges`), and at every slice
boundary terminated and completed tasks are *compacted* out of the
buffers: survivors are re-packed into fewer rows and the lane axis
shrinks to the widest surviving band -- the data-parallel analogue of
the paper's sliced termination (Section 4.2) and subwarp rejoining
(Section 4.3).  ``slice_width=None`` is the dense sweep, which keeps a
bucket's buffers at full size until its last task finishes; the two
differ in wall-clock only (``benchmarks/test_vector_engine.py``
measures the ablation).

Streaming
---------
The sweep is a resumable stream (:class:`VectorStream`, implementing the
:class:`repro.align.streaming.InFlightBatch` contract): every task
carries its own anti-diagonal offset, so a task admitted at any slice
boundary sweeps exactly as if it had started a fresh batch.
:func:`vector_align` is the open-everything-then-drain wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Optional, Sequence, Tuple, Union, overload

import numpy as np

from repro.align.banding import BandGeometry
from repro.align.streaming import SliceStats
from repro.align.termination import NEG_INF
from repro.align.types import AlignmentProfile, AlignmentResult, AlignmentTask
from repro.core.uneven_bucketing import length_bucket_order

__all__ = [
    "DEFAULT_BUCKET_SIZE",
    "DEFAULT_SLICE_WIDTH",
    "DEFAULT_VECTOR_BUCKET_SIZE",
    "PANEL_WIDTH",
    "TaskBatch",
    "VectorStream",
    "pack_tasks",
    "vector_align",
]

#: Bucket size the workflow layers (``Session``, ``ServeConfig``,
#: ``LongReadMapper``, ``KernelConfig``) hand the engine unless told
#: otherwise: small enough that the length spread inside one sorted
#: bucket stays narrow.
DEFAULT_BUCKET_SIZE: int = 64

#: Bucket size of a bare :func:`vector_align` call (and of the registered
#: engine called without options).  The per-anti-diagonal Python dispatch
#: is amortised over the whole bucket, and the slice-boundary compaction
#: keeps the padding waste of a big sorted bucket small.
DEFAULT_VECTOR_BUCKET_SIZE: int = 256

#: Default compaction slice width, in cell anti-diagonals: the paper's
#: slice geometry (``slice_width`` 3 block anti-diagonals of 8x8 blocks)
#: expressed in cells.
DEFAULT_SLICE_WIDTH: int = 24

#: Anti-diagonals whose geometry, shift selectors, lane masks, edges and
#: substitution scores are precomputed in one shot.  Bounds the panel
#: buffers to ``PANEL_WIDTH x bucket x lanes`` elements.
PANEL_WIDTH: int = 32

# Per-task termination kinds (vectorised counterpart of the
# TerminationCondition subclasses).
_TERM_NONE = 0
_TERM_ZDROP = 1
_TERM_XDROP = 2

_TERMINATION_KINDS = ("zdrop", "xdrop", "none")


# ----------------------------------------------------------------------
# packing
# ----------------------------------------------------------------------
@dataclass
class TaskBatch:
    """Struct-of-arrays packing of one bucket of alignment tasks.

    All arrays share the task axis (length ``B``).  Sequences are padded
    to the bucket maxima; per-task lengths and band diagonals delimit the
    valid region exactly as :class:`~repro.align.banding.BandGeometry`
    does for one task.
    """

    tasks: List[AlignmentTask]
    ref_buf: np.ndarray  # (B, max_ref)  uint8, zero-padded
    query_buf: np.ndarray  # (B, max_query) uint8, zero-padded
    ref_len: np.ndarray  # (B,) int64
    query_len: np.ndarray  # (B,) int64
    diag_lo: np.ndarray  # (B,) int64 band diagonal range
    diag_hi: np.ndarray  # (B,) int64
    num_antidiagonals: np.ndarray  # (B,) int64
    sub_stack: np.ndarray  # (S, 5, 5) int64 substitution matrices
    scheme_idx: np.ndarray  # (B,) intp index into sub_stack
    gap_open: np.ndarray  # (B,) int64 (alpha)
    gap_extend: np.ndarray  # (B,) int64 (beta)
    term_kind: np.ndarray  # (B,) uint8 (_TERM_*)
    term_threshold: np.ndarray  # (B,) int64 (Z or X threshold)

    @property
    def size(self) -> int:
        """Number of tasks in the batch."""
        return len(self.tasks)

    @property
    def max_lanes(self) -> int:
        """Widest in-band anti-diagonal of any task (the lane axis)."""
        if self.size == 0:
            return 0
        lanes = _lane_bounds(self.ref_len, self.query_len, self.diag_lo, self.diag_hi)
        return int(max(lanes.max(initial=0), 0))


def _lane_bounds(
    ref_len: np.ndarray,
    query_len: np.ndarray,
    diag_lo: np.ndarray,
    diag_hi: np.ndarray,
) -> np.ndarray:
    """Per-task upper bound on in-band cells of any one anti-diagonal.

    No anti-diagonal of a task holds more in-band cells than
    ``min(ref_len, query_len, band)`` where ``band`` counts the task's
    same-parity diagonals.  :attr:`TaskBatch.max_lanes` sizes the lane
    axis with this bound, and the slice-boundary compaction shrinks it
    with the same bound -- they must stay one formula, because the
    compaction's "trimming keeps every valid lane" invariant is exactly
    that the stored wavefront never exceeds it.
    """
    band = np.where(diag_hi >= diag_lo, (diag_hi - diag_lo) // 2 + 1, 0)
    return np.minimum.reduce([ref_len, query_len, band])


def _resolve_termination(task: AlignmentTask, kind: str) -> tuple[int, int]:
    """Per-task (kind, threshold) mirroring ``make_termination``."""
    scoring = task.scoring
    if kind == "none" or not scoring.has_termination:
        return _TERM_NONE, 0
    if kind == "zdrop":
        return _TERM_ZDROP, scoring.zdrop
    return _TERM_XDROP, scoring.zdrop


def _check_termination(termination: str) -> None:
    if termination not in _TERMINATION_KINDS:
        raise ValueError(
            f"unknown termination kind {termination!r}; "
            f"expected one of {_TERMINATION_KINDS}"
        )


def pack_tasks(
    tasks: Sequence[AlignmentTask], termination: str = "zdrop"
) -> TaskBatch:
    """Pack ``tasks`` into one struct-of-arrays :class:`TaskBatch`.

    Parameters
    ----------
    tasks:
        The tasks of one bucket (ideally of similar size; see
        :func:`repro.core.uneven_bucketing.length_bucket_order`).
    termination:
        ``"zdrop"`` (the exact guided algorithm), ``"xdrop"`` (LOGAN /
        Manymap-style) or ``"none"``.  A task whose scheme has
        ``zdrop == 0`` gets no termination regardless, exactly like
        :func:`repro.align.termination.make_termination`.
    """
    _check_termination(termination)
    tasks = list(tasks)
    n = len(tasks)
    max_ref = max((t.ref_len for t in tasks), default=0)
    max_query = max((t.query_len for t in tasks), default=0)
    ref_buf = np.zeros((n, max(max_ref, 1)), dtype=np.uint8)
    query_buf = np.zeros((n, max(max_query, 1)), dtype=np.uint8)
    ref_len = np.zeros(n, dtype=np.int64)
    query_len = np.zeros(n, dtype=np.int64)
    diag_lo = np.zeros(n, dtype=np.int64)
    diag_hi = np.zeros(n, dtype=np.int64)
    num_ad = np.zeros(n, dtype=np.int64)
    gap_open = np.zeros(n, dtype=np.int64)
    gap_extend = np.zeros(n, dtype=np.int64)
    term_kind = np.zeros(n, dtype=np.uint8)
    term_threshold = np.zeros(n, dtype=np.int64)
    scheme_idx = np.zeros(n, dtype=np.intp)

    schemes: dict = {}
    sub_mats: List[np.ndarray] = []
    for b, task in enumerate(tasks):
        ref_buf[b, : task.ref_len] = task.ref
        query_buf[b, : task.query_len] = task.query
        ref_len[b] = task.ref_len
        query_len[b] = task.query_len
        geom = task.geometry
        diag_lo[b] = geom.diag_lo
        diag_hi[b] = geom.diag_hi
        num_ad[b] = geom.num_antidiagonals
        scoring = task.scoring
        gap_open[b] = scoring.gap_open
        gap_extend[b] = scoring.gap_extend
        term_kind[b], term_threshold[b] = _resolve_termination(task, termination)
        if scoring not in schemes:
            schemes[scoring] = len(sub_mats)
            sub_mats.append(scoring.substitution_matrix().astype(np.int64))
        scheme_idx[b] = schemes[scoring]

    sub_stack = (
        np.stack(sub_mats) if sub_mats else np.zeros((1, 5, 5), dtype=np.int64)
    )
    return TaskBatch(
        tasks=tasks,
        ref_buf=ref_buf,
        query_buf=query_buf,
        ref_len=ref_len,
        query_len=query_len,
        diag_lo=diag_lo,
        diag_hi=diag_hi,
        num_antidiagonals=num_ad,
        sub_stack=sub_stack,
        scheme_idx=scheme_idx,
        gap_open=gap_open,
        gap_extend=gap_extend,
        term_kind=term_kind,
        term_threshold=term_threshold,
    )


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------


def _batch_bound(batch: TaskBatch) -> Dict[str, int]:
    """Components of the worst-case value bound of sweeping ``batch``.

    The buffer values live in ``[NEG_INF - (alpha + beta), score_max]``
    where every score is bounded by the band cells times the largest
    substitution magnitude plus the deepest edge cost.  When the combined
    bound (with generous margin) fits ``int32``
    (:func:`_fits_int32`), the 32-bit sweep performs the exact same
    integer arithmetic as the 64-bit one -- results stay bit-identical --
    at half the memory traffic.  Pathological schemes fall back to
    ``int64``.  A stream keeps the running maximum of each component
    across admissions: a task admitted mid-sweep can force a *lossless*
    upcast of the live buffers, but never an exactness-breaking
    downcast.
    """
    return {
        "open": int(batch.gap_open.max(initial=0)),
        "extend": int(batch.gap_extend.max(initial=0)),
        "sub": int(np.abs(batch.sub_stack).max(initial=0)),
        "thr": int(np.abs(batch.term_threshold).max(initial=0)),
        "reach": int(batch.num_antidiagonals.max(initial=0)) + 2,
    }


def _fits_int32(bound: Dict[str, int]) -> bool:
    """Whether a sweep with these bound components fits ``int32``."""
    worst = (
        bound["open"]
        + (bound["extend"] + bound["sub"]) * bound["reach"]
        + bound["thr"]
    )
    return worst < 2**29


class _Panel:
    """Geometry, shift selectors, masks and match scores for a panel.

    Everything here depends only on the band geometry and the packed
    sequences -- never on the wavefront values -- so it is computed for
    ``panel`` anti-diagonals with one set of whole-array operations and
    indexed by in-panel step ``s`` during the sweep.
    """

    __slots__ = (
        "lo",
        "jlo",
        "count",
        "d1_val",
        "d1_is1",
        "d2_val",
        "d2_is0",
        "d2_is2",
        "inv_mask",
        "match",
        "top_sel",
        "top_lane",
        "left_sel",
        "edge_cost",
        "diag_cost",
    )

    def __init__(
        self,
        p_lo: int,
        p_hi: int,
        *,
        width: int,
        ref_flat: np.ndarray,
        ref_stride: int,
        query_flat: np.ndarray,
        query_stride: int,
        ref_len: np.ndarray,
        query_len: np.ndarray,
        diag_lo: np.ndarray,
        diag_hi: np.ndarray,
        sub_flat: np.ndarray,
        scheme_off: Optional[np.ndarray],
        alpha: np.ndarray,
        beta: np.ndarray,
        start: np.ndarray,
    ) -> None:
        m = ref_len.shape[0]
        span = p_hi - p_lo
        self.lo = p_lo
        # Lower row bound for anti-diagonals p_lo-2 .. p_hi-1 in one shot:
        # the two extra leading rows give the shift deltas of the panel's
        # first anti-diagonals.  Global steps translate to per-task local
        # anti-diagonal counts through the admission offset ``start`` (all
        # zeros in a one-shot sweep).  For local counts < 0 the formula
        # yields garbage, but those deltas are never *used*: at count 0
        # both wavefront buffers are all-NEG_INF and at count 1 the
        # two-back buffer still is, so every shifted view reads NEG_INF
        # whichever view is selected.
        cs_ext = (
            np.arange(p_lo - 2, p_hi, dtype=np.int64)[:, None] - start[None, :]
        )
        jlo_ext = np.maximum(
            np.maximum(cs_ext - ref_len[None, :] + 1, 0),
            -((diag_hi[None, :] - cs_ext) // 2),
        )
        jlo = jlo_ext[2:]
        d1 = jlo - jlo_ext[1:-1]
        d2 = jlo - jlo_ext[:-2]
        self.jlo = jlo
        # Per-anti-diagonal uniform shift (or -1 when tasks disagree):
        # when every live task shares one delta the select collapses to a
        # single shifted view, no blend needed.
        self.d1_val = np.where(
            (d1 == d1[:, :1]).all(axis=1), d1[:, 0], -1
        )
        self.d1_is1 = (d1 == 1)[:, :, None]
        self.d2_val = np.where(
            (d2 == d2[:, :1]).all(axis=1), d2[:, 0], -1
        )
        self.d2_is0 = (d2 == 0)[:, :, None]
        self.d2_is2 = (d2 == 2)[:, :, None]

        cs = cs_ext[2:]
        jhi = np.minimum(
            np.minimum(query_len[None, :] - 1, cs), (cs - diag_lo[None, :]) // 2
        )
        count = np.maximum(jhi - jlo + 1, 0)
        self.count = count

        lane = np.arange(width, dtype=np.int32)
        self.inv_mask = lane[None, None, :] >= count[:, :, None]

        # Sequence codes through flat ``take`` gathers: the row/column of
        # every in-band cell collapses to one int32 flat index per lane
        # (clip mode soaks up the junk indices of empty lanes, whose
        # match values are masked out of every observable anyway).
        rows = jlo.astype(np.int32)[:, :, None] + lane
        cols = cs.astype(np.int32)[:, :, None] - rows
        rofs = (np.arange(m, dtype=np.int32) * ref_stride)[None, :, None]
        qofs = (np.arange(m, dtype=np.int32) * query_stride)[None, :, None]
        ref_codes = ref_flat.take(cols + rofs, mode="clip")
        query_codes = query_flat.take(rows + qofs, mode="clip")
        # Substitution scores from the flattened (scheme, ref, query)
        # table; codes fit uint8, so with one scoring scheme the whole
        # lookup is a 25-entry take.  ``sub_flat`` arrives pre-cast to
        # the sweep dtype.
        code = ref_codes * np.uint8(5) + query_codes
        if scheme_off is not None:
            code = code + scheme_off[None, :, None]
        self.match = sub_flat.take(code)

        # Matrix-edge cells: the top edge (i == 0) sits at lane c - j_lo
        # exactly when the band still reaches row c; the left edge
        # (j == 0) at lane 0 exactly when j_lo == 0.  Both edge H values
        # on local anti-diagonal c cost -(alpha + (c+1)*beta) and both
        # diagonal predecessors -(alpha + c*beta), except the corner
        # (local count 0), whose diagonal predecessor is the origin with
        # score 0 -- folding that per task into ``diag_cost`` is what
        # keeps staggered admissions exact.  Edges only exist while the
        # band still touches the matrix rim, so most panels skip the
        # whole block.
        has_top = (jhi == cs) & (count > 0)
        has_left = (jlo == 0) & (count > 0)
        if has_top.any() or has_left.any():
            self.top_lane = cs - jlo
            self.edge_cost = -(alpha[None, :] + (cs + 1) * beta[None, :])
            self.diag_cost = np.where(
                cs == 0, 0, -(alpha[None, :] + cs * beta[None, :])
            )
            self.top_sel: Optional[List[np.ndarray]] = [
                np.flatnonzero(has_top[s]) for s in range(span)
            ]
            self.left_sel = [np.flatnonzero(has_left[s]) for s in range(span)]
        else:
            self.top_lane = self.edge_cost = self.diag_cost = None
            self.top_sel = None
            self.left_sel = None


def _panels(lo: int, hi: int) -> List[tuple[int, int]]:
    """Cut ``[lo, hi)`` into precompute panels of ``PANEL_WIDTH``."""
    return [(p, min(p + PANEL_WIDTH, hi)) for p in range(lo, hi, PANEL_WIDTH)]


class VectorStream:
    """Resumable whole-array sweep: the ``vector`` engine's in-flight
    batch (:class:`repro.align.streaming.InFlightBatch`).

    ``vector_align`` is ``VectorStream(bucket).drain()`` per bucket; the
    serve scheduler instead holds a long-lived stream, interleaving
    :meth:`step` with :meth:`admit` so new requests occupy the lanes
    slice-boundary compaction freed.

    Exactness hinges on one generalisation: the sweep keeps a *global*
    step counter and per-task admission offsets (``start``) that
    translate it into each task's local anti-diagonal count.  The panel
    precompute (:class:`_Panel`) is built on those local counts, so a
    freshly admitted task's geometry, edge costs and corner handling are
    exactly those of a fresh sweep, and its wavefront rows start
    all-``NEG_INF``.  Tasks only interact through buffer *shape* (masked
    out of all arithmetic), so a task's results are independent of who
    shares its buffers or when it was admitted.  The ``int32`` fast path
    is decided from a running
    worst-case bound over every admission (:func:`_batch_bound`): a
    later admission may upcast the live buffers to ``int64``
    (value-preserving, hence exact) but never downcasts.
    """

    def __init__(
        self,
        tasks: Sequence[AlignmentTask] = (),
        *,
        capacity: Optional[int] = None,
        slice_width: Optional[int] = DEFAULT_SLICE_WIDTH,
        termination: str = "zdrop",
        collect_profiles: bool = False,
    ) -> None:
        if slice_width is not None and slice_width <= 0:
            raise ValueError("slice_width must be positive (or None for dense)")
        _check_termination(termination)
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive")
        self._slice_width = slice_width
        self._termination = termination
        self._collect_profiles = collect_profiles
        self._g = 0  # global anti-diagonal step counter
        self._since_admit = 0
        self._stats: List[SliceStats] = []
        self._fresh: List[Tuple[int, AlignmentResult]] = []

        # Admission-order records (grow with every admit()).
        self._tasks: List[AlignmentTask] = []
        self._results: List[Optional[AlignmentResult]] = []
        self._best_score = np.full(0, NEG_INF, dtype=np.int64)
        self._best_i = np.full(0, -1, dtype=np.int64)
        self._best_j = np.full(0, -1, dtype=np.int64)
        self._fired = np.zeros(0, dtype=bool)
        self._ad_count = np.zeros(0, dtype=np.int64)
        self._cells_count = np.zeros(0, dtype=np.int64)
        self._maxima_buf = np.zeros((0, 0), dtype=np.int64)
        self._cells_buf = np.zeros((0, 0), dtype=np.int64)

        # Stream-wide scheme stack, sweep dtype and its running bound.
        self._scheme_table: Dict[object, int] = {}
        self._sub_mats: List[np.ndarray] = []
        self._sub_stack = np.zeros((1, 5, 5), dtype=np.int64)
        self._dt: type = np.int64
        self._bound = {"open": 0, "extend": 0, "sub": 0, "thr": 0, "reach": 0}

        # Live task-axis state (compacted at every slice boundary).
        self._m = 0
        self._width = 0
        self._orig = np.zeros(0, dtype=np.intp)
        self._ref_buf = np.zeros((0, 1), dtype=np.uint8)
        self._query_buf = np.zeros((0, 1), dtype=np.uint8)
        self._ref_len = np.zeros(0, dtype=np.int64)
        self._query_len = np.zeros(0, dtype=np.int64)
        self._diag_lo = np.zeros(0, dtype=np.int64)
        self._diag_hi = np.zeros(0, dtype=np.int64)
        self._num_ad = np.zeros(0, dtype=np.int64)
        self._scheme_idx = np.zeros(0, dtype=np.intp)
        self._z_sel = np.zeros(0, dtype=bool)
        self._x_sel = np.zeros(0, dtype=bool)
        self._term_threshold = np.zeros(0, dtype=np.int64)
        self._alpha = np.zeros(0, dtype=np.int64)
        self._beta = np.zeros(0, dtype=np.int64)
        self._start = np.zeros(0, dtype=np.int64)
        # Live accumulators (compact mirrors of the admission-order
        # records, flushed at retirement, so the per-anti-diagonal
        # update never fancy-indexes).
        self._l_best = np.full(0, NEG_INF, dtype=np.int64)
        self._l_bi = np.full(0, -1, dtype=np.int64)
        self._l_bj = np.full(0, -1, dtype=np.int64)
        self._l_fired = np.zeros(0, dtype=bool)
        self._l_adc = np.zeros(0, dtype=np.int64)
        self._l_cells = np.zeros(0, dtype=np.int64)
        # Guard-padded wavefront buffers: lane l of anti-diagonal c-1
        # (ha) and c-2 (hb) lives in column l+1; columns 0 and width+1
        # stay NEG_INF so shifted views that step outside the window
        # read NEG_INF, exactly like the scalar engine's bounds-checked
        # gathers.  E and F are stored pre-combined with their H
        # alternative -- ``ge = max(H - open, E - extend)`` and ``gf =
        # max(H - open, F - extend)`` -- so the next anti-diagonal
        # recovers E/F with one shifted read and one clamp.
        self._ha = np.full((0, 2), NEG_INF, dtype=np.int64)
        self._hb = np.full((0, 2), NEG_INF, dtype=np.int64)
        self._geb = np.full((0, 2), NEG_INF, dtype=np.int64)
        self._gfb = np.full((0, 2), NEG_INF, dtype=np.int64)
        self._rebind()

        tasks = list(tasks)
        self._capacity = int(capacity) if capacity is not None else max(len(tasks), 1)
        if tasks:
            self.admit(tasks)

    # ------------------------------------------------------------------
    # InFlightBatch surface
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def live(self) -> int:
        return self._m

    @property
    def free(self) -> int:
        return self._capacity - self._m

    @property
    def admitted(self) -> int:
        return len(self._tasks)

    @property
    def done(self) -> bool:
        return self._m == 0

    @property
    def stats(self) -> Tuple[SliceStats, ...]:
        return tuple(self._stats)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(self, tasks: Sequence[AlignmentTask]) -> List[int]:
        """Inject ``tasks`` into free lanes at the current slice boundary.

        Returns their admission indices (the positions their results will
        occupy in :meth:`drain` / :meth:`take_completed` pairs).  Raises
        ``ValueError`` when fewer than ``len(tasks)`` lanes are free.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if len(tasks) > self.free:
            raise ValueError(
                f"cannot admit {len(tasks)} task(s): only {self.free} of "
                f"{self._capacity} lanes are free"
            )
        batch = pack_tasks(tasks, self._termination)
        b = batch.size

        # Deduplicate scoring schemes into the stream-wide stack.
        scheme_idx = np.zeros(b, dtype=np.intp)
        grew = False
        for k, task in enumerate(batch.tasks):
            key = task.scoring
            index = self._scheme_table.get(key)
            if index is None:
                index = len(self._sub_mats)
                self._scheme_table[key] = index
                self._sub_mats.append(
                    task.scoring.substitution_matrix().astype(np.int64)
                )
                grew = True
            scheme_idx[k] = index
        if grew:
            self._sub_stack = np.stack(self._sub_mats)

        # Sweep dtype: re-decided freely while no values are in flight,
        # upcast in place (losslessly) when a new admission breaks the
        # running int32 bound.
        incoming = _batch_bound(batch)
        if self._m == 0:
            self._bound = incoming
        else:
            for name, value in incoming.items():
                self._bound[name] = max(self._bound[name], value)
        want = np.int32 if _fits_int32(self._bound) else np.int64
        if self._m == 0:
            self._dt = want
        elif want is np.int64 and self._dt is np.int32:
            self._dt = np.int64
            self._ha = self._ha.astype(np.int64)
            self._hb = self._hb.astype(np.int64)
            self._geb = self._geb.astype(np.int64)
            self._gfb = self._gfb.astype(np.int64)

        first = len(self._tasks)
        indices = list(range(first, first + b))
        self._tasks.extend(batch.tasks)
        self._results.extend([None] * b)
        self._best_score = np.concatenate(
            [self._best_score, np.full(b, NEG_INF, dtype=np.int64)]
        )
        self._best_i = np.concatenate([self._best_i, np.full(b, -1, dtype=np.int64)])
        self._best_j = np.concatenate([self._best_j, np.full(b, -1, dtype=np.int64)])
        self._fired = np.concatenate([self._fired, np.zeros(b, dtype=bool)])
        self._ad_count = np.concatenate([self._ad_count, np.zeros(b, dtype=np.int64)])
        self._cells_count = np.concatenate(
            [self._cells_count, np.zeros(b, dtype=np.int64)]
        )
        if self._collect_profiles:
            cols = max(
                self._maxima_buf.shape[1],
                int(batch.num_antidiagonals.max(initial=0)),
            )
            self._maxima_buf = np.pad(
                self._maxima_buf,
                ((0, b), (0, cols - self._maxima_buf.shape[1])),
            )
            self._cells_buf = np.pad(
                self._cells_buf,
                ((0, b), (0, cols - self._cells_buf.shape[1])),
            )

        self._l_best = np.concatenate(
            [self._l_best, np.full(b, NEG_INF, dtype=np.int64)]
        )
        self._l_bi = np.concatenate([self._l_bi, np.full(b, -1, dtype=np.int64)])
        self._l_bj = np.concatenate([self._l_bj, np.full(b, -1, dtype=np.int64)])
        self._l_fired = np.concatenate([self._l_fired, np.zeros(b, dtype=bool)])
        self._l_adc = np.concatenate([self._l_adc, np.zeros(b, dtype=np.int64)])
        self._l_cells = np.concatenate([self._l_cells, np.zeros(b, dtype=np.int64)])

        # Merge the live task axis: survivors keep their wavefronts, new
        # tasks start from the all-NEG_INF state of a fresh sweep (so
        # their arithmetic is identical to one).
        new_width = max(self._width, batch.max_lanes)
        ref_cols = max(self._ref_buf.shape[1], batch.ref_buf.shape[1], 1)
        query_cols = max(self._query_buf.shape[1], batch.query_buf.shape[1], 1)

        def merge_seq(old: np.ndarray, new: np.ndarray, cols: int) -> np.ndarray:
            out = np.zeros((self._m + b, cols), dtype=np.uint8)
            out[: self._m, : old.shape[1]] = old
            out[self._m :, : new.shape[1]] = new
            return out

        def merge_wave(old: np.ndarray) -> np.ndarray:
            out = np.full((self._m + b, new_width + 2), NEG_INF, dtype=self._dt)
            out[: self._m, : old.shape[1]] = old
            return out

        self._ref_buf = merge_seq(self._ref_buf, batch.ref_buf, ref_cols)
        self._query_buf = merge_seq(self._query_buf, batch.query_buf, query_cols)
        self._ha = merge_wave(self._ha)
        self._hb = merge_wave(self._hb)
        self._geb = merge_wave(self._geb)
        self._gfb = merge_wave(self._gfb)
        self._orig = np.concatenate([self._orig, np.asarray(indices, dtype=np.intp)])
        self._ref_len = np.concatenate([self._ref_len, batch.ref_len])
        self._query_len = np.concatenate([self._query_len, batch.query_len])
        self._diag_lo = np.concatenate([self._diag_lo, batch.diag_lo])
        self._diag_hi = np.concatenate([self._diag_hi, batch.diag_hi])
        self._num_ad = np.concatenate([self._num_ad, batch.num_antidiagonals])
        self._scheme_idx = np.concatenate([self._scheme_idx, scheme_idx])
        self._z_sel = np.concatenate([self._z_sel, batch.term_kind == _TERM_ZDROP])
        self._x_sel = np.concatenate([self._x_sel, batch.term_kind == _TERM_XDROP])
        self._term_threshold = np.concatenate(
            [self._term_threshold, batch.term_threshold]
        )
        self._alpha = np.concatenate([self._alpha, batch.gap_open])
        self._beta = np.concatenate([self._beta, batch.gap_extend])
        self._start = np.concatenate(
            [self._start, np.full(b, self._g, dtype=np.int64)]
        )
        self._m += b
        self._width = new_width
        self._since_admit += b
        self._rebind()
        return indices

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, n_slices: int = 1) -> List[SliceStats]:
        """Advance up to ``n_slices`` slices; returns their stats."""
        if n_slices <= 0:
            raise ValueError("n_slices must be positive")
        out: List[SliceStats] = []
        for _ in range(n_slices):
            if self._m == 0:
                break
            out.append(self._run_slice())
        return out

    def take_completed(self) -> List[Tuple[int, AlignmentResult]]:
        """Results retired since the last call, as (index, result) pairs."""
        fresh, self._fresh = self._fresh, []
        return fresh

    def drain(self) -> List[AlignmentResult]:
        """Run every admitted task to completion; results in admission order."""
        while self._m:
            self._run_slice()
        self._fresh = []
        out: List[AlignmentResult] = []
        for index, result in enumerate(self._results):
            if result is None:  # pragma: no cover - defensive
                raise RuntimeError(f"task {index} was never scored")
            out.append(result)
        return out

    def profiles(self) -> List[AlignmentProfile]:
        """Per-task profiles (requires ``collect_profiles=True`` and done)."""
        if not self._collect_profiles:
            raise ValueError("stream was opened without collect_profiles=True")
        if self._m:
            raise ValueError("profiles() requires a drained stream")
        out = []
        for index, task in enumerate(self._tasks):
            result = self._results[index]
            assert result is not None
            processed = int(self._ad_count[index])
            out.append(
                AlignmentProfile(
                    result=result,
                    antidiag_maxima=self._maxima_buf[index, :processed].copy(),
                    cells_per_antidiag=self._cells_buf[index, :processed].copy(),
                    geometry=BandGeometry(
                        task.ref_len, task.query_len, task.scoring.band_width
                    ),
                )
            )
        return out

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _rebind(self) -> None:
        """Recompute the derived sweep state after a shape/dtype change:
        flat sequence views and per-task scheme offsets for the panel's
        take-based gathers, plus per-anti-diagonal scratch arrays so the
        hot loop allocates nothing (every ufunc writes through ``out=``).
        """
        dt = self._dt
        self._open_col = (self._alpha + self._beta)[:, None].astype(dt)
        self._beta_col = self._beta[:, None].astype(dt)
        self._sub_flat = np.ascontiguousarray(
            self._sub_stack.astype(dt, copy=False)
        ).reshape(-1)
        self._scheme_off = (
            None
            if self._sub_stack.shape[0] == 1
            else (self._scheme_idx * 25).astype(np.int32)
        )
        self._ref_flat = np.ascontiguousarray(self._ref_buf).reshape(-1)
        self._query_flat = np.ascontiguousarray(self._query_buf).reshape(-1)
        m, width = self._m, self._width
        self._e_scr = np.empty((m, width), dtype=dt)
        self._f_scr = np.empty((m, width), dtype=dt)
        self._d_scr = np.empty((m, width), dtype=dt)
        self._h_scr = np.empty((m, width), dtype=dt)
        self._guard = np.empty((m, width), dtype=bool)
        self._task_idx = np.arange(m)
        self._any_fired = bool(self._l_fired.any())
        self._min_end = int((self._start + self._num_ad).min()) if m else 0

    def _flush(self) -> None:
        orig = self._orig
        self._best_score[orig] = self._l_best
        self._best_i[orig] = self._l_bi
        self._best_j[orig] = self._l_bj
        self._fired[orig] = self._l_fired
        self._ad_count[orig] = self._l_adc
        self._cells_count[orig] = self._l_cells

    def _run_slice(self) -> SliceStats:
        slice_lo = self._g
        if self._slice_width is None:
            slice_hi = int((self._start + self._num_ad).max())
        else:
            slice_hi = slice_lo + self._slice_width
        live_before = self._m
        admitted = self._since_admit
        self._since_admit = 0

        # Bind the live state locally for the hot loop.
        ref_buf = self._ref_buf
        query_buf = self._query_buf
        ref_len = self._ref_len
        query_len = self._query_len
        diag_lo = self._diag_lo
        diag_hi = self._diag_hi
        num_ad = self._num_ad
        term_threshold = self._term_threshold
        z_sel, x_sel = self._z_sel, self._x_sel
        alpha, beta = self._alpha, self._beta
        open_col, beta_col = self._open_col, self._beta_col
        start = self._start
        orig = self._orig
        width = self._width
        ha, hb = self._ha, self._hb
        geb, gfb = self._geb, self._gfb
        e_scr, f_scr = self._e_scr, self._f_scr
        d_scr, h_scr = self._d_scr, self._h_scr
        guard = self._guard
        task_idx = self._task_idx
        ref_flat, query_flat = self._ref_flat, self._query_flat
        sub_flat, scheme_off = self._sub_flat, self._scheme_off
        l_best, l_bi, l_bj = self._l_best, self._l_bi, self._l_bj
        l_fired = self._l_fired
        l_adc, l_cells = self._l_adc, self._l_cells
        maxima_buf, cells_buf = self._maxima_buf, self._cells_buf
        collect = self._collect_profiles
        any_fired = self._any_fired
        min_end = self._min_end
        exhausted = False

        for p_lo, p_hi in _panels(slice_lo, slice_hi):
            if exhausted:
                break
            panel = _Panel(
                p_lo,
                p_hi,
                width=width,
                ref_flat=ref_flat,
                ref_stride=ref_buf.shape[1],
                query_flat=query_flat,
                query_stride=query_buf.shape[1],
                ref_len=ref_len,
                query_len=query_len,
                diag_lo=diag_lo,
                diag_hi=diag_hi,
                sub_flat=sub_flat,
                scheme_off=scheme_off,
                alpha=alpha,
                beta=beta,
                start=start,
            )
            for s in range(p_hi - p_lo):
                c = p_lo + s
                # Per-task local anti-diagonal count: tasks admitted at
                # later boundaries lag the global counter by ``start``.
                cv = c - start
                # Fast path: while nothing has fired and every live task
                # still has anti-diagonals left, the active mask is all
                # ones and never needs materialising.
                all_active = not any_fired and c < min_end
                if all_active:
                    active = None
                else:
                    active = ~l_fired & (cv < num_ad)
                    if not active.any():
                        exhausted = True
                        break

                cnt = panel.count[s]
                if active is None:
                    inv_s = panel.inv_mask[s]
                else:
                    cnt = np.where(active, cnt, 0)
                    inv_s = panel.inv_mask[s] | ~active[:, None]

                # Previous wavefront through shifted views: between
                # anti-diagonals j_lo grows by delta1 in {0, 1} (and by
                # delta2 in {0, 1, 2} over two), so lane l of the new
                # window maps to stored column l + delta + offset.  When
                # every task shares one delta the select is a plain view;
                # mixed deltas blend with masked copies into the scratch.
                d1v = panel.d1_val[s]
                if d1v == 1:
                    np.maximum(geb[:, 2:], NEG_INF, out=e_scr)
                    np.maximum(gfb[:, 1:-1], NEG_INF, out=f_scr)
                elif d1v == 0:
                    np.maximum(geb[:, 1:-1], NEG_INF, out=e_scr)
                    np.maximum(gfb[:, :-2], NEG_INF, out=f_scr)
                else:
                    d1b = panel.d1_is1[s]
                    np.copyto(e_scr, geb[:, 1:-1])
                    np.copyto(e_scr, geb[:, 2:], where=d1b)
                    np.maximum(e_scr, NEG_INF, out=e_scr)
                    np.copyto(f_scr, gfb[:, :-2])
                    np.copyto(f_scr, gfb[:, 1:-1], where=d1b)
                    np.maximum(f_scr, NEG_INF, out=f_scr)

                d2v = panel.d2_val[s]
                if d2v == 0:
                    diag_h: np.ndarray = hb[:, :-2]
                elif d2v == 1:
                    diag_h = hb[:, 1:-1]
                elif d2v == 2:
                    diag_h = hb[:, 2:]
                else:
                    np.copyto(d_scr, hb[:, 1:-1])
                    np.copyto(d_scr, hb[:, :-2], where=panel.d2_is0[s])
                    np.copyto(d_scr, hb[:, 2:], where=panel.d2_is2[s])
                    diag_h = d_scr
                match_s = panel.match[s]
                np.less_equal(diag_h, NEG_INF, out=guard)
                np.add(diag_h, match_s, out=d_scr)
                np.copyto(d_scr, NEG_INF, where=guard)

                # Matrix-edge overrides (rare: only while the band still
                # touches row 0 or column 0).  E at a top edge is
                # max(edge_H - open, NEG_INF - extend) clamped, i.e. the
                # clamped edge cost minus the open cost; a forced diagonal
                # predecessor always beats the NEG_INF guard, so it folds
                # straight into diag_val.  Masked stores make a fired
                # task's override harmless, so `active` is not consulted.
                if panel.top_sel is not None:
                    tsel = panel.top_sel[s]
                    lsel = panel.left_sel[s]
                    if tsel.size or lsel.size:
                        ecost = panel.edge_cost[s]
                        dcost = panel.diag_cost[s]
                        oc_edge = alpha + beta
                        if tsel.size:
                            tl = panel.top_lane[s][tsel]
                            e_scr[tsel, tl] = np.maximum(
                                ecost[tsel] - oc_edge[tsel], NEG_INF
                            )
                            # The corner (local count 0) is already
                            # folded into diag_cost per task: its
                            # diagonal predecessor is the origin with
                            # score 0, not an edge cost.
                            d_scr[tsel, tl] = dcost[tsel] + match_s[tsel, tl]
                        if lsel.size:
                            f_scr[lsel, 0] = np.maximum(
                                ecost[lsel] - oc_edge[lsel], NEG_INF
                            )
                            d_scr[lsel, 0] = dcost[lsel] + match_s[lsel, 0]

                # E and F are already clamped at NEG_INF, so the H
                # maximum needs no extra clamp.
                np.maximum(e_scr, f_scr, out=h_scr)
                np.maximum(h_scr, d_scr, out=h_scr)
                np.copyto(h_scr, NEG_INF, where=inv_s)
                h_m = h_scr

                k = np.argmax(h_m, axis=1)
                local_best = h_m[task_idx, k]
                local_j = panel.jlo[s] + k
                local_i = cv - local_j

                if active is None:
                    l_adc += 1
                else:
                    l_adc += active
                l_cells += cnt
                if collect:
                    if active is None:
                        maxima_buf[orig, cv] = np.where(
                            cnt > 0, local_best, NEG_INF
                        )
                        cells_buf[orig, cv] = cnt
                    else:
                        maxima_buf[orig[active], cv[active]] = np.where(
                            cnt > 0, local_best, NEG_INF
                        )[active]
                        cells_buf[orig[active], cv[active]] = cnt[active]

                # Termination: check against the pre-update global
                # maximum, then fold the local maximum in (the exact
                # ordering of TerminationCondition.update).
                cond = local_best > NEG_INF
                if active is not None:
                    cond &= active
                drop = l_best - local_best
                diag_offset = np.abs((local_i - l_bi) - (local_j - l_bj))
                fire = (
                    cond
                    & (l_best > NEG_INF)
                    & (
                        (z_sel & (drop > term_threshold + beta * diag_offset))
                        | (x_sel & (drop > term_threshold))
                    )
                )
                if fire.any():
                    l_fired |= fire
                    any_fired = True
                improve = cond & ~fire & (local_best > l_best)
                l_best = np.where(improve, local_best, l_best)
                l_bi = np.where(improve, local_i, l_bi)
                l_bj = np.where(improve, local_j, l_bj)

                # Advance: the two-back H buffer becomes this
                # anti-diagonal's store (masked to the live lane window)
                # and the roles swap; E/F are stored
                # pre-combined with H so the next anti-diagonal reads one
                # buffer per direction.
                hb[:, 1:-1] = h_m
                np.subtract(h_m, open_col, out=d_scr)
                np.copyto(e_scr, NEG_INF, where=inv_s)
                np.subtract(e_scr, beta_col, out=e_scr)
                np.maximum(d_scr, e_scr, out=geb[:, 1:-1])
                np.copyto(f_scr, NEG_INF, where=inv_s)
                np.subtract(f_scr, beta_col, out=f_scr)
                np.maximum(d_scr, f_scr, out=gfb[:, 1:-1])
                ha, hb = hb, ha

        self._ha, self._hb = ha, hb
        self._l_best, self._l_bi, self._l_bj = l_best, l_bi, l_bj
        self._any_fired = any_fired
        self._g = slice_hi

        completed, terminated = self._retire()
        stat = SliceStats(
            index=len(self._stats),
            admitted=admitted,
            live_before=live_before,
            completed=completed,
            terminated=terminated,
            capacity=self._capacity,
        )
        self._stats.append(stat)
        return stat

    def _retire(self) -> Tuple[int, int]:
        """Retire finished live tasks and compact the buffers.

        Identical policy to the one-shot compaction this replaced: a task
        leaves the buffers once its termination fired or its band is
        exhausted (``global_step - start >= num_antidiagonals``);
        survivors are re-packed into fewer rows and the lane axis shrinks
        to the widest surviving band.
        """
        done = self._l_fired | (self._g - self._start >= self._num_ad)
        if not done.any():
            return 0, 0
        self._flush()
        done_idx = self._orig[done]
        terminated = int(self._l_fired[done].sum())
        for index in done_idx.tolist():
            score = self._best_score[index]
            result = AlignmentResult(
                score=int(score) if score > NEG_INF else 0,
                max_i=int(self._best_i[index]),
                max_j=int(self._best_j[index]),
                terminated=bool(self._fired[index]),
                antidiagonals_processed=int(self._ad_count[index]),
                cells_computed=int(self._cells_count[index]),
            )
            self._results[index] = result
            self._fresh.append((index, result))

        live = np.flatnonzero(~done)
        self._orig = self._orig[live]
        self._ref_len = self._ref_len[live]
        self._query_len = self._query_len[live]
        self._diag_lo = self._diag_lo[live]
        self._diag_hi = self._diag_hi[live]
        self._num_ad = self._num_ad[live]
        self._scheme_idx = self._scheme_idx[live]
        self._z_sel = self._z_sel[live]
        self._x_sel = self._x_sel[live]
        self._term_threshold = self._term_threshold[live]
        self._alpha = self._alpha[live]
        self._beta = self._beta[live]
        self._start = self._start[live]
        self._l_best = self._l_best[live]
        self._l_bi = self._l_bi[live]
        self._l_bj = self._l_bj[live]
        self._l_fired = self._l_fired[live]
        self._l_adc = self._l_adc[live]
        self._l_cells = self._l_cells[live]
        lanes = _lane_bounds(
            self._ref_len, self._query_len, self._diag_lo, self._diag_hi
        )
        new_width = int(max(lanes.max(initial=0), 0))
        self._ref_buf = self._ref_buf[
            live, : max(int(self._ref_len.max(initial=0)), 1)
        ]
        self._query_buf = self._query_buf[
            live, : max(int(self._query_len.max(initial=0)), 1)
        ]
        self._ha = self._ha[live, : new_width + 2].copy()
        self._hb = self._hb[live, : new_width + 2].copy()
        self._geb = self._geb[live, : new_width + 2].copy()
        self._gfb = self._gfb[live, : new_width + 2].copy()
        self._ha[:, -1] = NEG_INF
        self._hb[:, -1] = NEG_INF
        self._geb[:, -1] = NEG_INF
        self._gfb[:, -1] = NEG_INF
        self._width = new_width
        self._m = live.size
        self._rebind()
        return int(done_idx.size), terminated


@overload
def vector_align(
    tasks: Sequence[AlignmentTask],
    *,
    termination: str = ...,
    bucket_size: int = ...,
    return_profiles: Literal[False] = ...,
    slice_width: Optional[int] = ...,
) -> List[AlignmentResult]: ...


@overload
def vector_align(
    tasks: Sequence[AlignmentTask],
    *,
    termination: str = ...,
    bucket_size: int = ...,
    return_profiles: Literal[True],
    slice_width: Optional[int] = ...,
) -> List[AlignmentProfile]: ...


def vector_align(
    tasks: Sequence[AlignmentTask],
    *,
    termination: str = "zdrop",
    bucket_size: int = DEFAULT_VECTOR_BUCKET_SIZE,
    return_profiles: bool = False,
    slice_width: Optional[int] = DEFAULT_SLICE_WIDTH,
) -> Union[List[AlignmentResult], List[AlignmentProfile]]:
    """Align every task with the whole-array vector engine.

    Tasks are bucketed by anti-diagonal count (so the padded sweep wastes
    little work), each bucket is packed with :func:`pack_tasks` and swept
    in one go, and the outputs are returned **in input order**,
    bit-identical to :func:`repro.align.antidiagonal.antidiagonal_align`
    run per task with the matching termination condition.

    Parameters
    ----------
    tasks:
        Any mix of sizes and scoring schemes.
    termination:
        ``"zdrop"`` / ``"xdrop"`` / ``"none"`` (per-task thresholds come
        from each task's scoring scheme).
    bucket_size:
        Maximum tasks swept simultaneously.
    return_profiles:
        Return :class:`AlignmentProfile` objects (with per-anti-diagonal
        maxima and cell counts) instead of plain results.
    slice_width:
        Anti-diagonals between compaction points (see the module
        docstring), or ``None`` for the dense sweep.
    """
    if slice_width is not None and slice_width <= 0:
        raise ValueError("slice_width must be positive (or None for dense)")
    tasks = list(tasks)
    if not tasks:
        return []
    workloads = [t.num_antidiagonals for t in tasks]
    out: List = [None] * len(tasks)
    for bucket in length_bucket_order(workloads, bucket_size):
        stream = VectorStream(
            [tasks[i] for i in bucket],
            slice_width=slice_width,
            termination=termination,
            collect_profiles=return_profiles,
        )
        results = stream.drain()
        swept: Sequence = stream.profiles() if return_profiles else results
        for i, item in zip(bucket, swept):
            out[i] = item
    return out
