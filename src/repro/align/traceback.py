"""Alignment traceback and CIGAR reconstruction.

The guided kernel the paper accelerates is *score-only* (Minimap2 runs a
separate traceback pass on the few alignments that survive filtering).
This module is that separate pass: it runs the same guided dynamic
program as :mod:`repro.align.reference` while recording the move that
produced each ``H`` / ``E`` / ``F`` value, then walks back from the best
cell.  It comes in two forms that produce identical results:

:func:`traceback_align`
    The scalar oracle: one task, one Python iteration per cell.  Its
    storage is band-limited: for a banded scheme the ``H``/``E``/``F``
    and move matrices are allocated as ``(query_len, band_width)``
    arrays -- one row per query character, one column per diagonal the
    :class:`~repro.align.banding.BandGeometry` keeps -- instead of the
    dense ``O(n * m)`` tables.  Cell ``(i, j)`` lives at column
    ``i - j - diag_lo``; the three neighbours a cell reads stay adjacent
    under that mapping (``(i-1, j)`` is one column left, ``(i, j-1)``
    one row up and one column right, ``(i-1, j-1)`` one row up).
    Unbanded schemes (or bands wider than the reference) keep the dense
    layout, which is smaller in that regime.  Results are identical
    either way on in-band cells.  The per-cell Python dispatch makes it
    suitable for example-sized sequences and as the reference the tests
    compare against.

:func:`batch_traceback`
    The batched sweep for whole workloads.  Tasks are bucketed and
    packed exactly like the :mod:`repro.align.vector` engine (whose
    panel precompute, ``int32`` bound and packing it reuses), and each
    anti-diagonal computes explicit ``E`` / ``F`` / ``H`` for a whole
    ``(tasks x lanes)`` panel with whole-array operations, recording one
    move byte per lane: bits 0-1 hold the ``H`` source in the scalar tie
    order (diagonal, only when the diagonal value is above ``NEG_INF``,
    then ``E``, then ``F``), bit 2 is set when ``E`` extended rather
    than opened and bit 3 when ``F`` did (opening wins ties).  Each task
    then walks back over its move planes in plain Python in time
    proportional to its path length, reading out-of-band cells as move
    0 exactly as the oracle does.  Only the anti-diagonals a bucket
    actually sweeps keep planes, exhausted or terminated tasks at the
    end of a bucket drop out at panel boundaries, and a bucket whose
    planes could exceed :data:`_MOVE_BUDGET_BYTES` is split.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.align.banding import BandGeometry
from repro.align.scoring import ScoringScheme
from repro.align.termination import NEG_INF, make_termination
from repro.align.types import AlignmentResult, AlignmentTask
from repro.align.vector import (
    DEFAULT_BUCKET_SIZE,
    PANEL_WIDTH,
    TaskBatch,
    _batch_bound,
    _fits_int32,
    _lane_bounds,
    _Panel,
    _panels,
    _TERM_ZDROP,
    pack_tasks,
)
from repro.core.uneven_bucketing import length_bucket_order

__all__ = ["Cigar", "TracebackResult", "traceback_align", "batch_traceback"]


@dataclass(frozen=True)
class Cigar:
    """A compact CIGAR string: list of ``(operation, length)`` pairs.

    Operations follow SAM conventions: ``=`` match, ``X`` mismatch,
    ``I`` insertion (extra query base), ``D`` deletion (extra reference
    base).
    """

    operations: tuple[tuple[str, int], ...]

    def to_string(self) -> str:
        """Render as a standard CIGAR string, merging adjacent ``=``/``X``
        into ``M`` is *not* done -- exact match/mismatch ops are kept."""
        return "".join(f"{length}{op}" for op, length in self.operations)

    @property
    def aligned_query_length(self) -> int:
        """Query bases consumed by the alignment."""
        return sum(length for op, length in self.operations if op in "=XI")

    @property
    def aligned_ref_length(self) -> int:
        """Reference bases consumed by the alignment."""
        return sum(length for op, length in self.operations if op in "=XD")

    @property
    def matches(self) -> int:
        """Number of exactly matching bases."""
        return sum(length for op, length in self.operations if op == "=")

    @property
    def edit_distance(self) -> int:
        """Mismatches plus inserted plus deleted bases."""
        return sum(length for op, length in self.operations if op in "XID")

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_string()


@dataclass(frozen=True)
class TracebackResult:
    """Alignment result together with the reconstructed path."""

    result: AlignmentResult
    cigar: Cigar
    ref_start: int
    ref_end: int
    query_start: int
    query_end: int


# Move codes stored per cell.
_MOVE_NONE = 0
_MOVE_DIAG = 1  # H came from H(i-1, j-1) + S
_MOVE_E = 2  # H came from E (gap in query / deletion direction)
_MOVE_F = 3  # H came from F (gap in reference / insertion direction)
_E_OPEN = 0  # E came from H(i-1, j) - open
_E_EXT = 1  # E came from E(i-1, j) - extend
_F_OPEN = 0
_F_EXT = 1

# The batched sweep packs the three codes of a cell into one byte: the H
# code in bits 0-1, the E and F codes in bits 2 and 3.
_H_BITS = 3
_E_EXT_BIT = _E_EXT << 2
_F_EXT_BIT = _F_EXT << 3

#: Most bytes of move planes one batched sweep keeps alive.  A bucket
#: whose planes could outgrow it is split into groups that fit (a task
#: whose own planes exceed it sweeps alone).  One band-500 read of 10k
#: anti-diagonals needs ~2.5 MB of planes, against the ~67 MB of
#: matrices the scalar oracle allocates for it.
_MOVE_BUDGET_BYTES = 16 * 2**20

def _band_storage_shape(geometry: BandGeometry) -> tuple[tuple[int, int], bool]:
    """Storage shape for the traceback matrices of ``geometry``.

    Returns ``((rows, cols), banded)``: the band layout ``(query_len,
    band width in diagonals)`` when it is narrower than the dense
    ``(ref_len, query_len)`` table, else the dense layout.
    """
    width = geometry.diag_hi - geometry.diag_lo + 1
    if geometry.band_width > 0 and width < geometry.ref_len:
        return (geometry.query_len, width), True
    return (geometry.ref_len, geometry.query_len), False


def traceback_align(
    ref: np.ndarray,
    query: np.ndarray,
    scoring: ScoringScheme,
    *,
    _band_storage: bool | None = None,
) -> TracebackResult:
    """Align and reconstruct the path ending at the best-scoring cell.

    The alignment always starts at the table origin (extension alignment),
    so ``ref_start == query_start == 0``; the end coordinates are the best
    cell (exclusive).  ``_band_storage`` overrides the automatic storage
    layout choice (tests pin band/dense equivalence with it); results do
    not depend on it.
    """
    ref = np.asarray(ref, dtype=np.uint8)
    query = np.asarray(query, dtype=np.uint8)
    n, m = ref.size, query.size
    geometry = BandGeometry(n, m, scoring.band_width)
    termination = make_termination(scoring, "zdrop")
    termination.reset()

    if n == 0 or m == 0:
        empty = AlignmentResult(0, -1, -1, False, 0, 0)
        return TracebackResult(empty, Cigar(()), 0, 0, 0, 0)

    alpha, beta = scoring.gap_open, scoring.gap_extend
    open_cost = alpha + beta
    sub = scoring.substitution_matrix()

    _, auto_banded = _band_storage_shape(geometry)
    banded = auto_banded if _band_storage is None else _band_storage
    if banded:
        shape = (m, geometry.diag_hi - geometry.diag_lo + 1)
        lo = geometry.diag_lo

        def pos(i: int, j: int) -> tuple[int, int]:
            return (j, i - j - lo)

    else:
        shape = (n, m)

        def pos(i: int, j: int) -> tuple[int, int]:
            return (i, j)

    H = np.full(shape, NEG_INF, dtype=np.int64)
    E = np.full(shape, NEG_INF, dtype=np.int64)
    F = np.full(shape, NEG_INF, dtype=np.int64)
    move_h = np.zeros(shape, dtype=np.uint8)
    move_e = np.zeros(shape, dtype=np.uint8)
    move_f = np.zeros(shape, dtype=np.uint8)

    def bound_h(i: int, j: int) -> int:
        if i == -1 and j == -1:
            return 0
        if i == -1:
            return -(alpha + (j + 1) * beta)
        return -(alpha + (i + 1) * beta)

    cells = 0
    antidiags = 0
    terminated = False
    for c in range(geometry.num_antidiagonals):
        j_lo, j_hi = geometry.row_range(c)
        local_best, local_i, local_j = NEG_INF, -1, -1
        for j in range(j_lo, j_hi + 1):
            i = c - j
            here = pos(i, j)
            up = pos(i - 1, j)
            left = pos(i, j - 1)
            up_h = bound_h(-1, j) if i == 0 else (int(H[up]) if geometry.in_band(i - 1, j) else NEG_INF)
            up_e = NEG_INF if i == 0 else (int(E[up]) if geometry.in_band(i - 1, j) else NEG_INF)
            left_h = bound_h(i, -1) if j == 0 else (int(H[left]) if geometry.in_band(i, j - 1) else NEG_INF)
            left_f = NEG_INF if j == 0 else (int(F[left]) if geometry.in_band(i, j - 1) else NEG_INF)
            if i == 0 or j == 0:
                diag_h = bound_h(i - 1, j - 1)
            else:
                diag_h = int(H[pos(i - 1, j - 1)]) if geometry.in_band(i - 1, j - 1) else NEG_INF

            e_open, e_ext = up_h - open_cost, up_e - beta
            if e_open >= e_ext:
                e_val, move_e[here] = e_open, _E_OPEN
            else:
                e_val, move_e[here] = e_ext, _E_EXT
            f_open, f_ext = left_h - open_cost, left_f - beta
            if f_open >= f_ext:
                f_val, move_f[here] = f_open, _F_OPEN
            else:
                f_val, move_f[here] = f_ext, _F_EXT
            diag_val = diag_h + int(sub[ref[i], query[j]]) if diag_h > NEG_INF else NEG_INF

            e_val = max(e_val, NEG_INF)
            f_val = max(f_val, NEG_INF)
            h_val = max(diag_val, e_val, f_val, NEG_INF)
            if h_val == diag_val and diag_val > NEG_INF:
                move_h[here] = _MOVE_DIAG
            elif h_val == e_val:
                move_h[here] = _MOVE_E
            elif h_val == f_val:
                move_h[here] = _MOVE_F
            else:
                move_h[here] = _MOVE_NONE
            H[here], E[here], F[here] = h_val, e_val, f_val
            cells += 1
            if h_val > local_best:
                local_best, local_i, local_j = h_val, i, j
        antidiags += 1
        if termination.update(c, local_best, local_i, local_j):
            terminated = True
            break

    score = termination.best_score if termination.best_score > NEG_INF else 0
    result = AlignmentResult(
        score=int(score),
        max_i=int(termination.best_i),
        max_j=int(termination.best_j),
        terminated=terminated,
        antidiagonals_processed=antidiags,
        cells_computed=cells,
    )

    # ------------------------------------------------------------------
    # walk back from the best cell
    # ------------------------------------------------------------------
    def move_at(moves: np.ndarray, i: int, j: int) -> int:
        """Move code of cell ``(i, j)``; out-of-band cells read as 0.

        The dense layout stored untouched zeros outside the band, which
        the walk relied on to stop; the band layout has no storage there,
        so the default is made explicit (results are identical).
        """
        if not geometry.in_band(i, j):
            return 0
        return int(moves[pos(i, j)])

    ops: list[tuple[str, int]] = []

    def push(op: str, length: int = 1) -> None:
        if ops and ops[-1][0] == op:
            ops[-1] = (op, ops[-1][1] + length)
        else:
            ops.append((op, length))

    i, j = result.max_i, result.max_j
    if i < 0 or j < 0:
        return TracebackResult(result, Cigar(()), 0, 0, 0, 0)

    state = "H"
    while i >= 0 and j >= 0:
        if state == "H":
            move = move_at(move_h, i, j)
            if move == _MOVE_DIAG:
                push("=" if ref[i] == query[j] else "X")
                i -= 1
                j -= 1
            elif move == _MOVE_E:
                state = "E"
            elif move == _MOVE_F:
                state = "F"
            else:
                break
        elif state == "E":
            # E consumes a reference base (deletion w.r.t. the query).
            opened = move_at(move_e, i, j) == _E_OPEN
            push("D")
            i -= 1
            state = "H" if opened else "E"
        else:  # state == "F"
            opened = move_at(move_f, i, j) == _F_OPEN
            push("I")
            j -= 1
            state = "H" if opened else "F"
        if i < 0 or j < 0:
            break

    # Any remaining prefix of the other sequence is a leading gap.
    while i >= 0:
        push("D")
        i -= 1
    while j >= 0:
        push("I")
        j -= 1

    ops.reverse()
    cigar = Cigar(tuple(ops))
    return TracebackResult(
        result=result,
        cigar=cigar,
        ref_start=0,
        ref_end=result.max_i + 1,
        query_start=0,
        query_end=result.max_j + 1,
    )


def _budget_groups(
    tasks: Sequence[AlignmentTask], bucket: List[int]
) -> List[List[int]]:
    """Split ``bucket`` (indices into ``tasks``, largest first) into
    consecutive groups whose move planes fit :data:`_MOVE_BUDGET_BYTES`.

    A group's planes hold at most one byte per grid column (its widest
    band's lanes plus two guards) for every anti-diagonal its tasks
    sweep, rounded up to whole panels.
    """
    geometries = [tasks[i].geometry for i in bucket]
    lanes = _lane_bounds(
        *(
            np.array([getattr(g, name) for g in geometries], dtype=np.int64)
            for name in ("ref_len", "query_len", "diag_lo", "diag_hi")
        )
    )
    steps = np.array(
        [-(-g.num_antidiagonals // PANEL_WIDTH) * PANEL_WIDTH for g in geometries],
        dtype=np.int64,
    )
    groups: List[List[int]] = []
    lo = 0
    while lo < len(bucket):
        need = (np.maximum.accumulate(lanes[lo:]) + 2) * np.cumsum(steps[lo:])
        hi = lo + max(1, int(np.searchsorted(need, _MOVE_BUDGET_BYTES, side="right")))
        groups.append(bucket[lo:hi])
        lo = hi
    return groups


def _relayout(flat: np.ndarray, stride: int, rows: int, cols: int) -> np.ndarray:
    """The first ``rows`` rows of a flat wavefront grid of row length
    ``stride``, re-laid out with ``cols`` columns (all ``NEG_INF`` when
    there is no previous grid).

    Columns only ever shrink, and the dropped ones lie past every kept
    row's lane bound, so the new last column is ``NEG_INF`` like a guard.
    """
    out = np.full(rows * cols + 2, NEG_INF, dtype=flat.dtype)
    if stride:
        old = flat[1 : 1 + rows * stride].reshape(rows, stride)
        out[1:-1].reshape(rows, cols)[:] = old[:, :cols]
    return out


class _GridPanel:
    """A :class:`repro.align.vector._Panel` re-laid out on the flat grid
    of :func:`_sweep`, keeping only what the traceback step reads.

    ``match`` holds the substitution scores per grid element and ``cap``
    the keep-caps: ``NEG_INF`` on guard columns, out-of-band lanes and
    terminated rows, the dtype maximum elsewhere, so ``minimum(value,
    cap)`` masks a wavefront in one operation (every stored value is at
    least ``NEG_INF``).  ``d1_is1``, ``d2_is0`` and ``d2_is2`` pick, per
    grid element, which shifted read of the previous wavefronts its row
    takes.
    """

    __slots__ = (
        "jlo",
        "count",
        "d1_is1",
        "d2_is0",
        "d2_is2",
        "match",
        "cap",
        "top_sel",
        "left_sel",
        "top_lane",
        "edge_cost",
        "diag_cost",
    )

    def __init__(self, panel: _Panel, cols: int, dead: np.ndarray) -> None:
        span, rows, _ = panel.match.shape
        grid = rows * cols
        dt = panel.match.dtype
        match = np.zeros((span, rows, cols), dtype=dt)
        match[:, :, 1:-1] = panel.match
        self.match = match.reshape(span, grid)
        self.cap = np.full((span, rows, cols), NEG_INF, dtype=dt)
        np.copyto(self.cap[:, :, 1:-1], np.iinfo(dt).max, where=~panel.inv_mask)
        self.cap[:, dead] = NEG_INF
        self.count = panel.count
        self.count[:, dead] = 0
        self.jlo = panel.jlo
        self.d1_is1 = np.repeat(panel.d1_is1[:, :, 0], cols, axis=1)
        self.d2_is0 = np.repeat(panel.d2_is0[:, :, 0], cols, axis=1)
        self.d2_is2 = np.repeat(panel.d2_is2[:, :, 0], cols, axis=1)
        self.top_sel = panel.top_sel
        self.left_sel = panel.left_sel
        self.top_lane = panel.top_lane
        self.edge_cost = panel.edge_cost
        self.diag_cost = panel.diag_cost

    def retire(self, s: int, rows: np.ndarray) -> None:
        """Mask ``rows`` (terminated on in-panel step ``s``) from the rest
        of the panel."""
        self.cap[s + 1 :, rows] = NEG_INF
        self.count[s + 1 :, rows] = 0


def _sweep(batch: TaskBatch) -> List[TracebackResult]:
    """Traceback of one packed group whose tasks are ordered largest first.

    Every anti-diagonal is one whole-array step over the group's ``(tasks
    x lanes)`` panel, with the geometry, edge costs and substitution
    scores of :class:`repro.align.vector._Panel` and the Z-drop and
    first-maximum update of :class:`repro.align.vector.VectorStream`.
    ``E`` and ``F`` stay explicit so their open/extend choice can be
    recorded next to the ``H`` source.

    Every per-anti-diagonal array is one flat grid of ``rows x (lanes +
    2)`` elements: lane ``l`` of a row sits in column ``l + 1``, and
    columns ``0`` and ``lanes + 1`` are guards.  A cell's three parents
    are then contiguous slices of the previous wavefronts, offset by the
    window shift, so every operation runs on contiguous arrays.  Guard
    columns, out-of-band lanes and terminated rows are reset to
    ``NEG_INF`` after each step, so a read outside a row's window sees
    ``NEG_INF`` exactly where the oracle's bounds checks do.  At each
    panel boundary the rows past the last live task, and the lanes past
    the widest remaining band, drop out of the grid: the group is sorted
    by anti-diagonal count, and a stored wavefront never reaches past
    its task's lane bound.
    """
    size = batch.size
    dt = np.int32 if _fits_int32(_batch_bound(batch)) else np.int64
    num_ad = batch.num_antidiagonals
    lanes = _lane_bounds(batch.ref_len, batch.query_len, batch.diag_lo, batch.diag_hi)
    alpha, beta = batch.gap_open, batch.gap_extend
    open_cost = alpha + beta
    zdrop = batch.term_kind == _TERM_ZDROP
    threshold = batch.term_threshold
    sub_flat = batch.sub_stack.astype(dt).reshape(-1)
    scheme_off = (
        None
        if batch.sub_stack.shape[0] == 1
        else (batch.scheme_idx * 25).astype(np.int32)
    )
    no_start = np.zeros(size, dtype=np.int64)

    best = np.full(size, NEG_INF, dtype=np.int64)
    best_i = np.full(size, -1, dtype=np.int64)
    best_j = np.full(size, -1, dtype=np.int64)
    fired = np.zeros(size, dtype=bool)
    last_ad = num_ad - 1  # the anti-diagonal each task stops after
    cells = np.zeros(size, dtype=np.int64)
    # Flat wavefronts of the previous (h1, e1, f1) and two-back (h2)
    # anti-diagonal, with one NEG_INF element beyond each end of the grid.
    h1 = h2 = e1 = f1 = np.full(2, NEG_INF, dtype=dt)
    stride = 0
    planes: List[np.ndarray] = []

    for p_lo, p_hi in _panels(0, int(num_ad.max(initial=0))):
        live = ~fired & (num_ad > p_lo)
        if not live.any():
            break
        k = int(np.flatnonzero(live)[-1]) + 1
        w = int(lanes[:k].max())
        cols = w + 2
        grid = k * cols
        if cols != stride:
            h1, h2, e1, f1 = (_relayout(a, stride, k, cols) for a in (h1, h2, e1, f1))
            stride = cols
        panel = _GridPanel(
            _Panel(
                p_lo,
                p_hi,
                width=w,
                ref_flat=batch.ref_buf.reshape(-1),
                ref_stride=batch.ref_buf.shape[1],
                query_flat=batch.query_buf.reshape(-1),
                query_stride=batch.query_buf.shape[1],
                ref_len=batch.ref_len[:k],
                query_len=batch.query_len[:k],
                diag_lo=batch.diag_lo[:k],
                diag_hi=batch.diag_hi[:k],
                sub_flat=sub_flat,
                scheme_off=None if scheme_off is None else scheme_off[:k],
                alpha=alpha[:k],
                beta=beta[:k],
                start=no_start[:k],
            ),
            cols,
            fired[:k],
        )
        plane = np.empty((p_hi - p_lo, grid), dtype=np.uint8)
        planes.append(plane.reshape(p_hi - p_lo, k, cols))

        open_g = np.repeat(open_cost[:k].astype(dt), cols)
        beta_g = np.repeat(beta[:k].astype(dt), cols)
        floor = np.full(grid, NEG_INF, dtype=dt)
        one = np.ones(grid, dtype=np.uint8)
        four = np.full(grid, 4, dtype=np.uint8)
        e_open, e_ext, f_open, f_ext, diag, alt = (
            np.empty(grid, dtype=dt) for _ in range(6)
        )
        not_e, not_d, below, e_bit, f_bit = (
            np.empty(grid, dtype=bool) for _ in range(5)
        )
        gap_bits = np.empty(grid, dtype=np.uint8)
        row_base = np.arange(k) * cols
        oc_k, b_k = open_cost[:k], beta[:k]
        thr_k, z_k = threshold[:k], zdrop[:k]
        best_k, bi_k, bj_k = best[:k], best_i[:k], best_j[:k]
        fired_k, last_k, cells_k = fired[:k], last_ad[:k], cells[:k]

        for s in range(p_hi - p_lo):
            c = p_lo + s
            # Parents: (i-1, j) sits d1 elements right of a cell's grid
            # position in the previous wavefront, (i, j-1) d1 - 1 and
            # (i-1, j-1) d2 - 1 in the two-back one, where d1 in {0, 1}
            # and d2 in {0, 1, 2} are how far the row's window start
            # moved; the panel's selectors pick each row's read.
            for out, src, cost, at in (
                (e_open, h1, open_g, 1),
                (e_ext, e1, beta_g, 1),
                (f_open, h1, open_g, 0),
                (f_ext, f1, beta_g, 0),
            ):
                np.subtract(src[at : at + grid], cost, out=out)
                np.subtract(src[at + 1 : at + 1 + grid], cost, out=alt)
                np.putmask(out, panel.d1_is1[s], alt)
            diag_h = alt
            np.copyto(diag_h, h2[1 : 1 + grid])
            np.putmask(diag_h, panel.d2_is0[s], h2[:grid])
            np.putmask(diag_h, panel.d2_is2[s], h2[2 : 2 + grid])
            np.add(diag_h, panel.match[s], out=diag)
            np.less_equal(diag_h, floor, out=below)
            np.putmask(diag, below, NEG_INF)

            # Matrix-edge cells read the oracle's boundary H values: the
            # top edge (i == 0) opens E from -(alpha + (j+1)*beta), the
            # left edge (j == 0) opens F from -(alpha + (i+1)*beta), and
            # both take their diagonal parent from the boundary too.
            if panel.top_sel is not None:
                ecost, dcost = panel.edge_cost[s], panel.diag_cost[s]
                for rows, lane, gap in (
                    (panel.top_sel[s], panel.top_lane[s], e_open),
                    (panel.left_sel[s], None, f_open),
                ):
                    if rows.size:
                        at = row_base[rows] + 1
                        if lane is not None:
                            at += lane[rows]
                        gap[at] = ecost[rows] - oc_k[rows]
                        edge = dcost[rows]
                        diag[at] = np.where(
                            edge > NEG_INF, edge + panel.match[s, at], NEG_INF
                        )

            # E, F and H as the oracle computes them (E and F open on
            # ties, then clamp at NEG_INF), stored in place: the previous
            # E/F were consumed above, and the two-back H buffer becomes
            # this anti-diagonal's.
            e_cur, f_cur = e1[1 : 1 + grid], f1[1 : 1 + grid]
            h_cur = h2[1 : 1 + grid]
            np.maximum(e_open, e_ext, out=e_cur)
            np.maximum(e_cur, floor, out=e_cur)
            np.maximum(f_open, f_ext, out=f_cur)
            np.maximum(f_cur, floor, out=f_cur)
            np.maximum(e_cur, f_cur, out=h_cur)
            np.maximum(h_cur, diag, out=h_cur)

            # The move byte: the H source in the oracle's tie order -- a
            # diagonal above NEG_INF, then E, then F: 1 + not_d * (1 +
            # not_e) -- plus 4 * (E extended) + 8 * (F extended).
            moves = plane[s]
            np.not_equal(h_cur, e_cur, out=not_e)
            np.not_equal(h_cur, diag, out=not_d)
            np.less_equal(diag, floor, out=below)
            np.logical_or(not_d, below, out=not_d)
            np.add(not_e.view(np.uint8), one, out=moves)
            np.multiply(moves, not_d.view(np.uint8), out=moves)
            np.add(moves, one, out=moves)
            np.less(e_open, e_ext, out=e_bit)
            np.less(f_open, f_ext, out=f_bit)
            np.add(f_bit.view(np.uint8), f_bit.view(np.uint8), out=gap_bits)
            np.add(gap_bits, e_bit.view(np.uint8), out=gap_bits)
            np.multiply(gap_bits, four, out=gap_bits)
            np.add(moves, gap_bits, out=moves)

            cap = panel.cap[s].reshape(grid)
            np.minimum(e_cur, cap, out=e_cur)
            np.minimum(f_cur, cap, out=f_cur)
            np.minimum(h_cur, cap, out=h_cur)
            cells_k += panel.count[s]

            # First maximum of the anti-diagonal, then the Z-drop check
            # against the pre-update global maximum (the ordering of
            # TerminationCondition.update); a drop within the threshold
            # cannot fire whatever the diagonal offset.
            col = h_cur.reshape(k, cols).argmax(axis=1)
            local_best = h_cur.take(row_base + col)
            local_j = panel.jlo[s] + (col - 1)
            local_i = c - local_j
            drop = best_k - local_best
            improve = local_best > best_k
            candidate = z_k & (drop > thr_k) & (local_best > NEG_INF)
            if candidate.any():
                offset = np.abs((local_i - bi_k) - (local_j - bj_k))
                fire = candidate & (drop > thr_k + b_k * offset)
                if fire.any():
                    fired_k |= fire
                    last_k[fire] = c
                    improve &= ~fire
                    panel.retire(s, fire)
            np.copyto(best_k, local_best, where=improve)
            np.copyto(bi_k, local_i, where=improve)
            np.copyto(bj_k, local_j, where=improve)

            h1, h2 = h2, h1
        del panel  # free this panel's arrays before the next one is built

    views = [memoryview(plane) for plane in planes]
    out: List[TracebackResult] = []
    for r, task in enumerate(batch.tasks):
        score = int(best[r])
        result = AlignmentResult(
            score=score if score > NEG_INF else 0,
            max_i=int(best_i[r]),
            max_j=int(best_j[r]),
            terminated=bool(fired[r]),
            antidiagonals_processed=int(last_ad[r]) + 1,
            cells_computed=int(cells[r]),
        )
        if result.max_i < 0 or result.max_j < 0:
            out.append(TracebackResult(result, Cigar(()), 0, 0, 0, 0))
            continue
        out.append(
            TracebackResult(
                result=result,
                cigar=_walk(task, views, r, result.max_i, result.max_j),
                ref_start=0,
                ref_end=result.max_i + 1,
                query_start=0,
                query_end=result.max_j + 1,
            )
        )
    return out


def _walk(task: AlignmentTask, views: List[memoryview], row: int, i: int, j: int) -> Cigar:
    """Walk back from best cell ``(i, j)`` over the moves of grid ``row``.

    The same state machine as :func:`traceback_align`'s walk.  ``views``
    holds one ``(steps, rows, columns)`` move plane per panel; a cell is
    read in place at its anti-diagonal's step and its lane's column, so
    the walk costs time proportional to the path, and out-of-band cells
    read as move 0.
    """
    ref, query = task.ref[: i + 1].tobytes(), task.query[: j + 1].tobytes()
    geometry = task.geometry
    n, lo, hi = geometry.ref_len, geometry.diag_lo, geometry.diag_hi

    def move_at(i: int, j: int) -> int:
        if not lo <= i - j <= hi:
            return 0
        c = i + j
        panel, s = divmod(c, PANEL_WIDTH)
        return views[panel][s, row, 1 + j - max(0, c - n + 1, -((hi - c) // 2))]

    path: List[str] = []
    state = "H"
    while i >= 0 and j >= 0:
        if state == "H":
            move = move_at(i, j) & _H_BITS
            if move == _MOVE_DIAG:
                path.append("=" if ref[i] == query[j] else "X")
                i -= 1
                j -= 1
            elif move == _MOVE_E:
                state = "E"
            elif move == _MOVE_F:
                state = "F"
            else:
                break
        elif state == "E":
            path.append("D")
            extended = move_at(i, j) & _E_EXT_BIT
            i -= 1
            state = "E" if extended else "H"
        else:
            path.append("I")
            extended = move_at(i, j) & _F_EXT_BIT
            j -= 1
            state = "F" if extended else "H"
    # Any remaining prefix of the other sequence is a leading gap.
    path.extend("D" * max(i + 1, 0))
    path.extend("I" * max(j + 1, 0))
    path.reverse()
    return Cigar(tuple((op, len(list(run))) for op, run in groupby(path)))


def batch_traceback(
    tasks: Sequence[AlignmentTask],
    results: Optional[Sequence[AlignmentResult]] = None,
) -> List[TracebackResult]:
    """Reconstruct CIGARs for a whole scored workload, in task order.

    This is the CIGAR-emission companion to the score-only engines: the
    struct-of-arrays engine races through a workload computing scores,
    then this batched traceback sweep (the module docstring describes it)
    recomputes each bucket's dynamic program with move recording and
    walks every task's path back -- the Minimap2 split, at batch scale.
    Every output equals :func:`traceback_align` on the same task
    (``tests/align/test_traceback.py`` pins this with a property suite).

    When ``results`` -- the engine's outputs for the same ``tasks``, in
    task order -- is given, the alignment result the sweep computes for
    each task is checked against the engine result field by field
    (score, best cell, termination flag, work counters).  Any divergence
    raises ``ValueError`` naming the task's input index and ``task_id``,
    because it would mean the traceback DP and the score-only engines
    disagree -- exactly the bug class the engine-equivalence suite
    exists to rule out.  Callers that only want CIGARs may omit
    ``results`` and skip the cross-check.
    """
    if results is not None and len(results) != len(tasks):
        raise ValueError(
            f"results length {len(results)} does not match "
            f"{len(tasks)} tasks"
        )
    tasks = list(tasks)
    by_index: Dict[int, TracebackResult] = {}
    workloads = [task.num_antidiagonals for task in tasks]
    for bucket in length_bucket_order(workloads, DEFAULT_BUCKET_SIZE):
        for group in _budget_groups(tasks, bucket):
            by_index.update(zip(group, _sweep(pack_tasks([tasks[i] for i in group]))))
    out = [by_index[index] for index in range(len(tasks))]
    if results is not None:
        for index, (task, tb, engine) in enumerate(zip(tasks, out, results)):
            if tb.result != engine:
                raise ValueError(
                    f"traceback of task {index} (task_id={task.task_id}) "
                    f"diverged from the engine result: "
                    f"traceback={tb.result} engine={engine}"
                )
    return out
