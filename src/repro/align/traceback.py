"""Alignment traceback and CIGAR reconstruction.

The guided kernel the paper accelerates is *score-only* (Minimap2 runs a
separate traceback pass on the few alignments that survive filtering), but
the example applications in this repository want to show the actual
alignment, so a small scalar traceback is provided.  It runs the same
guided dynamic program as :mod:`repro.align.reference` while recording the
move that produced each ``H`` / ``E`` / ``F`` value, then walks back from
the best cell.

Storage is band-limited: for a banded scheme the ``H``/``E``/``F`` and
move matrices are allocated as ``(query_len, band_width)`` arrays -- one
row per query character, one column per diagonal the
:class:`~repro.align.banding.BandGeometry` keeps -- instead of the dense
``O(n * m)`` tables, so traceback memory scales with ``m * w`` like the
score-only engines.  Cell ``(i, j)`` lives at column ``i - j - diag_lo``;
the three neighbours a cell reads stay adjacent under that mapping
(``(i-1, j)`` is one column left, ``(i, j-1)`` one row up and one column
right, ``(i-1, j-1)`` one row up).  Unbanded schemes (or bands wider
than the reference) keep the dense layout, which is smaller in that
regime.  Results are identical either way on in-band cells.

Time complexity is still the number of in-band cells with per-cell
Python dispatch; only intended for example-sized sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.align.banding import BandGeometry
from repro.align.scoring import ScoringScheme
from repro.align.termination import NEG_INF, make_termination
from repro.align.types import AlignmentResult, AlignmentTask

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


def batch_traceback(
    tasks: Sequence[AlignmentTask],
    results: Optional[Sequence[AlignmentResult]] = None,
) -> List[TracebackResult]:
    """Reconstruct CIGARs for a whole scored workload, in task order.

    This is the CIGAR-emission companion to the score-only engines: the
    struct-of-arrays engine races through a workload computing scores,
    then the few alignments the caller actually wants rendered are replayed here one
    at a time through the band-limited traceback (the Minimap2 split the
    module docstring describes, at batch scale).

    When ``results`` -- the engine's outputs for the same ``tasks``, in
    task order -- is given, every replay is checked against the engine
    result field by field (score, best cell, termination flag, work
    counters).  Any divergence raises ``ValueError`` naming the task,
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
    out: List[TracebackResult] = []
    for index, task in enumerate(tasks):
        tb = traceback_align(task.ref, task.query, task.scoring)
        if results is not None and tb.result != results[index]:
            raise ValueError(
                f"traceback replay of task {index} "
                f"(task_id={task.task_id}) diverged from the engine "
                f"result: traceback={tb.result} engine={results[index]}"
            )
        out.append(tb)
    return out
