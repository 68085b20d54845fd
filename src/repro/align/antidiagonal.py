"""Vectorised banded wavefront (anti-diagonal) alignment engine.

This is the workhorse engine of the reproduction.  It computes exactly the
same guided dynamic program as the scalar oracle
(:func:`repro.align.reference.reference_align`) but sweeps the score table
anti-diagonal by anti-diagonal with NumPy vector operations, the same
parallel structure every GPU kernel in the paper exploits
(Section 2.1, "anti-diagonal parallelism").

Besides the alignment result it can return an
:class:`~repro.align.types.AlignmentProfile` carrying the per-anti-diagonal
local maxima and in-band cell counts.  The GPU scheduling simulator
(:mod:`repro.gpusim`) consumes those profiles to account the work each
kernel design performs -- including the *run-ahead* work a design computes
past the termination point -- without re-running the dynamic program for
every kernel variant.

State layout
------------
For anti-diagonal ``c`` the engine keeps three vectors indexed by the query
row ``j`` over the in-band range of anti-diagonal ``c - 1`` (``H``, ``E``,
``F``) and one for ``c - 2`` (``H`` only).  Dependencies resolve as:

* ``E(i, j)`` needs ``H/E`` at ``(i-1, j)`` -- same row, previous
  anti-diagonal;
* ``F(i, j)`` needs ``H/F`` at ``(i, j-1)`` -- previous row, previous
  anti-diagonal;
* the diagonal term needs ``H`` at ``(i-1, j-1)`` -- previous row, the
  anti-diagonal before that.
"""

from __future__ import annotations

import numpy as np

from repro.align.banding import BandGeometry
from repro.align.scoring import ScoringScheme
from repro.align.termination import (
    NEG_INF,
    TerminationCondition,
    make_termination,
)
from repro.align.types import AlignmentProfile, AlignmentResult

__all__ = ["antidiagonal_align", "WavefrontState"]


class WavefrontState:
    """Mutable state of the wavefront sweep over one alignment task.

    The class is exposed (rather than hidden inside a function) because the
    rolling-window unit tests drive it anti-diagonal by anti-diagonal and
    compare the maxima it reports against the rolling-window buffer's view.
    """

    def __init__(
        self,
        ref: np.ndarray,
        query: np.ndarray,
        scoring: ScoringScheme,
        geometry: BandGeometry | None = None,
    ):
        self.ref = np.asarray(ref, dtype=np.uint8)
        self.query = np.asarray(query, dtype=np.uint8)
        self.scoring = scoring
        self.geometry = geometry or BandGeometry(
            self.ref.size, self.query.size, scoring.band_width
        )
        self.sub = scoring.substitution_matrix().astype(np.int64)
        self.alpha = scoring.gap_open
        self.beta = scoring.gap_extend
        self.open_cost = self.alpha + self.beta

        # Previous anti-diagonal (c-1) state and its row offset.
        self._h1 = np.empty(0, dtype=np.int64)
        self._e1 = np.empty(0, dtype=np.int64)
        self._f1 = np.empty(0, dtype=np.int64)
        self._lo1 = 0
        # Anti-diagonal c-2 H values and its row offset.
        self._h2 = np.empty(0, dtype=np.int64)
        self._lo2 = 0
        self._next_antidiag = 0

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """Whether every anti-diagonal of the table has been computed."""
        return self._next_antidiag >= self.geometry.num_antidiagonals

    # ------------------------------------------------------------------
    def _gather(
        self, values: np.ndarray, lo: int, rows: np.ndarray
    ) -> np.ndarray:
        """Gather ``values`` (offset ``lo``) at query rows ``rows``,
        yielding ``NEG_INF`` outside the stored range."""
        out = np.full(rows.size, NEG_INF, dtype=np.int64)
        if values.size == 0:
            return out
        idx = rows - lo
        mask = (idx >= 0) & (idx < values.size)
        out[mask] = values[idx[mask]]
        return out

    def step(self) -> tuple[int, np.ndarray, np.ndarray]:
        """Compute the next anti-diagonal.

        Returns
        -------
        (c, rows, h_values):
            The anti-diagonal index, the in-band query rows on it and their
            ``H`` scores.  ``rows`` may be empty when the band excludes the
            whole anti-diagonal.
        """
        if self.exhausted:
            raise RuntimeError("wavefront already exhausted")
        c = self._next_antidiag
        geom = self.geometry
        j_lo, j_hi = geom.row_range(c)
        rows = np.arange(j_lo, j_hi + 1, dtype=np.int64)
        if rows.size == 0:
            self._advance(c, rows, np.empty(0, dtype=np.int64),
                          np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
            return c, rows, np.empty(0, dtype=np.int64)

        cols = c - rows  # reference indices i per cell

        # --- vertical (E): needs (i-1, j) on anti-diagonal c-1, same row.
        up_h = self._gather(self._h1, self._lo1, rows)
        up_e = self._gather(self._e1, self._lo1, rows)
        # Boundary: i - 1 == -1  <=>  j == c.
        top_edge = cols == 0
        if top_edge.any():
            j_vals = rows[top_edge]
            up_h[top_edge] = -(self.alpha + (j_vals + 1) * self.beta)
            up_e[top_edge] = NEG_INF

        # --- horizontal (F): needs (i, j-1) on anti-diagonal c-1, row j-1.
        left_h = self._gather(self._h1, self._lo1, rows - 1)
        left_f = self._gather(self._f1, self._lo1, rows - 1)
        left_edge = rows == 0
        if left_edge.any():
            i_vals = cols[left_edge]
            left_h[left_edge] = -(self.alpha + (i_vals + 1) * self.beta)
            left_f[left_edge] = NEG_INF

        # --- diagonal: needs H at (i-1, j-1) on anti-diagonal c-2, row j-1.
        diag_h = self._gather(self._h2, self._lo2, rows - 1)
        corner = (cols == 0) & (rows == 0)
        if corner.any():
            diag_h[corner] = 0
        # Off-corner boundary diagonals: i-1 == -1 with j >= 1, or j-1 == -1
        # with i >= 1.
        top_diag = (cols == 0) & (rows > 0)
        if top_diag.any():
            diag_h[top_diag] = -(self.alpha + rows[top_diag] * self.beta)
        left_diag = (rows == 0) & (cols > 0)
        if left_diag.any():
            diag_h[left_diag] = -(self.alpha + cols[left_diag] * self.beta)

        e_cur = np.maximum(up_h - self.open_cost, up_e - self.beta)
        f_cur = np.maximum(left_h - self.open_cost, left_f - self.beta)
        np.maximum(e_cur, NEG_INF, out=e_cur)
        np.maximum(f_cur, NEG_INF, out=f_cur)

        match_scores = self.sub[self.ref[cols], self.query[rows]]
        diag_val = np.where(diag_h > NEG_INF, diag_h + match_scores, NEG_INF)

        h_cur = np.maximum(np.maximum(e_cur, f_cur), diag_val)
        np.maximum(h_cur, NEG_INF, out=h_cur)

        self._advance(c, rows, h_cur, e_cur, f_cur)
        return c, rows, h_cur

    def _advance(
        self,
        c: int,
        rows: np.ndarray,
        h_cur: np.ndarray,
        e_cur: np.ndarray,
        f_cur: np.ndarray,
    ) -> None:
        self._h2 = self._h1
        self._lo2 = self._lo1
        self._h1 = h_cur
        self._e1 = e_cur
        self._f1 = f_cur
        self._lo1 = int(rows[0]) if rows.size else 0
        self._next_antidiag = c + 1


def antidiagonal_align(
    ref: np.ndarray,
    query: np.ndarray,
    scoring: ScoringScheme,
    termination: TerminationCondition | None = None,
    *,
    return_profile: bool = False,
):
    """Align ``query`` against ``ref`` with the vectorised wavefront engine.

    Parameters
    ----------
    ref, query:
        Encoded sequences.
    scoring:
        Scoring scheme (band width and Z-drop threshold included).
    termination:
        Explicit termination condition; defaults to the scheme's Z-drop.
    return_profile:
        When true, return an :class:`AlignmentProfile` (result plus
        per-anti-diagonal maxima / cell counts); otherwise return the
        plain :class:`AlignmentResult`.

    Returns
    -------
    AlignmentResult | AlignmentProfile
    """
    ref = np.asarray(ref, dtype=np.uint8)
    query = np.asarray(query, dtype=np.uint8)
    geometry = BandGeometry(ref.size, query.size, scoring.band_width)
    if termination is None:
        termination = make_termination(scoring, "zdrop")
    termination.reset()

    if ref.size == 0 or query.size == 0:
        result = AlignmentResult(
            score=0,
            max_i=-1,
            max_j=-1,
            terminated=False,
            antidiagonals_processed=0,
            cells_computed=0,
        )
        if return_profile:
            return AlignmentProfile(
                result=result,
                antidiag_maxima=np.empty(0, dtype=np.int64),
                cells_per_antidiag=np.empty(0, dtype=np.int64),
                geometry=geometry,
            )
        return result

    state = WavefrontState(ref, query, scoring, geometry)
    maxima: list[int] = []
    cell_counts: list[int] = []
    cells_computed = 0
    terminated = False

    while not state.exhausted:
        c, rows, h_cur = state.step()
        cell_counts.append(int(rows.size))
        cells_computed += int(rows.size)
        if rows.size:
            k = int(np.argmax(h_cur))
            local_best = int(h_cur[k])
            local_j = int(rows[k])
            local_i = c - local_j
        else:
            local_best = NEG_INF
            local_i = -1
            local_j = -1
        maxima.append(local_best)
        if termination.update(c, local_best, local_i, local_j):
            terminated = True
            break

    score = termination.best_score if termination.best_score > NEG_INF else 0
    result = AlignmentResult(
        score=int(score),
        max_i=int(termination.best_i),
        max_j=int(termination.best_j),
        terminated=terminated,
        antidiagonals_processed=len(cell_counts),
        cells_computed=cells_computed,
    )
    if not return_profile:
        return result
    return AlignmentProfile(
        result=result,
        antidiag_maxima=np.asarray(maxima, dtype=np.int64),
        cells_per_antidiag=np.asarray(cell_counts, dtype=np.int64),
        geometry=geometry,
    )
