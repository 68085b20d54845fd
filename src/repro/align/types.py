"""Shared task / result dataclasses for the alignment engines and kernels.

Three objects circulate through the whole repository:

:class:`AlignmentTask`
    One extension-alignment job: a reference segment, a query segment and
    the scoring scheme (which carries the guiding parameters).  The read
    mapper (:mod:`repro.pipeline.mapper`) and the synthetic dataset
    generators (:mod:`repro.io.datasets`) produce batches of these; the
    CPU baselines and every GPU kernel consume them.

:class:`AlignmentResult`
    The score output of running one task: the best score, where it was
    found, whether/where Z-drop fired and how many cells were computed.

:class:`AlignmentProfile`
    A result plus the per-anti-diagonal metadata (local maxima, in-band
    cell counts) that the GPU scheduling simulator uses to account
    workload without recomputing the dynamic program for every kernel
    variant.  Profiles are computed once per task by the vectorised
    engine and cached on the task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.align.banding import BandGeometry
from repro.align.scoring import ScoringScheme

__all__ = ["AlignmentTask", "AlignmentResult", "AlignmentProfile"]


@dataclass
class AlignmentResult:
    """Outcome of aligning one (reference, query) pair.

    Attributes
    ----------
    score:
        The alignment score: the maximum ``H`` value over every computed
        in-band cell (the *global maximum* of the guiding strategy).
    max_i, max_j:
        Reference / query index of the cell attaining ``score``
        (``-1`` when no cell was computed).
    terminated:
        Whether the Z-drop/X-drop condition fired before the table was
        exhausted.
    antidiagonals_processed:
        Number of anti-diagonals whose cells were actually computed.
        Termination after anti-diagonal ``c`` yields ``c + 1``.
    cells_computed:
        Number of in-band cells computed (the CPU-side measure of work).
    """

    score: int
    max_i: int
    max_j: int
    terminated: bool
    antidiagonals_processed: int
    cells_computed: int

    def __post_init__(self) -> None:
        if self.antidiagonals_processed < 0 or self.cells_computed < 0:
            raise ValueError("work counters must be non-negative")

    def same_score(self, other: "AlignmentResult") -> bool:
        """Exactness check used by the kernel test-suite: two results agree
        when they report the same score at the same cell and the same
        termination behaviour."""
        return (
            self.score == other.score
            and self.max_i == other.max_i
            and self.max_j == other.max_j
            and self.terminated == other.terminated
            and self.antidiagonals_processed == other.antidiagonals_processed
        )


@dataclass
class AlignmentProfile:
    """Per-anti-diagonal view of one alignment, produced by the vector
    engine (:func:`repro.align.vector.task_profiles`).

    Attributes
    ----------
    result:
        The plain :class:`AlignmentResult`.
    antidiag_maxima:
        ``int64`` array with the local maximum of each *processed*
        anti-diagonal (length ``result.antidiagonals_processed``).
    cells_per_antidiag:
        In-band cell count of each processed anti-diagonal.
    geometry:
        The :class:`BandGeometry` of the full task (not truncated at the
        termination point), used by kernels to reason about run-ahead.
    """

    result: AlignmentResult
    antidiag_maxima: np.ndarray
    cells_per_antidiag: np.ndarray
    geometry: BandGeometry

    @property
    def antidiagonals_processed(self) -> int:
        """Anti-diagonals computed before (inclusive of) termination."""
        return self.result.antidiagonals_processed

    @property
    def cells_computed(self) -> int:
        """In-band cells computed before termination."""
        return self.result.cells_computed


@dataclass
class AlignmentTask:
    """One guided extension-alignment job.

    Attributes
    ----------
    ref:
        Encoded reference segment (``uint8`` codes).
    query:
        Encoded query segment (``uint8`` codes).
    scoring:
        Scoring scheme including band width and Z-drop threshold.
    task_id:
        Stable identifier used in reports and scheduling traces.
    """

    ref: np.ndarray
    query: np.ndarray
    scoring: ScoringScheme
    task_id: int = 0
    _profile: Optional[AlignmentProfile] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.ref = np.asarray(self.ref, dtype=np.uint8)
        self.query = np.asarray(self.query, dtype=np.uint8)
        if self.ref.ndim != 1 or self.query.ndim != 1:
            raise ValueError("ref and query must be 1-D code arrays")

    # ------------------------------------------------------------------
    @property
    def ref_len(self) -> int:
        """Length of the reference segment."""
        return int(self.ref.size)

    @property
    def query_len(self) -> int:
        """Length of the query segment."""
        return int(self.query.size)

    @property
    def geometry(self) -> BandGeometry:
        """Band geometry of the full task."""
        return BandGeometry(self.ref_len, self.query_len, self.scoring.band_width)

    @property
    def num_antidiagonals(self) -> int:
        """Anti-diagonals in the full table."""
        return self.geometry.num_antidiagonals

    # ------------------------------------------------------------------
    def profile(self) -> AlignmentProfile:
        """The cached alignment profile of this task.

        :func:`repro.align.vector.task_profiles` on a bucket of one: the
        profile is computed once, with the task's own scoring scheme, and
        every later consumer reuses it.  Prime many tasks in one call to
        ``task_profiles`` rather than one by one.
        """
        # Imported lazily to avoid a circular import at module load.
        from repro.align.vector import task_profiles

        return task_profiles([self])[0]

    def invalidate_profile(self) -> None:
        """Drop the cached profile (used after mutating scoring in tests)."""
        self._profile = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"AlignmentTask(id={self.task_id}, ref_len={self.ref_len}, "
            f"query_len={self.query_len}, scheme={self.scoring.name!r})"
        )
