"""Scoring schemes and aligner presets.

The guided alignment recurrence (paper Eqs. 1-3) is parameterised by a
match reward, a mismatch penalty, and an affine gap model with a gap *open*
penalty (``alpha`` in the paper) and a gap *extend* penalty (``beta``).
The guiding heuristics add two more parameters: the band width ``w`` and
the Z-drop threshold ``Z``.

The paper evaluates with Minimap2's per-technology presets (``map-hifi``,
``map-pb`` for CLR, ``map-ont``) and, in Section 5.9, with BWA-MEM's
parameters whose band width and threshold are "significantly smaller".
The presets below mirror the relative structure of those parameter sets.
Band widths are expressed in score-table cells and are intentionally kept
at the scale used by the real tools; callers that need smaller experiments
(the benchmark harness does, to keep pure-Python run times tractable) can
override ``band_width`` / ``zdrop`` via :meth:`ScoringScheme.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from typing import Mapping, Optional, Tuple

import numpy as np

from repro.align.sequence import NUM_CODES, N_CODE

__all__ = ["ScoringScheme", "PRESETS", "preset"]

#: Row type of a custom substitution matrix (one row per literal code).
MatrixRow = Tuple[int, ...]


@dataclass(frozen=True)
class ScoringScheme:
    """Parameters of the guided affine-gap alignment.

    Attributes
    ----------
    match:
        Score added for a matching base pair (positive).
    mismatch:
        Penalty subtracted for a mismatching base pair (positive number;
        the substitution score is ``-mismatch``).
    gap_open:
        Affine gap open penalty ``alpha`` (positive).  Opening a gap of
        length 1 costs ``gap_open + gap_extend`` in the Minimap2/ksw2
        convention used here (the first extension is charged too).
    gap_extend:
        Affine gap extend penalty ``beta`` (positive).
    band_width:
        Total width of the diagonal band (number of cells kept per
        anti-diagonal).  ``0`` disables banding.
    zdrop:
        Z-drop termination threshold ``Z``.  ``0`` disables termination.
    ambiguous_score:
        Score for any comparison involving ``N`` (Minimap2 scores these
        slightly negatively; 0 keeps them neutral).
    matrix:
        Optional explicit substitution matrix as a ``NUM_CODES x
        NUM_CODES`` tuple of integer rows (code order A, C, G, T, N).
        When set it *replaces* the uniform match/mismatch/ambiguous
        model everywhere a scheme is consulted -- :meth:`score`,
        :meth:`substitution_matrix` and therefore every alignment
        engine -- which is how protein-style presets such as
        ``"blosum62"`` express per-pair substitution scores.  Stored as
        nested tuples (not an array) so schemes stay hashable,
        picklable and JSON-fingerprintable.
    name:
        Optional preset name for reporting.
    """

    match: int = 2
    mismatch: int = 4
    gap_open: int = 4
    gap_extend: int = 2
    band_width: int = 0
    zdrop: int = 0
    ambiguous_score: int = -1
    matrix: Optional[Tuple[MatrixRow, ...]] = None
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise ValueError("match score must be positive")
        if self.mismatch < 0 or self.gap_open < 0 or self.gap_extend < 0:
            raise ValueError("penalties must be non-negative")
        if self.gap_extend == 0:
            raise ValueError("gap_extend must be positive (Z-drop uses it)")
        if self.band_width < 0 or self.zdrop < 0:
            raise ValueError("band_width and zdrop must be non-negative")
        if self.matrix is not None:
            rows = tuple(tuple(int(v) for v in row) for row in self.matrix)
            if len(rows) != NUM_CODES or any(len(row) != NUM_CODES for row in rows):
                raise ValueError(
                    f"matrix must be {NUM_CODES}x{NUM_CODES} "
                    f"(code order {'/'.join('ACGTN')})"
                )
            # Normalise list-of-lists input to nested tuples (hashable,
            # and the shape fingerprints/pickles canonically).
            object.__setattr__(self, "matrix", rows)

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def score(self, a: int, b: int) -> int:
        """Substitution score ``S(a, b)`` for two literal codes."""
        if self.matrix is not None:
            return self.matrix[a][b]
        if a == N_CODE or b == N_CODE:
            return self.ambiguous_score
        return self.match if a == b else -self.mismatch

    def substitution_matrix(self) -> np.ndarray:
        """Return the full 5x5 substitution matrix as ``int32``.

        Row/column order follows the literal codes (A, C, G, T, N).
        An explicit :attr:`matrix` is returned as-is; otherwise the
        uniform match/mismatch/ambiguous model is expanded.
        """
        if self.matrix is not None:
            return np.array(self.matrix, dtype=np.int32)
        m = np.full((NUM_CODES, NUM_CODES), -self.mismatch, dtype=np.int32)
        np.fill_diagonal(m, self.match)
        m[N_CODE, :] = self.ambiguous_score
        m[:, N_CODE] = self.ambiguous_score
        return m

    # ------------------------------------------------------------------
    # guiding parameters
    # ------------------------------------------------------------------
    @property
    def has_banding(self) -> bool:
        """Whether k-banding is enabled."""
        return self.band_width > 0

    @property
    def has_termination(self) -> bool:
        """Whether Z-drop termination is enabled."""
        return self.zdrop > 0

    def replace(self, **changes) -> "ScoringScheme":
        """Return a copy with the given fields replaced."""
        return _dc_replace(self, **changes)

    def describe(self) -> str:
        """Human-readable one-line description used in reports."""
        guide = []
        guide.append(f"w={self.band_width}" if self.has_banding else "unbanded")
        guide.append(f"Z={self.zdrop}" if self.has_termination else "no-zdrop")
        subst = (
            "matrix=5x5"
            if self.matrix is not None
            else f"match={self.match} mismatch={self.mismatch}"
        )
        return (
            f"{self.name}: {subst} "
            f"gap={self.gap_open},{self.gap_extend} ({', '.join(guide)})"
        )


def _make_presets() -> Mapping[str, ScoringScheme]:
    presets: dict[str, ScoringScheme] = {}
    # Minimap2 map-hifi: high mismatch/gap penalties, Z=200, band 800.
    presets["map-hifi"] = ScoringScheme(
        match=1,
        mismatch=4,
        gap_open=6,
        gap_extend=2,
        band_width=800,
        zdrop=200,
        name="map-hifi",
    )
    # Minimap2 map-pb (PacBio CLR): noisier reads, Z=400, band 500.
    presets["map-pb"] = ScoringScheme(
        match=2,
        mismatch=5,
        gap_open=5,
        gap_extend=2,
        band_width=500,
        zdrop=400,
        name="map-pb",
    )
    # Minimap2 map-ont: Z=400, band 500.
    presets["map-ont"] = ScoringScheme(
        match=2,
        mismatch=4,
        gap_open=4,
        gap_extend=2,
        band_width=500,
        zdrop=400,
        name="map-ont",
    )
    # BWA-MEM: short-read parameters; band and threshold are much smaller
    # than Minimap2's, which Section 5.9 points out reduces workload and
    # imbalance.
    presets["bwa-mem"] = ScoringScheme(
        match=1,
        mismatch=4,
        gap_open=6,
        gap_extend=1,
        band_width=100,
        zdrop=100,
        name="bwa-mem",
    )
    # Protein-style scoring: the BLOSUM62 block for the residues the
    # five literal codes map onto (Ala, Cys, Gly, Thr, X for N), so the
    # matrix has the shape engines must survive -- per-letter diagonal
    # rewards (4/9/6/5) and signed, asymmetric-magnitude off-diagonals
    # -- instead of the uniform match/mismatch model.  Gap penalties
    # follow the NCBI BLOSUM62 default (open 11, extend 1; the open
    # here is 10 because this repo's convention charges the first
    # extension too).  Band/zdrop sit at the bwa-mem scale: protein
    # extensions are short.
    presets["blosum62"] = ScoringScheme(
        match=4,
        mismatch=4,
        gap_open=10,
        gap_extend=1,
        band_width=100,
        zdrop=100,
        matrix=(
            (4, 0, 0, 0, -1),
            (0, 9, -3, -1, -1),
            (0, -3, 6, -2, -1),
            (0, -1, -2, 5, -1),
            (-1, -1, -1, -1, -1),
        ),
        name="blosum62",
    )
    # The worked example of Figure 1 (match +2, mismatch -4, open 4,
    # extend 2, band 3) -- handy for unit tests and the quickstart.
    presets["figure1"] = ScoringScheme(
        match=2,
        mismatch=4,
        gap_open=4,
        gap_extend=2,
        band_width=3,
        zdrop=0,
        name="figure1",
    )
    return presets


#: Named presets keyed by aligner / technology.
PRESETS: Mapping[str, ScoringScheme] = _make_presets()


def preset(name: str, **overrides) -> ScoringScheme:
    """Look up a preset by name, optionally overriding fields.

    >>> preset("map-ont", band_width=64).band_width
    64
    """
    try:
        scheme = PRESETS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from exc
    if overrides:
        scheme = scheme.replace(**overrides)
    return scheme
