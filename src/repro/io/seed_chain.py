"""Minimizer seeding, colinear chaining and extension-task extraction.

Minimap2 (and BWA-MEM) do not run the guided dynamic program over whole
reads: a *pre-computation* finds short exact matches (minimizer anchors),
chains the colinear ones, and only the regions *between* and *around* the
chained anchors are handed to the extension aligner.  The paper's datasets
are produced by exactly this step ("ran them through the pre-computing
steps to obtain the final datasets for alignment", Section 5.1), and the
characteristic long-tailed task-size distribution of Figure 3(b) is its
direct consequence: most inter-anchor gaps are tiny, while occasional
sparse regions (high error, structural difference, chimeric joins) leave
kilobase-scale gaps.

This module implements that pre-computation:

* :func:`minimizers` -- (w, k) minimizer sampling of a sequence;
* :class:`MinimizerIndex` -- a sorted-array index of the reference minimizers;
* :func:`chain_anchors` -- greedy colinear chaining of anchor hits by
  diagonal binning (a faithful, if simplified, stand-in for Minimap2's
  dynamic-programming chainer);
* :func:`extension_tasks_for_read` -- converts the best chain of a read
  into left-extension, inter-anchor and right-extension
  :class:`~repro.align.types.AlignmentTask` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.align.scoring import ScoringScheme
from repro.align.types import AlignmentTask

__all__ = [
    "Minimizer",
    "Anchor",
    "Chain",
    "minimizers",
    "MinimizerIndex",
    "chain_anchors",
    "extension_tasks_for_read",
]


@dataclass(frozen=True)
class Minimizer:
    """A sampled k-mer: its hash and starting position."""

    position: int
    hash_value: int


@dataclass(frozen=True)
class Anchor:
    """An exact k-mer match between the query and the reference."""

    query_pos: int
    ref_pos: int

    @property
    def diagonal(self) -> int:
        """Reference offset of the match (``ref_pos - query_pos``)."""
        return self.ref_pos - self.query_pos


@dataclass
class Chain:
    """A colinear group of anchors."""

    anchors: List[Anchor] = field(default_factory=list)

    @property
    def num_anchors(self) -> int:
        return len(self.anchors)

    @property
    def query_span(self) -> tuple[int, int]:
        """Query starts of the first and last anchors (add ``k`` for the end)."""
        return (self.anchors[0].query_pos, self.anchors[-1].query_pos)

    @property
    def ref_span(self) -> tuple[int, int]:
        return (self.anchors[0].ref_pos, self.anchors[-1].ref_pos)

    @property
    def score(self) -> int:
        """Chaining score: anchor count (sufficient for ranking here)."""
        return self.num_anchors


# ----------------------------------------------------------------------
# minimizer sampling
# ----------------------------------------------------------------------
#: Largest k whose base-5 packing fits a uint64 (``5**27 < 2**64 < 5**28``).
_MAX_K = 27


def _kmer_hashes(seq: np.ndarray, k: int) -> np.ndarray:
    """Integer hashes of every k-mer (vectorised rolling encode).

    Each k-mer is packed in base 5, first base most significant, which is
    injective for ``k <= _MAX_K``; beyond that the packing wraps modulo
    ``2**64`` and distinct k-mers collide.  The packed value is then
    scrambled by a splitmix64-style mix, a bijection on uint64, so
    minimizer sampling is not biased toward poly-A runs.
    """
    n = seq.size - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.uint64)
    values = np.zeros(n, dtype=np.uint64)
    for offset in range(k):
        values = values * np.uint64(5) + seq[offset : offset + n].astype(np.uint64)
    values ^= values >> np.uint64(30)
    values *= np.uint64(0xBF58476D1CE4E5B9)
    values ^= values >> np.uint64(27)
    values *= np.uint64(0x94D049BB133111EB)
    values ^= values >> np.uint64(31)
    return values


def _minimizer_arrays(seq: np.ndarray, k: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (ascending) and hashes (uint64) of the minimizers."""
    if k <= 0 or w <= 0:
        raise ValueError("k and w must be positive")
    if k > _MAX_K:
        raise ValueError(f"k must be at most {_MAX_K}, or distinct k-mers share a hash")
    hashes = _kmer_hashes(np.asarray(seq, dtype=np.uint8), k)
    n = hashes.size
    if n <= w:
        # One window (or none): its leftmost smallest hash.
        positions = np.argmin(hashes, keepdims=True) if n else np.empty(0, np.intp)
        return positions, hashes[positions]
    # Window s spans k-mers [s, s + w); argmin over the reversed window
    # finds its rightmost smallest hash.  The picks never decrease, so
    # overlapping windows repeat a pick only in runs.
    view = np.lib.stride_tricks.sliding_window_view(hashes, w)
    picks = np.arange(n - w + 1) + (w - 1 - np.argmin(view[:, ::-1], axis=1))
    keep = np.ones(picks.size, dtype=bool)
    keep[1:] = picks[1:] != picks[:-1]
    positions = picks[keep]
    return positions, hashes[positions]


def minimizers(seq: np.ndarray, k: int = 11, w: int = 5) -> List[Minimizer]:
    """(w, k)-minimizers of an encoded sequence, in position order.

    In every window of ``w`` consecutive k-mers the k-mer with the smallest
    hash is sampled, and a position sampled by several overlapping windows
    is kept once.  Ties follow two rules, and every seeded workload's
    tasks depend on both.  A sequence of more than ``w`` k-mers keeps each
    window's *rightmost* smallest k-mer (``w - 1 - argmin`` over the
    reversed window); a sequence of at most ``w`` k-mers -- one window --
    keeps its *leftmost* one (``argmin``).  ``k`` may be at most 27, the
    largest k-mer that packs into a uint64 without collisions.

    >>> from repro.align.sequence import encode
    >>> [m.position for m in minimizers(encode("A" * 16), k=11, w=5)]
    [4, 5]
    >>> [m.position for m in minimizers(encode("A" * 15), k=11, w=5)]
    [0]
    """
    positions, hashes = _minimizer_arrays(seq, k, w)
    return [
        Minimizer(position=p, hash_value=h)
        for p, h in zip(positions.tolist(), hashes.tolist())
    ]


class MinimizerIndex:
    """Sorted-array index of a reference sequence's minimizers.

    The reference minimizers are held as two parallel arrays, hashes and
    positions, stably sorted by hash: the positions sharing a hash form
    one contiguous, ascending run, which ``searchsorted`` finds.
    """

    def __init__(self, reference: np.ndarray, k: int = 11, w: int = 5):
        self.k = k
        self.w = w
        self.reference = np.asarray(reference, dtype=np.uint8)
        positions, hashes = _minimizer_arrays(self.reference, k, w)
        order = np.argsort(hashes, kind="stable")
        self._hashes = hashes[order]
        self._positions = positions[order]

    def lookup(self, hash_value: int) -> List[int]:
        """Reference positions whose minimizer has this hash, ascending."""
        key = np.uint64(hash_value)
        lo = np.searchsorted(self._hashes, key, side="left")
        hi = np.searchsorted(self._hashes, key, side="right")
        return self._positions[lo:hi].tolist()

    def anchors(self, query: np.ndarray, max_hits: int = 16) -> List[Anchor]:
        """Anchor hits of a query against the index, by (query, ref) position.

        Minimizers occurring at more than ``max_hits`` reference positions
        are treated as repetitive and skipped (Minimap2's ``-f`` filter).
        """
        query_pos, hashes = _minimizer_arrays(query, self.k, self.w)
        lo = np.searchsorted(self._hashes, hashes, side="left")
        hits = np.searchsorted(self._hashes, hashes, side="right") - lo
        kept = (hits > 0) & (hits <= max_hits)
        lo, hits, query_pos = lo[kept], hits[kept], query_pos[kept]
        # Hit j of kept minimizer i is sorted entry lo[i] + j.  Query
        # positions ascend and each run's reference positions ascend, so
        # the anchors come out in (query, ref) order.
        starts = np.repeat(lo - (np.cumsum(hits) - hits), hits)
        ref_pos = self._positions[starts + np.arange(starts.size)]
        return [
            Anchor(query_pos=q, ref_pos=r)
            for q, r in zip(np.repeat(query_pos, hits).tolist(), ref_pos.tolist())
        ]


# ----------------------------------------------------------------------
# chaining
# ----------------------------------------------------------------------
def chain_anchors(
    anchors: Sequence[Anchor],
    *,
    max_diagonal_diff: int = 400,
    min_anchors: int = 3,
) -> List[Chain]:
    """Group anchors into colinear chains by diagonal binning.

    Anchors whose diagonals lie within ``max_diagonal_diff`` of each other
    and whose query positions increase are placed in the same chain.
    Chains with fewer than ``min_anchors`` anchors are dropped.  Chains are
    returned best (most anchors) first.
    """
    if not anchors:
        return []
    by_diag = sorted(anchors, key=lambda a: (a.diagonal, a.query_pos))
    groups: List[List[Anchor]] = []
    current: List[Anchor] = [by_diag[0]]
    for anchor in by_diag[1:]:
        if anchor.diagonal - current[0].diagonal <= max_diagonal_diff:
            current.append(anchor)
        else:
            groups.append(current)
            current = [anchor]
    groups.append(current)

    chains: List[Chain] = []
    for group in groups:
        # Keep a strictly increasing subsequence in query order (greedy);
        # duplicates from repetitive minimizers are dropped.
        group.sort(key=lambda a: (a.query_pos, a.ref_pos))
        filtered: List[Anchor] = []
        for anchor in group:
            if not filtered or (
                anchor.query_pos > filtered[-1].query_pos
                and anchor.ref_pos > filtered[-1].ref_pos
            ):
                filtered.append(anchor)
        if len(filtered) >= min_anchors:
            chains.append(Chain(anchors=filtered))
    chains.sort(key=lambda c: c.score, reverse=True)
    return chains


# ----------------------------------------------------------------------
# extension task extraction
# ----------------------------------------------------------------------
def extension_tasks_for_read(
    reference: np.ndarray,
    query: np.ndarray,
    chain: Chain,
    scoring: ScoringScheme,
    *,
    k: int = 11,
    min_gap: int = 32,
    max_extension: int = 4096,
    anchor_spacing: int = 0,
    start_task_id: int = 0,
) -> List[AlignmentTask]:
    """Extension-alignment tasks implied by one chain.

    Three kinds of task are produced, mirroring Minimap2's extension stage:

    * a **left extension** from the first anchor toward the read's start
      (both segments reversed so the alignment still extends away from the
      origin);
    * an **inter-anchor** task for every pair of consecutive anchors whose
      gap on either sequence exceeds ``min_gap``;
    * a **right extension** from the last anchor toward the read's end.

    Reference segments are clipped to the query segment's length plus the
    band width (extending further cannot stay inside the band), and to
    ``max_extension``.  ``anchor_spacing`` subsamples the chain so that
    consecutive anchors are at least that many query bases apart,
    emulating the coarser seeding (larger k / w) real mappers use for long
    reads and keeping the number of inter-anchor tasks proportionate.
    """
    reference = np.asarray(reference, dtype=np.uint8)
    query = np.asarray(query, dtype=np.uint8)
    tasks: List[AlignmentTask] = []
    task_id = start_task_id
    band = scoring.band_width or 0

    anchors = list(chain.anchors)
    if anchor_spacing > 0 and len(anchors) > 2:
        kept = [anchors[0]]
        for anchor in anchors[1:-1]:
            if anchor.query_pos - kept[-1].query_pos >= anchor_spacing:
                kept.append(anchor)
        if anchors[-1] is not kept[-1]:
            kept.append(anchors[-1])
        anchors = kept

    def clip(length: int) -> int:
        return min(length, max_extension)

    # ----- left extension -------------------------------------------------
    first = anchors[0]
    q_len = clip(first.query_pos)
    if q_len > 0:
        r_len = clip(min(first.ref_pos, q_len + band))
        if r_len > 0:
            tasks.append(
                AlignmentTask(
                    ref=reference[first.ref_pos - r_len : first.ref_pos][::-1].copy(),
                    query=query[first.query_pos - q_len : first.query_pos][::-1].copy(),
                    scoring=scoring,
                    task_id=task_id,
                )
            )
            task_id += 1

    # ----- inter-anchor gaps ----------------------------------------------
    for prev, nxt in zip(anchors, anchors[1:]):
        q_gap = nxt.query_pos - (prev.query_pos + k)
        r_gap = nxt.ref_pos - (prev.ref_pos + k)
        if q_gap >= min_gap or r_gap >= min_gap:
            q_lo, q_hi = prev.query_pos + k, nxt.query_pos
            r_lo, r_hi = prev.ref_pos + k, nxt.ref_pos
            if q_hi > q_lo and r_hi > r_lo:
                tasks.append(
                    AlignmentTask(
                        ref=reference[r_lo:r_hi].copy(),
                        query=query[q_lo:q_hi].copy(),
                        scoring=scoring,
                        task_id=task_id,
                    )
                )
                task_id += 1

    # ----- right extension -------------------------------------------------
    last = anchors[-1]
    q_start = last.query_pos + k
    q_len = clip(query.size - q_start)
    if q_len > 0:
        r_start = last.ref_pos + k
        r_len = clip(min(reference.size - r_start, q_len + band))
        if r_len > 0:
            tasks.append(
                AlignmentTask(
                    ref=reference[r_start : r_start + r_len].copy(),
                    query=query[q_start : q_start + q_len].copy(),
                    scoring=scoring,
                    task_id=task_id,
                )
            )
            task_id += 1
    return tasks
