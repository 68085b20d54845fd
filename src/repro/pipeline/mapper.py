"""Long-read mapper: seeding, chaining and guided extension.

:class:`LongReadMapper` reproduces the structure of Minimap2's mapping
loop on top of the repository's substrate:

1. index the reference minimizers once;
2. for each read, collect anchors, chain them, and pick the best chain;
3. extract the extension tasks implied by that chain
   (:func:`repro.io.seed_chain.extension_tasks_for_read`);
4. run the guided aligner on those tasks and combine the chain's exact
   anchor matches with the extension scores into a mapping score.

The mapper is used by the example applications and by the experiment
harness to generate the alignment workloads the kernels are benchmarked
on -- which is exactly how the paper's datasets were produced (reads were
"run through the pre-computing steps to obtain the final datasets for
alignment", Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.align.scoring import ScoringScheme
from repro.align.types import AlignmentResult, AlignmentTask
from repro.io.seed_chain import (
    Chain,
    MinimizerIndex,
    chain_anchors,
    extension_tasks_for_read,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api imports pipeline)
    from repro.api.engines import EngineOptions

__all__ = ["ReadMapping", "LongReadMapper"]


@dataclass
class ReadMapping:
    """Result of mapping one read."""

    read_id: int
    mapped: bool
    ref_start: int = -1
    ref_end: int = -1
    query_start: int = -1
    query_end: int = -1
    num_anchors: int = 0
    extension_score: int = 0
    extension_results: List[AlignmentResult] = field(default_factory=list)

    @property
    def mapping_score(self) -> int:
        """Anchor matches plus extension scores (a chain-level score)."""
        return self.num_anchors + self.extension_score


class LongReadMapper:
    """Minimap2-style mapper over the repository substrate.

    Parameters
    ----------
    reference:
        Encoded reference sequence.
    scoring:
        Scoring scheme (band width / Z-drop included) used for extensions.
    k, w:
        Minimizer parameters.
    min_anchors:
        Minimum chain size for a read to count as mapped.
    engine:
        Alignment-engine name from the :mod:`repro.api` engine registry
        (``"vector"`` by default: each read's extension tasks go to the
        struct-of-arrays engine as one batch.  ``"scalar"`` aligns them
        one by one -- scores are bit-identical, just slower).
    options:
        Typed engine tuning (:class:`repro.api.EngineOptions`) for every
        engine call; an unset ``batch_size`` takes the workflow default
        (:meth:`~repro.api.EngineOptions.with_bucket`).
    """

    def __init__(
        self,
        reference: np.ndarray,
        scoring: ScoringScheme,
        *,
        k: int = 11,
        w: int = 5,
        min_anchors: int = 3,
        max_extension: int = 4096,
        anchor_spacing: int = 200,
        engine: str = "vector",
        options: Optional["EngineOptions"] = None,
    ):
        self.reference = np.asarray(reference, dtype=np.uint8)
        self.scoring = scoring
        self.k = k
        self.w = w
        self.min_anchors = min_anchors
        self.max_extension = max_extension
        self.anchor_spacing = anchor_spacing
        self.engine = engine
        # Imported lazily (repro.api.session imports this module); fail
        # fast on unknown engine names rather than mid-mapping.
        from repro.api.engines import EngineOptions, get_engine

        get_engine(self.engine)
        self.options = (options if options is not None else EngineOptions()).with_bucket()
        self.index = MinimizerIndex(self.reference, k=k, w=w)

    # ------------------------------------------------------------------
    def best_chain(self, read: np.ndarray) -> Optional[Chain]:
        """Best colinear chain of a read against the reference."""
        anchors = self.index.anchors(read)
        chains = chain_anchors(anchors, min_anchors=self.min_anchors)
        return chains[0] if chains else None

    def extension_tasks(
        self, read: np.ndarray, *, start_task_id: int = 0
    ) -> List[AlignmentTask]:
        """Extension tasks of one read (empty when the read has no chain)."""
        chain = self.best_chain(read)
        if chain is None:
            return []
        return extension_tasks_for_read(
            self.reference,
            np.asarray(read, dtype=np.uint8),
            chain,
            self.scoring,
            k=self.k,
            max_extension=self.max_extension,
            anchor_spacing=self.anchor_spacing,
            start_task_id=start_task_id,
        )

    def workload(self, reads: Sequence[np.ndarray]) -> List[AlignmentTask]:
        """All extension tasks of a batch of reads, with unique task ids."""
        tasks: List[AlignmentTask] = []
        for read in reads:
            tasks.extend(self.extension_tasks(read, start_task_id=len(tasks)))
        return tasks

    # ------------------------------------------------------------------
    def align_tasks(
        self, tasks: Sequence[AlignmentTask]
    ) -> List[AlignmentResult]:
        """Align extension tasks with the configured engine."""
        # Imported lazily: repro.api.session imports this module.
        from repro.api.engines import align_tasks

        return align_tasks(tasks, engine=self.engine, options=self.options)

    def map_read(self, read: np.ndarray, read_id: int = 0) -> ReadMapping:
        """Map one read end to end (chain + extension alignment)."""
        read = np.asarray(read, dtype=np.uint8)
        chain = self.best_chain(read)
        if chain is None:
            return ReadMapping(read_id=read_id, mapped=False)
        tasks = extension_tasks_for_read(
            self.reference,
            read,
            chain,
            self.scoring,
            k=self.k,
            max_extension=self.max_extension,
            anchor_spacing=self.anchor_spacing,
        )
        results = self.align_tasks(tasks)
        extension_score = int(sum(max(r.score, 0) for r in results))
        q_lo, q_hi = chain.query_span
        r_lo, r_hi = chain.ref_span
        return ReadMapping(
            read_id=read_id,
            mapped=True,
            ref_start=r_lo,
            ref_end=r_hi + self.k,
            query_start=q_lo,
            query_end=q_hi + self.k,
            num_anchors=chain.num_anchors,
            extension_score=extension_score,
            extension_results=results,
        )

    def map_reads(self, reads: Sequence[np.ndarray]) -> List[ReadMapping]:
        """Map a batch of reads."""
        return [self.map_read(read, read_id=i) for i, read in enumerate(reads)]
