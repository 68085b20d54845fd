"""Guided sequence alignment substrate.

This subpackage implements the alignment algorithm that AGAThA (and the
baselines it compares against) accelerate: affine-gap extension alignment
with the two *guiding* heuristics used by Minimap2 / BWA-MEM,

* **k-banding** -- only a diagonal band of the score table is computed, and
* **Z-drop termination** -- the computation stops once the score along the
  current anti-diagonal has dropped too far below the global maximum.

The modules are organised bottom-up:

``scoring``
    Scoring schemes (match / mismatch / gap open / gap extend) and the
    Minimap2 / BWA-MEM presets used throughout the paper's evaluation.
``sequence``
    Nucleotide encoding ('A', 'C', 'G', 'T', 'N' -> 0..4) and random
    sequence helpers.
``banding``
    Band geometry: which cells of the score table are inside the band,
    per-anti-diagonal cell ranges, and completion bookkeeping.
``termination``
    Z-drop (Minimap2), X-drop (BLAST / LOGAN) and "none" termination
    conditions.
``reference``
    The exact scalar dynamic-programming oracle.  Every kernel in
    :mod:`repro.kernels` must reproduce its scores bit-exactly (unless the
    kernel is explicitly a *different* heuristic, e.g. LOGAN).
``antidiagonal``
    A NumPy-vectorised banded wavefront engine that produces the same
    result as the oracle plus the per-anti-diagonal metadata (local maxima,
    cells per anti-diagonal, termination point) that the GPU scheduling
    simulation needs.
``vector``
    The struct-of-arrays engine: packs whole buckets of tasks into
    padded 2-D buffers and sweeps the banded DP across all of them at
    once with whole-array NumPy operations (inter-task parallelism on
    top of the anti-diagonal kind), compacting finished tasks out at
    slice boundaries; bit-identical to the per-task engines.
``blocks``
    8x8 cell block decomposition of the banded score table (the smallest
    unit of work distribution on the GPU, Figure 2a).
``traceback``
    Alignment path / CIGAR reconstruction: the scalar per-cell oracle
    (``traceback_align``) and the batched whole-array sweep behind
    ``cigars=True`` (``batch_traceback``), which reproduces it exactly.
``types``
    The task / result dataclasses shared by all of the above.
"""

from repro.align.scoring import (
    ScoringScheme,
    PRESETS,
    preset,
)
from repro.align.sequence import (
    encode,
    decode,
    random_sequence,
    mutate,
    ALPHABET,
    BASE_TO_CODE,
    CODE_TO_BASE,
)
from repro.align.types import AlignmentTask, AlignmentResult, AlignmentProfile
from repro.align.banding import BandGeometry
from repro.align.termination import (
    TerminationCondition,
    ZDrop,
    XDrop,
    NoTermination,
)
from repro.align.reference import reference_align
from repro.align.antidiagonal import antidiagonal_align
from repro.align.vector import (
    DEFAULT_BUCKET_SIZE,
    TaskBatch,
    VectorStream,
    pack_tasks,
    vector_align,
)
from repro.align.blocks import BlockGrid
from repro.align.traceback import traceback_align, Cigar

__all__ = [
    "ScoringScheme",
    "PRESETS",
    "preset",
    "encode",
    "decode",
    "random_sequence",
    "mutate",
    "ALPHABET",
    "BASE_TO_CODE",
    "CODE_TO_BASE",
    "AlignmentTask",
    "AlignmentResult",
    "AlignmentProfile",
    "BandGeometry",
    "TerminationCondition",
    "ZDrop",
    "XDrop",
    "NoTermination",
    "reference_align",
    "antidiagonal_align",
    "DEFAULT_BUCKET_SIZE",
    "TaskBatch",
    "pack_tasks",
    "VectorStream",
    "vector_align",
    "BlockGrid",
    "traceback_align",
    "Cigar",
]
