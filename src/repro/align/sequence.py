"""Nucleotide sequence encoding and synthetic sequence helpers.

Sequences are handled as ``numpy.uint8`` arrays of codes rather than Python
strings: the alignment engines index substitution matrices with them
directly.

The five literals are the four DNA bases plus the ambiguity code ``N``:

====== ======
letter  code
====== ======
``A``   0
``C``   1
``G``   2
``T``   3
``N``   4
====== ======
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

#: The five valid sequence literals, in code order.
ALPHABET: str = "ACGTN"

#: Mapping from (upper-case) base letter to integer code.
BASE_TO_CODE: dict[str, int] = {base: code for code, base in enumerate(ALPHABET)}

#: Mapping from integer code back to base letter.
CODE_TO_BASE: dict[int, str] = {code: base for code, base in enumerate(ALPHABET)}

#: Number of distinct literal codes (A, C, G, T, N).
NUM_CODES: int = len(ALPHABET)

#: Code used for the ambiguity literal ``N``.
N_CODE: int = BASE_TO_CODE["N"]

SequenceLike = Union[str, Sequence[int], np.ndarray]


def encode(seq: SequenceLike) -> np.ndarray:
    """Encode a sequence into a ``uint8`` code array.

    Accepts a string of bases (case-insensitive; any letter outside
    ``ACGT`` is mapped to ``N``), an iterable of integer codes, or an
    already-encoded array (returned as a ``uint8`` view/copy).

    Parameters
    ----------
    seq:
        The sequence to encode.

    Returns
    -------
    numpy.ndarray
        1-D ``uint8`` array of codes in ``[0, 5)``.
    """
    if isinstance(seq, np.ndarray):
        arr = np.asarray(seq, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError(f"sequence array must be 1-D, got shape {arr.shape}")
        if arr.size and arr.max(initial=0) >= NUM_CODES:
            raise ValueError("sequence codes must be < 5")
        return arr
    if isinstance(seq, str):
        table = np.full(256, N_CODE, dtype=np.uint8)
        for base, code in BASE_TO_CODE.items():
            table[ord(base)] = code
            table[ord(base.lower())] = code
        raw = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
        return table[raw]
    arr = np.asarray(list(seq), dtype=np.uint8)
    if arr.size and arr.max(initial=0) >= NUM_CODES:
        raise ValueError("sequence codes must be < 5")
    return arr


def decode(codes: Union[np.ndarray, Iterable[int]]) -> str:
    """Decode a code array back into a base string.

    Inverse of :func:`encode` for valid codes.
    """
    arr = np.asarray(codes, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("codes must be 1-D")
    lut = np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)
    if arr.size and arr.max(initial=0) >= NUM_CODES:
        raise ValueError("sequence codes must be < 5")
    return lut[arr].tobytes().decode("ascii")


def random_sequence(
    length: int,
    rng: np.random.Generator | None = None,
    *,
    n_fraction: float = 0.0,
) -> np.ndarray:
    """Generate a uniform random DNA sequence of ``length`` codes.

    Parameters
    ----------
    length:
        Number of bases.
    rng:
        NumPy random generator; a fresh default generator is used when
        omitted (not reproducible -- pass one for reproducibility).
    n_fraction:
        Fraction of positions replaced with the ambiguity code ``N``.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if not 0.0 <= n_fraction <= 1.0:
        raise ValueError("n_fraction must be within [0, 1]")
    if rng is None:
        rng = np.random.default_rng()
    seq = rng.integers(0, 4, size=length, dtype=np.uint8)
    if n_fraction > 0.0 and length > 0:
        mask = rng.random(length) < n_fraction
        seq[mask] = N_CODE
    return seq


def mutate(
    seq: np.ndarray,
    rng: np.random.Generator,
    *,
    substitution_rate: float = 0.0,
    insertion_rate: float = 0.0,
    deletion_rate: float = 0.0,
    max_indel_length: int = 3,
) -> np.ndarray:
    """Apply a simple per-base error model to ``seq``.

    This is the error process used by the synthetic read simulators in
    :mod:`repro.io.datasets` to mimic sequencing technologies: HiFi reads
    use low rates, CLR / ONT use substantially higher ones.  Each input
    base independently suffers a substitution, is preceded by an insertion
    of geometric-ish length, or is deleted.

    Parameters
    ----------
    seq:
        Encoded sequence (``uint8`` codes).
    rng:
        Random generator (mandatory -- error processes must be seedable).
    substitution_rate, insertion_rate, deletion_rate:
        Per-base probabilities of each event.
    max_indel_length:
        Upper bound on a single insertion length.

    Returns
    -------
    numpy.ndarray
        A new encoded sequence with errors applied.
    """
    for name, rate in (
        ("substitution_rate", substitution_rate),
        ("insertion_rate", insertion_rate),
        ("deletion_rate", deletion_rate),
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} must be within [0, 1]")
    if max_indel_length < 1:
        raise ValueError("max_indel_length must be >= 1")

    seq = np.asarray(seq, dtype=np.uint8)
    n = seq.size
    if n == 0:
        return seq.copy()

    u = rng.random(n)
    out: list[np.ndarray] = []
    # Event selection per base: deletion wins over insertion wins over
    # substitution to keep the three processes mutually exclusive per base.
    del_mask = u < deletion_rate
    ins_mask = (~del_mask) & (u < deletion_rate + insertion_rate)
    sub_mask = (~del_mask) & (~ins_mask) & (
        u < deletion_rate + insertion_rate + substitution_rate
    )

    substituted = seq.copy()
    if sub_mask.any():
        # Shift by 1..3 (mod 4) so the substituted base always differs.
        shift = rng.integers(1, 4, size=int(sub_mask.sum()), dtype=np.uint8)
        base = substituted[sub_mask]
        base = np.where(base >= 4, rng.integers(0, 4, size=base.size), base)
        substituted[sub_mask] = (base + shift) % 4

    insert_positions = np.flatnonzero(ins_mask)
    insert_lengths = (
        rng.integers(1, max_indel_length + 1, size=insert_positions.size)
        if insert_positions.size
        else np.empty(0, dtype=np.int64)
    )

    cursor = 0
    for pos, ins_len in zip(insert_positions, insert_lengths):
        if pos > cursor:
            segment = substituted[cursor:pos]
            keep = ~del_mask[cursor:pos]
            out.append(segment[keep])
        out.append(rng.integers(0, 4, size=int(ins_len), dtype=np.uint8))
        if not del_mask[pos]:
            out.append(substituted[pos : pos + 1])
        cursor = pos + 1
    if cursor < n:
        segment = substituted[cursor:]
        keep = ~del_mask[cursor:]
        out.append(segment[keep])

    if not out:
        return np.empty(0, dtype=np.uint8)
    return np.concatenate(out).astype(np.uint8)
