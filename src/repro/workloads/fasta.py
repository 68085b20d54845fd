"""Real-data workloads backed by FASTA files on disk.

This is the bridge between :mod:`repro.io.fasta` and the rest of the
system: a :class:`FastaWorkloadSpec` names one or two FASTA files
(plain or ``.gz``) and materialises alignment tasks from their records,
in either of the two shapes real guided-alignment inputs take:

``mode="pairs"``
    The AGAThA artifact's own format: a reference file and a query file
    whose records pair up one-to-one -- record *i* of each file is one
    extension-alignment task.  No seeding or chaining runs; the pairs
    *are* the workload.

``mode="map"``
    GenBank-style inputs: the reference file's records are concatenated
    into one reference sequence, and every record of the reads file is
    mapped through the full minimizer seeding / chaining pipeline
    (:class:`~repro.pipeline.mapper.LongReadMapper`), exactly like the
    seeded synthetic datasets.  The tasks are the chained extension
    jobs, so workload shape depends on the data, not on a simulator.

Memo identity is the interesting part: the spec's fields fingerprint
automatically, but the files they *point at* can change without the
spec changing.  :meth:`FastaWorkloadSpec.cache_fingerprint_extra`
therefore returns the sha256 of every referenced file, resolved each
time the workload memo (:func:`repro.bench.cache.workload_tasks`) is
consulted -- editing one base in a FASTA file gives the workload a new
key, so it is built afresh and the stale tuple is never read again (the
invalidation test in ``tests/workloads`` pins this).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.align.types import AlignmentTask
from repro.io.fasta import read_fasta
from repro.workloads.base import WorkloadSpec

__all__ = ["FastaWorkloadSpec", "file_sha256"]

#: Modes :class:`FastaWorkloadSpec` understands.
FASTA_MODES: Tuple[str, ...] = ("pairs", "map")


def file_sha256(path: str | Path) -> str:
    """The sha256 hex digest of one file's bytes (streaming read)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass(frozen=True)
class FastaWorkloadSpec(WorkloadSpec):
    """A workload ingested from FASTA files (see module docstring).

    Paths are stored as strings so the spec stays a plain, picklable,
    JSON-fingerprintable dataclass; relative paths resolve against the
    process working directory at build time.
    """

    ref_path: str = ""
    reads_path: str = ""
    mode: str = "pairs"
    max_tasks: int = 0

    def __post_init__(self) -> None:
        if self.mode not in FASTA_MODES:
            raise ValueError(
                f"unknown FASTA workload mode {self.mode!r}; "
                f"available: {list(FASTA_MODES)}"
            )
        if not self.ref_path or not self.reads_path:
            raise ValueError(
                "FastaWorkloadSpec needs both ref_path= and reads_path= "
                "(the artifact format is one reference file plus one "
                "query/reads file)"
            )
        if self.max_tasks < 0:
            raise ValueError("max_tasks must be non-negative (0 = no limit)")

    # ------------------------------------------------------------------
    def cache_fingerprint_extra(self) -> Dict[str, str]:
        """sha256 of both files, resolved now -- file edits invalidate."""
        return {
            "ref_sha256": file_sha256(self.ref_path),
            "reads_sha256": file_sha256(self.reads_path),
        }

    def build_tasks(self) -> Tuple[AlignmentTask, ...]:
        """Read the files and materialise the workload."""
        if self.mode == "pairs":
            tasks = self._pair_tasks()
        else:
            tasks = self._map_tasks()
        if self.max_tasks:
            tasks = tasks[: self.max_tasks]
        return tasks

    # ------------------------------------------------------------------
    def _pair_tasks(self) -> Tuple[AlignmentTask, ...]:
        refs = read_fasta(self.ref_path)
        queries = read_fasta(self.reads_path)
        if len(refs) != len(queries):
            raise ValueError(
                f"paired FASTA workload {self.name!r}: {self.ref_path} has "
                f"{len(refs)} records but {self.reads_path} has "
                f"{len(queries)}; pairs mode needs a 1:1 correspondence"
            )
        return tuple(
            AlignmentTask(
                ref=ref.sequence,
                query=query.sequence,
                scoring=self.scoring,
                task_id=task_id,
            )
            for task_id, (ref, query) in enumerate(zip(refs, queries))
        )

    def _map_tasks(self) -> Tuple[AlignmentTask, ...]:
        from repro.pipeline.mapper import LongReadMapper

        refs = read_fasta(self.ref_path)
        if not refs:
            raise ValueError(f"{self.ref_path}: no FASTA records to map against")
        reference = np.concatenate([record.sequence for record in refs])
        reads = read_fasta(self.reads_path)
        mapper = LongReadMapper(reference, self.scoring)
        return tuple(mapper.workload([record.sequence for record in reads]))
