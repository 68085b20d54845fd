"""``repro.workloads`` -- registered real-data and adversarial workloads.

The third workload axis of the reproduction (after the seeded synthetic
datasets of :mod:`repro.io.datasets` and raw ``tasks=`` sessions): a
string-keyed registry of :class:`WorkloadSpec` objects that unifies

* **real FASTA-backed data** (:class:`FastaWorkloadSpec` -- plain or
  gzipped files, paired-record or map-the-reads modes, memo keys
  fingerprinted by file sha256 so on-disk edits rebuild);
* **adversarial synthetic generators**
  (:class:`AdversarialWorkloadSpec` -- heavy-tailed, bimodal and
  sorted-run length distributions that stress uneven bucketing and the
  sliced-compaction path);
* **alternative scoring** (the built-in ``protein-blosum62`` workload
  scores with the BLOSUM62-class substitution-matrix preset of
  :func:`repro.align.scoring.preset`, bit-identical across every
  engine).

A registered name is accepted wherever a dataset name is:
``Session(dataset=...)``, ``LoadGenerator.from_dataset(...)``,
``python -m repro.serve --dataset`` and the bench CLI (``python -m
repro.bench --figure workloads`` runs every registered workload under
the AGAThA kernel and writes the gateable ``BENCH_workloads.json``).
Workloads build through the same in-process memo
(:func:`repro.bench.cache.workload_tasks`) as datasets.  The contract --
registration, fingerprinting, how a workload reaches Session, bench and
serve -- is documented in docs/WORKLOADS.md.

>>> from repro.workloads import workload_names
>>> workload_names()
('adv-heavy-tail', 'adv-bimodal', 'adv-sorted-runs', 'protein-blosum62', 'fasta-sample')
"""

from __future__ import annotations

from pathlib import Path

from repro.align.scoring import preset
from repro.api.suites import SuiteEntry, register_suite
from repro.workloads.base import (
    WORKLOADS,
    WorkloadSpec,
    get_workload,
    register_workload,
    resolve_spec,
    workload_names,
)
from repro.workloads.fasta import FastaWorkloadSpec, file_sha256
from repro.workloads.synthetic import DISTRIBUTIONS, AdversarialWorkloadSpec

__all__ = [
    "WorkloadSpec",
    "WORKLOADS",
    "register_workload",
    "get_workload",
    "workload_names",
    "resolve_spec",
    "FastaWorkloadSpec",
    "AdversarialWorkloadSpec",
    "DISTRIBUTIONS",
    "file_sha256",
]

#: Packaged sample FASTA pair (gzipped; the AGAThA artifact's format).
_DATA_DIR = Path(__file__).parent / "data"


def _register_builtins() -> None:
    """Register the built-in workloads (idempotent under reload)."""
    if "adv-heavy-tail" in WORKLOADS:  # pragma: no cover - reload guard
        return
    # Small band/Z and modest lengths: benchmarks/baseline.json pins the
    # `workloads` records these specs produce.  Profiling speed is no
    # longer the reason (every profile comes from one batched vector
    # sweep); a paper-scale variant is ROADMAP item 3's stretch goal.
    adversarial_scoring = preset("map-ont", band_width=32, zdrop=120)
    for distribution, seed in (
        ("heavy-tail", 101),
        ("bimodal", 102),
        ("sorted-runs", 103),
    ):
        register_workload(
            AdversarialWorkloadSpec(
                name=f"adv-{distribution}",
                scoring=adversarial_scoring,
                distribution=distribution,
                num_tasks=18,
                seed=seed,
                min_length=64,
                max_length=1024,
            )
        )
    # Protein-style scoring: uniform lengths, BLOSUM62-class matrix.
    register_workload(
        AdversarialWorkloadSpec(
            name="protein-blosum62",
            scoring=preset("blosum62", band_width=48, zdrop=100),
            distribution="uniform",
            num_tasks=16,
            seed=104,
            min_length=96,
            max_length=512,
            junk_tail_fraction=0.15,
        )
    )
    # Real data: the packaged gzipped FASTA pair, artifact pairs format.
    register_workload(
        FastaWorkloadSpec(
            name="fasta-sample",
            scoring=preset("map-ont", band_width=48, zdrop=160),
            ref_path=str(_DATA_DIR / "sample_ref.fasta.gz"),
            reads_path=str(_DATA_DIR / "sample_reads.fasta.gz"),
            mode="pairs",
        )
    )
    # The kernel line-up the workloads figure runs: AGAThA alone (the
    # baselines' relative standing is fig08's job; here the question is
    # how the full kernel behaves on each workload shape).
    register_suite(
        "workloads",
        [SuiteEntry.make("AGAThA", "AGAThA")],
        description="Registered workloads under the AGAThA kernel "
        "(python -m repro.bench --figure workloads)",
    )


_register_builtins()
