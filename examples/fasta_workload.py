#!/usr/bin/env python3
"""Real FASTA data through the workload registry (docs/WORKLOADS.md).

End to end:

1. write a small gzipped reference/reads FASTA pair to a temp directory
   (the AGAThA artifact's paired-record format);
2. register a :class:`repro.api.FastaWorkloadSpec` under a name, making
   it resolvable everywhere a dataset name is;
3. score it through a :class:`repro.api.Session` with batch-scale CIGAR
   emission (``align(cigars=True)`` -- every CIGAR is the scalar
   traceback oracle's, whichever engine scored the workload);
4. run the packaged built-in workloads (adversarial length
   distributions, protein-style BLOSUM62 scoring, the sample FASTA
   pair) through the sharded figure runner, the same path
   ``python -m repro.bench --figure workloads`` takes.

Run:  python examples/fasta_workload.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.align import mutate, preset, random_sequence
from repro.api import (
    WORKLOADS,
    FastaWorkloadSpec,
    Session,
    register_workload,
    workload_names,
)
from repro.io.fasta import FastaRecord, write_fasta


def write_sample_pair(directory: Path, count: int = 8) -> tuple[Path, Path]:
    """A deterministic gzipped reference/reads pair on disk."""
    rng = np.random.default_rng(7)
    refs, reads = [], []
    for i in range(count):
        ref = random_sequence(int(rng.integers(200, 600)), rng)
        query = mutate(
            ref, rng, substitution_rate=0.04, insertion_rate=0.015, deletion_rate=0.015
        )
        refs.append(FastaRecord(name=f"ref{i}", sequence=ref))
        reads.append(FastaRecord(name=f"read{i}", sequence=query))
    ref_path = directory / "ref.fasta.gz"
    reads_path = directory / "reads.fasta.gz"
    write_fasta(ref_path, refs)
    write_fasta(reads_path, reads)
    return ref_path, reads_path


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        ref_path, reads_path = write_sample_pair(Path(tmp))

        # --- register: the name now works wherever a dataset name does ---
        register_workload(
            FastaWorkloadSpec(
                name="example-fasta",
                scoring=preset("map-ont", band_width=48, zdrop=160),
                ref_path=str(ref_path),
                reads_path=str(reads_path),
                mode="pairs",
            ),
            replace=True,
        )
        print("registered workloads:", ", ".join(workload_names()))

        # --- align with batch-scale CIGAR emission -----------------------
        session = Session(dataset="example-fasta")
        outcome = session.align(cigars=True)
        print(f"\n{len(outcome.scores)} tasks scored; first three with CIGARs:")
        for tb in outcome.cigars[:3]:
            print(
                f"  score={tb.result.score:4d}  "
                f"ref[{tb.ref_start}:{tb.ref_end}]  "
                f"cigar={tb.cigar.to_string()}"
            )

        # --- every registered workload through the figure runner ---------
        # (the same path `python -m repro.bench --figure workloads` takes;
        # run inside the temp-dir scope so example-fasta's files exist)
        from repro.bench.runner import run_figure

        record = run_figure("workloads")
        row = record.suites["workloads"].speedups["AGAThA"]
        print("\nAGAThA speedup over the CPU anchor, per registered workload:")
        for name in record.datasets:
            print(f"  {name:20s} {row[name]:6.2f}x")
        print(f"  {'GeoMean':20s} {row['GeoMean']:6.2f}x")

    # Drop the temp-file-backed registration now that its files are gone.
    WORKLOADS.unregister("example-fasta")


if __name__ == "__main__":
    main()
