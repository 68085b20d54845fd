"""End-to-end integration test: reads -> pre-compute -> kernels -> report.

A miniature version of the full evaluation pipeline, small enough to run
in a few seconds, exercising every subsystem together: synthetic data
generation, seeding/chaining, the exact alignment engines, every kernel's
score path, the cost simulation, the CPU baseline and the speedup report.
"""

import numpy as np

from repro.align.scoring import preset
from repro.analysis.report import format_speedup_table
from repro.analysis.workload import task_workload_antidiagonals
from repro.baselines.aligner import Minimap2CpuAligner
from repro.io.datasets import ReadProfile, simulate_reads, synthetic_reference
from repro.kernels import AgathaKernel, BaselineExactKernel, SALoBaKernel
from repro.api import compare_suite
from repro.pipeline.experiment import geometric_mean, scaled_hardware
from repro.pipeline.mapper import LongReadMapper


def test_end_to_end_pipeline():
    rng = np.random.default_rng(99)
    scheme = preset("map-ont", band_width=33, zdrop=120)
    reference = synthetic_reference(15_000, rng)
    profile = ReadProfile(
        name="mini",
        mean_length=500.0,
        sigma_length=0.4,
        max_length=1200,
        substitution_rate=0.04,
        insertion_rate=0.02,
        deletion_rate=0.03,
        junk_fraction=0.05,
        chimera_fraction=0.15,
        burst_fraction=0.2,
        burst_error=0.18,
        junk_tail_fraction=0.15,
    )
    reads = simulate_reads(reference, profile, 24, rng)
    mapper = LongReadMapper(reference, scheme, anchor_spacing=100)
    tasks = mapper.workload([r.sequence for r in reads])
    assert len(tasks) >= 10

    # Workload has the expected rough shape (a spread of task sizes).
    workloads = task_workload_antidiagonals(tasks)
    assert workloads.max() > 2 * np.median(workloads)

    # Exactness across the whole pipeline: AGAThA reproduces the reference.
    cpu = Minimap2CpuAligner()
    reference_results = cpu.run(tasks)
    agatha_results = AgathaKernel().run(tasks)
    assert all(a.same_score(b) for a, b in zip(agatha_results, reference_results))

    # Cost comparison: AGAThA beats the naive exact baseline, and the
    # speedup table renders.
    device, cpu_spec = scaled_hardware()
    results = compare_suite(
        tasks,
        {
            "AGAThA": AgathaKernel(),
            "Baseline": BaselineExactKernel(),
            "SALoBa": SALoBaKernel(target="mm2"),
        },
        device=device,
        cpu=cpu_spec,
    ).to_dict()
    assert results["AGAThA"]["speedup_vs_cpu"] > results["Baseline"]["speedup_vs_cpu"]
    table = {
        name: {"mini": summary["speedup_vs_cpu"], "GeoMean": summary["speedup_vs_cpu"]}
        for name, summary in results.items()
        if name != "CPU"
    }
    rendered = format_speedup_table(table)
    assert "AGAThA" in rendered
    assert geometric_mean([results["AGAThA"]["speedup_vs_cpu"]]) > 0
