#!/usr/bin/env python3
"""Compare the GPU kernel designs on one evaluation dataset.

Configures a dataset :class:`repro.api.Session` for ``ONT-HG002``
(reads -> seeding/chaining -> extension tasks, built once and shared
by every step below), verifies that every exact
kernel reproduces the reference scores, then reproduces the MM2-Target
and Diff-Target suites and the AGAThA ablation ladder through the
sharded experiment runner -- the same machine-readable record
``python -m repro.bench`` writes to ``BENCH_<figure>.json``.

Run:  python examples/kernel_comparison.py   (~3 s on a 2-vCPU host: every
task's profile comes from one batched vector-engine sweep, shared by the
CPU model and every kernel)
"""

from repro.analysis.report import format_table
from repro.api import Session, get_kernel
from repro.baselines.aligner import Minimap2CpuAligner


def main() -> None:
    name = "ONT-HG002"
    print(f"Building dataset {name} (synthetic GIAB-like reads + pre-compute) ...")
    session = Session(dataset=name)
    tasks = session.workload()
    print(f"  {len(tasks)} extension-alignment tasks")

    device, cpu = session.hardware()
    print(f"hardware: {device.name} vs {cpu.name} (scaled pair, see DESIGN.md)\n")

    # Exactness: AGAThA reproduces the reference scores bit for bit.
    reference_scores = [r.score for r in Minimap2CpuAligner(cpu).run(tasks)]
    agatha_scores = [r.score for r in get_kernel("AGAThA")().run(tasks)]
    assert reference_scores == agatha_scores
    print("exactness check: AGAThA scores == reference scores for every task\n")

    # Main comparison (Figure 8 style), through the sharded runner.  The
    # dataset session restricts the figure grid to its own dataset; larger
    # runs shard with workers=N (see `python -m repro.bench --help`).
    record = session.run_figure("quick")
    rows = []
    for suite_name in ("mm2", "diff"):
        suite = record.suites[suite_name]
        if suite_name == "mm2":
            rows.append(["CPU", suite.cpu_time_ms[name], 1.0])
        tag = "MM2" if suite_name == "mm2" else "Diff"
        for cell in suite.cells:
            rows.append([f"{cell.kernel} ({tag}-Target)", cell.time_ms, cell.speedup_vs_cpu])
    print(format_table(["kernel", "simulated time (ms)", "speedup vs CPU"], rows))

    # Ablation ladder (Figure 9 style), from the runner's ablation suite.
    print("\nAGAThA ablation ladder:")
    ablation = session.run_figure("fig09").suites["ablation"]
    rows = [
        [cell.kernel, cell.time_ms, cell.speedup_vs_cpu, cell.runahead_cells]
        for cell in ablation.cells
    ]
    print(format_table(["variant", "time (ms)", "speedup vs CPU", "run-ahead cells"], rows))


if __name__ == "__main__":
    main()
