"""Exact check of the simulated ``quick`` records against the baseline.

The ``mm2`` and ``diff`` suites are simulated: every field of every cell
is a deterministic function of the workload, the kernels and the cost
model.  So a fresh ``python -m repro.bench --figure quick`` run must
reproduce the matching ``(dataset, kernel)`` cells and CPU anchors of
``benchmarks/baseline.json`` bit for bit.  The CI ``compare`` gate reads
only the speedups, within 20 %, so it passes drift that this test
catches.
"""

import json
from pathlib import Path

import pytest

from repro.bench.runner import FIGURES, run_figure

BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / "baseline.json"
SUITES = ("mm2", "diff")
KERNELS_PER_SUITE = 4


@pytest.fixture(scope="module")
def quick_and_baseline():
    fresh = run_figure("quick", workers=1).to_dict()["suites"]
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))["suites"]
    return fresh, baseline


def test_quick_cells_equal_baseline_exactly(quick_and_baseline):
    fresh, baseline = quick_and_baseline
    compared = 0
    for suite in SUITES:
        expected = {(c["dataset"], c["kernel"]): c for c in baseline[suite]["cells"]}
        for cell in fresh[suite]["cells"]:
            # Every field: time_ms, speedup_vs_cpu, cells, runahead_cells,
            # global_words and imbalance.
            assert cell == expected[(cell["dataset"], cell["kernel"])]
            compared += 1
    datasets = len(FIGURES["quick"].datasets)
    assert compared == len(SUITES) * datasets * KERNELS_PER_SUITE


def test_quick_cpu_anchors_equal_baseline_exactly(quick_and_baseline):
    fresh, baseline = quick_and_baseline
    compared = 0
    for suite in SUITES:
        for dataset, time_ms in fresh[suite]["cpu_time_ms"].items():
            assert time_ms == baseline[suite]["cpu_time_ms"][dataset], (suite, dataset)
            compared += 1
    assert compared == len(SUITES) * len(FIGURES["quick"].datasets)
