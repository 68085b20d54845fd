"""Alignment engine -- scalar vs struct-of-arrays wall-clock, and the
sliced-compaction ablation.

Three measured studies of the one struct-of-arrays engine (``vector``),
all anchored on the scalar wavefront oracle:

* **Speedup.**  The fig08 representative workload (one dataset per
  sequencing technology, the trio the sweep-style figures use) is scored
  task by task with the ``scalar`` engine and bucket by bucket with
  ``vector``.  The vector path must be bit-exact on every observable
  *and* at least :data:`REQUIRED_SPEEDUP` faster in total -- the paper's
  claim that inter-task lane parallelism is where the speed lives,
  reproduced numerically rather than just structurally.  Emits
  ``BENCH_vector.json``.
* **Bucket size.**  Wall-clock across bucket sizes: batching gains grow,
  then saturate.
* **Sliced compaction (Sections 4.2-4.3).**  A heterogeneous,
  aggressively early-terminating workload is swept dense
  (``slice_width=None``: every task keeps its buffer rows until its whole
  bucket finishes) and sliced (terminated tasks compacted out every
  :data:`~repro.align.vector.DEFAULT_SLICE_WIDTH` anti-diagonals).  The
  sliced sweep must be bit-exact and at least
  :data:`REQUIRED_COMPACTION_SPEEDUP` faster.  Emits ``BENCH_sliced.json``.

Both records go through the standard record machinery
(``repro.bench.records.engine_bench_record``); the CI perf-trajectory
job collects them via ``REPRO_BENCH_RECORD_DIR`` and gates them against
the ``vector`` and ``sliced`` suites of ``benchmarks/baseline.json``
with ``python -m repro.bench compare``.
"""

import time

import numpy as np
import pytest

from repro.align.scoring import preset
from repro.align.sequence import mutate, random_sequence
from repro.align.types import AlignmentTask
from repro.align.vector import DEFAULT_SLICE_WIDTH, vector_align
from repro.api import EngineOptions, align_tasks
from repro.bench.records import engine_bench_record

from bench_utils import REPRESENTATIVE_DATASETS, print_figure, save_record

#: Required total speedup of ``vector`` over per-task ``scalar`` sweeps
#: on the fig08 representative workload.  Measured runs land at ~45-50x
#: on a 2-core x86 VM; the hard pin sits far below the machine-noise
#: floor so tier-1 stays deterministic, guarding the order-of-magnitude
#: claim.  The measured trajectory itself is enforced by the CI
#: perf-trajectory job, which gates the emitted ``BENCH_vector.json``
#: against ``benchmarks/baseline.json``.
REQUIRED_SPEEDUP = 15.0

#: Bucket sizes swept by the batching study.
BUCKET_SIZES = [8, 16, 32, 64, 128]

#: Required speedup of the sliced sweep over the dense one on the
#: early-terminating mix (1.7-2.1x measured on a 2-core x86 VM).
REQUIRED_COMPACTION_SPEEDUP = 1.3

#: Bucket size of both sweeps in the compaction study (identical
#: batching, so the only difference is the compaction).
COMPACTION_BUCKET_SIZE = 128


def _time(fn, repeats: int = 2) -> tuple[float, list]:
    """Best-of-N wall clock; the min absorbs one-sided scheduler noise.

    The engines are deterministic, so every repeat returns identical
    results and only the timing varies.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def make_early_terminating_workload(
    n_tasks: int = 256,
    *,
    seed: int = 2024,
    divergent_fraction: float = 0.8,
    min_len: int = 300,
    max_len: int = 2400,
):
    """Mixed-length tasks where most pairs Z-drop early.

    ~80% of the pairs are unrelated random sequences (the guided Z-drop
    fires within a few hundred anti-diagonals), the rest are lightly
    mutated copies that sweep their full band -- the stragglers that
    keep whole buckets alive in the dense sweep.
    """
    rng = np.random.default_rng(seed)
    scoring = preset("map-ont", band_width=64, zdrop=100)
    tasks = []
    for t in range(n_tasks):
        length = int(rng.integers(min_len, max_len))
        ref = random_sequence(length, rng)
        if rng.random() < divergent_fraction:
            query = random_sequence(length, rng)
        else:
            query = mutate(ref, rng, substitution_rate=0.03)
        tasks.append(AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=t))
    return tasks


@pytest.mark.benchmark(group="vector_engine")
def test_vector_engine_speedup(benchmark, representative_datasets, tmp_path):
    """vector is bit-exact and far faster than per-task scalar sweeps."""

    def run():
        timings = {}
        for name, tasks in representative_datasets.items():
            scalar_s, scalar_results = _time(
                lambda tasks=tasks: align_tasks(tasks, engine="scalar"), repeats=1
            )
            vector_s, vector_results = _time(
                lambda tasks=tasks: align_tasks(tasks, engine="vector")
            )
            assert vector_results == scalar_results, (
                f"vector diverged from the scalar oracle on {name}"
            )
            timings[name] = (scalar_s, vector_s)
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    scalar_total = sum(s for s, _ in timings.values())
    vector_total = sum(v for _, v in timings.values())
    speedup = scalar_total / vector_total
    tasks_total = sum(map(len, representative_datasets.values()))
    print_figure(
        "Vector engine: per-task scalar vs struct-of-arrays sweep",
        ["dataset", "tasks", "scalar_ms", "vector_ms", "speedup"],
        [
            [name, len(representative_datasets[name]), s * 1e3, v * 1e3, s / v]
            for name, (s, v) in timings.items()
        ]
        + [["TOTAL", tasks_total, scalar_total * 1e3, vector_total * 1e3, speedup]],
    )

    record = engine_bench_record(
        {"scalar": scalar_total * 1e3, "vector": vector_total * 1e3},
        anchor="scalar",
        figure="vector",
        workload="fig08-representative",
        environment={
            "datasets": list(REPRESENTATIVE_DATASETS),
            "tasks": tasks_total,
        },
    )
    path = save_record(record, tmp_path)
    assert path.name == "BENCH_vector.json"

    assert speedup >= REQUIRED_SPEEDUP, (
        f"vector only {speedup:.2f}x over per-task scalar alignment; "
        f"expected >= {REQUIRED_SPEEDUP}x on the fig08 representative workload"
    )


@pytest.mark.benchmark(group="vector_engine")
def test_bucket_size_sweep(benchmark, representative_datasets):
    """Wall-clock across bucket sizes: batching gains grow then saturate."""
    name = REPRESENTATIVE_DATASETS[0]
    tasks = representative_datasets[name]

    def run():
        times = {}
        for bucket_size in BUCKET_SIZES:
            times[bucket_size], _ = _time(
                lambda: align_tasks(
                    tasks, options=EngineOptions(batch_size=bucket_size)
                ),
                repeats=1,
            )
        return times

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    print_figure(
        f"Vector engine bucket-size sweep ({name})",
        ["bucket_size", "time_ms"],
        [[b, t * 1e3] for b, t in times.items()],
    )
    # Large buckets must beat tiny ones: the whole point of batching.
    assert times[BUCKET_SIZES[-1]] < times[BUCKET_SIZES[0]]


@pytest.mark.benchmark(group="vector_engine")
def test_sliced_compaction_speedup(benchmark, tmp_path):
    """The sliced sweep is bit-exact and >= 1.3x faster than the dense one
    on an early-terminating mix."""
    tasks = make_early_terminating_workload()

    def run():
        dense_s, dense_results = _time(
            lambda: vector_align(
                tasks, bucket_size=COMPACTION_BUCKET_SIZE, slice_width=None
            )
        )
        sliced_s, sliced_results = _time(
            lambda: vector_align(
                tasks,
                bucket_size=COMPACTION_BUCKET_SIZE,
                slice_width=DEFAULT_SLICE_WIDTH,
            )
        )
        assert sliced_results == dense_results, (
            "sliced results diverged from the dense sweep"
        )
        terminated = sum(r.terminated for r in dense_results)
        return dense_s, sliced_s, terminated

    dense_s, sliced_s, terminated = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = dense_s / sliced_s
    print_figure(
        "Sliced compaction: dense vs lane-compacting vector sweep",
        ["tasks", "terminated", "dense_ms", "sliced_ms", "speedup"],
        [[len(tasks), terminated, dense_s * 1e3, sliced_s * 1e3, speedup]],
    )
    # The workload only demonstrates compaction if termination dominates.
    assert terminated >= len(tasks) * 0.6

    record = engine_bench_record(
        {"vector-dense": dense_s * 1e3, "vector": sliced_s * 1e3},
        anchor="vector-dense",
        figure="sliced",
        workload="early-terminating-mix",
        environment={
            "tasks": len(tasks),
            "terminated": terminated,
            "batch_size": COMPACTION_BUCKET_SIZE,
            "slice_width": DEFAULT_SLICE_WIDTH,
        },
    )
    path = save_record(record, tmp_path)
    assert path.name == "BENCH_sliced.json"

    assert speedup >= REQUIRED_COMPACTION_SPEEDUP, (
        f"the sliced sweep is only {speedup:.2f}x over the dense one; "
        f"expected >= {REQUIRED_COMPACTION_SPEEDUP}x on an early-terminating workload"
    )
