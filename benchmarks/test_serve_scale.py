"""Cluster scale-out: sharded serving vs a single service.

The acceptance study of the sharded cluster: one saturating Poisson
trace is drained through :func:`repro.serve.cluster.cluster_replay` at
1, 2 and 4 shards under *modeled* timing (so the study is deterministic
and the virtual makespans measure pure serving capacity).  Four shards
must deliver at least 2.5x single-shard throughput with a no-worse p99
latency, every drain stays bit-identical to ``Session.align()``, and
the run writes the gateable ``BENCH_serve_scale.json`` record that the
CI perf-trajectory job compares against ``benchmarks/baseline.json``
(suite ``serve_scale``).

Two elastic scenarios ride in the same record: ``resize2to4`` replays
the trace on a cluster that grows 2 -> 4 shards mid-drain (p99 must
stay no worse than the static 2-shard run) and ``autotuned`` drains a
heavy-tailed trace with router autotuning enabled, which must cut the
max/mean shard load imbalance of a fixed ``length_stride=128`` router
by at least 20% without hurting p99.
"""

import numpy as np
import pytest

from repro.align.scoring import preset
from repro.align.sequence import mutate, random_sequence
from repro.align.types import AlignmentTask
from repro.api import Session
from repro.serve import (
    ClusterConfig,
    LoadGenerator,
    ScalePlan,
    ServeConfig,
    cluster_replay,
    serve_bench_record,
)

from bench_utils import print_figure, save_record

#: 4-shard vs single-shard throughput floor (ISSUE acceptance).
MIN_SCALE_SPEEDUP = 2.5

#: Autotuned routing must cut load imbalance by this much vs stride 128.
MIN_AUTOTUNE_IMPROVEMENT = 0.20

SHARD_COUNTS = (1, 2, 4)


def _scale_workload(count: int = 48, seed: int = 37):
    rng = np.random.default_rng(seed)
    scoring = preset("map-ont", band_width=16, zdrop=120)
    tasks = []
    for t in range(count):
        ref = random_sequence(int(rng.integers(100, 260)), rng)
        query = mutate(
            ref, rng, substitution_rate=0.06, insertion_rate=0.02, deletion_rate=0.02
        )
        tasks.append(AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=t))
    return tasks


def _heavy_tail_workload(count: int = 64, seed: int = 101):
    """~80% short reads plus a 20% tail of 5-10x longer ones.

    Length-bucketed routing with a fixed stride is visibly imbalanced on
    this mix, which is what gives the autotuner room to demonstrate the
    acceptance improvement.
    """
    rng = np.random.default_rng(seed)
    scoring = preset("map-ont", band_width=16, zdrop=120)
    tasks = []
    for t in range(count):
        if rng.random() < 0.8:
            length = int(rng.integers(60, 140))
        else:
            length = int(rng.integers(600, 1400))
        ref = random_sequence(length, rng)
        query = mutate(
            ref, rng, substitution_rate=0.06, insertion_rate=0.02, deletion_rate=0.02
        )
        tasks.append(AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=t))
    return tasks


@pytest.mark.benchmark(group="serve")
def test_cluster_scale_out(benchmark, tmp_path):
    """4 shards serve >= 2.5x single-shard throughput, p99 no worse."""
    tasks = _scale_workload()
    generator = LoadGenerator(tasks, name="serve-scale", seed=3)
    # The offered rate dwarfs any single shard's capacity: the whole
    # trace arrives within a few virtual milliseconds, every shard is
    # queue-bound, and the makespan ratio measures serving capacity.
    trace = generator.poisson(rate_rps=100_000.0, num_requests=256)
    serve = ServeConfig(
        timing="modeled", max_batch_size=16, max_wait_ms=2.0, refill="drain"
    )

    heavy = LoadGenerator(_heavy_tail_workload(), name="serve-heavy", seed=13)
    heavy_trace = heavy.poisson(rate_rps=100_000.0, num_requests=192)
    fixed = ClusterConfig(serve=serve, shards=4, router="length", length_stride=128)

    def run():
        sweep = [
            cluster_replay(trace, ClusterConfig(serve=serve, shards=shards))
            for shards in SHARD_COUNTS
        ]
        resized = cluster_replay(
            trace,
            ClusterConfig(serve=serve, shards=2),
            policy="resize2to4",
            resize_at=ScalePlan(steps=((1.0, 4),)),
        )
        elastic = [
            cluster_replay(
                heavy_trace, ClusterConfig(serve=serve, shards=1), policy="shards1"
            ),
            cluster_replay(heavy_trace, fixed, policy="length128"),
            cluster_replay(
                heavy_trace, fixed.replace(autotune=True), policy="autotuned"
            ),
        ]
        return sweep, resized, elastic

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    sweep, resized, elastic = reports

    # Sharding, resizing and retuning change placement, never
    # arithmetic: every report is bit-identical to the offline engine.
    direct = list(Session(tasks=list(trace.tasks)).align())
    for report in [*sweep, resized]:
        assert report.results() == direct
    heavy_direct = list(Session(tasks=list(heavy_trace.tasks)).align())
    for report in elastic:
        assert report.results() == heavy_direct

    by_shards = {report.shards: report for report in sweep}
    record = serve_bench_record(
        [*sweep, resized, *elastic], baseline="shards1", figure="serve_scale"
    )
    save_record(record, tmp_path)
    print_figure(
        "Cluster scale-out: shard sweep (saturating Poisson trace, modeled)",
        ["shards", "makespan_ms", "throughput_rps", "p99_latency_ms", "speedup"],
        [
            [
                shards,
                by_shards[shards].makespan_ms,
                by_shards[shards].throughput_rps,
                by_shards[shards].telemetry["latency_ms"]["p99_ms"],
                by_shards[1].makespan_ms / by_shards[shards].makespan_ms,
            ]
            for shards in SHARD_COUNTS
        ],
    )

    speedup = record.suites["serve_scale"].speedups["shards4"]["GeoMean"]
    assert speedup >= MIN_SCALE_SPEEDUP, (
        f"4-shard cluster only {speedup:.2f}x over a single shard; "
        f"expected >= {MIN_SCALE_SPEEDUP}x under a saturating Poisson load"
    )
    p99_4 = by_shards[4].telemetry["latency_ms"]["p99_ms"]
    p99_1 = by_shards[1].telemetry["latency_ms"]["p99_ms"]
    assert p99_4 <= p99_1, (
        f"scaling out worsened p99 latency: {p99_4:.3f}ms at 4 shards vs "
        f"{p99_1:.3f}ms single-shard"
    )
    # Monotone scaling: each doubling helps (no shard is left idle by
    # the router on this trace).
    assert by_shards[2].makespan_ms < by_shards[1].makespan_ms
    assert by_shards[4].makespan_ms < by_shards[2].makespan_ms

    # --- elastic scenario 1: grow 2 -> 4 shards mid-drain ------------
    resize = resized.telemetry["resize"]
    assert resize["events"] == 1
    assert resize["relocated"] > 0
    p99_resized = resized.telemetry["latency_ms"]["p99_ms"]
    assert p99_resized <= by_shards[2].telemetry["latency_ms"]["p99_ms"], (
        f"growing 2 -> 4 shards mid-drain worsened p99: {p99_resized:.3f}ms "
        f"vs the static 2-shard run"
    )
    # The elastic drain lands between the static endpoints: capacity
    # arrives late, so it cannot beat always-4, but it must beat
    # always-2.
    assert by_shards[4].makespan_ms < resized.makespan_ms < by_shards[2].makespan_ms

    # --- elastic scenario 2: autotuned routing on a heavy tail -------
    anchor_h, length128, autotuned = elastic
    choice = autotuned.telemetry["autotune"]
    improvement = 1.0 - choice["imbalance"] / choice["baseline_imbalance"]
    assert improvement >= MIN_AUTOTUNE_IMPROVEMENT, (
        f"autotuning only cut shard load imbalance by {improvement:.0%} "
        f"(stride-128 baseline {choice['baseline_imbalance']:.3f} -> "
        f"{choice['imbalance']:.3f}); expected >= {MIN_AUTOTUNE_IMPROVEMENT:.0%}"
    )
    p99_tuned = autotuned.telemetry["latency_ms"]["p99_ms"]
    p99_fixed = length128.telemetry["latency_ms"]["p99_ms"]
    assert p99_tuned <= p99_fixed, (
        f"autotuned routing worsened p99: {p99_tuned:.3f}ms vs "
        f"{p99_fixed:.3f}ms with length_stride=128"
    )
    print_figure(
        "Elastic scenarios: mid-drain resize and autotuned routing",
        ["scenario", "workload", "makespan_ms", "p99_latency_ms", "note"],
        [
            [
                "resize2to4",
                resized.workload,
                resized.makespan_ms,
                p99_resized,
                f"relocated={resize['relocated']}",
            ],
            [
                "length128",
                length128.workload,
                length128.makespan_ms,
                p99_fixed,
                f"imbalance={choice['baseline_imbalance']:.3f}",
            ],
            [
                "autotuned",
                autotuned.workload,
                autotuned.makespan_ms,
                p99_tuned,
                f"{choice['policy']}/{choice['length_stride']} "
                f"imbalance={choice['imbalance']:.3f}",
            ],
        ],
    )


@pytest.mark.benchmark(group="serve")
def test_cluster_replay_determinism(benchmark):
    """The scale study is bit-reproducible: same trace, same record."""
    tasks = _scale_workload(count=24)
    generator = LoadGenerator(tasks, name="serve-scale-det", seed=9)
    trace = generator.poisson(rate_rps=50_000.0, num_requests=96)
    config = ClusterConfig(
        serve=ServeConfig(
            timing="modeled", max_batch_size=16, max_wait_ms=2.0, refill="drain"
        ),
        shards=4,
    )

    def run():
        return cluster_replay(trace, config), cluster_replay(trace, config)

    first, second = benchmark.pedantic(run, rounds=1, iterations=1)
    assert first.makespan_ms == second.makespan_ms
    assert first.telemetry == second.telemetry
    assert first.scores() == second.scores()
