"""Serving throughput: micro-batched vs batch-size-1 drains.

The acceptance study of the serving layer: one Poisson request trace
over a synthetic workload is drained twice through the virtual-clock
scheduler with *measured* engine timing -- once micro-batched
(``max_batch_size=32``) and once one-request-per-batch.  Micro-batching
must deliver at least 3x the throughput (the arrival rate saturates the
server, so the makespan ratio is the service-capacity ratio), and the
run writes the versioned ``BENCH_serve.json`` record that
``python -m repro.bench compare`` can gate.
"""

import numpy as np
import pytest

from repro.align.scoring import preset
from repro.align.sequence import mutate, random_sequence
from repro.align.types import AlignmentTask
from repro.api import Session, align_tasks
from repro.serve import LoadGenerator, ServeConfig, replay, serve_bench_record

from bench_utils import print_figure, save_record

#: Micro-batched vs batch-size-1 throughput floor (ISSUE acceptance).
MIN_SPEEDUP = 3.0

#: Continuous refill vs drain-then-form mean-lane-occupancy floor
#: (ISSUE acceptance): refilling freed lanes at slice boundaries must
#: keep the batch at least 1.2x as full, averaged over slices.
MIN_OCCUPANCY_GAIN = 1.2


def _serve_workload(count: int = 48, seed: int = 29):
    rng = np.random.default_rng(seed)
    scoring = preset("map-ont", band_width=16, zdrop=120)
    tasks = []
    for t in range(count):
        ref = random_sequence(int(rng.integers(100, 280)), rng)
        query = mutate(
            ref, rng, substitution_rate=0.06, insertion_rate=0.02, deletion_rate=0.02
        )
        tasks.append(AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=t))
    return tasks


@pytest.mark.benchmark(group="serve")
def test_microbatch_serving_throughput(benchmark, tmp_path):
    """Micro-batched serving is bit-exact and >= 3x batch-size-1 throughput."""
    tasks = _serve_workload()
    generator = LoadGenerator(tasks, name="serve-poisson", seed=3)
    # The offered rate far exceeds single-request service capacity, so
    # both drains are queue-bound and the makespan ratio measures pure
    # serving capacity, not arrival spacing.
    trace = generator.poisson(rate_rps=20_000.0, num_requests=160)
    config = ServeConfig(
        timing="measured", max_batch_size=32, max_wait_ms=2.0, refill="drain"
    )

    def run():
        micro = replay(trace, config, policy="microbatch")
        single = replay(trace, config.replace(max_batch_size=1), policy="batch1")
        return micro, single

    micro, single = benchmark.pedantic(run, rounds=1, iterations=1)

    # Served results are bit-identical to direct engine scoring.
    direct = align_tasks(list(trace.tasks))
    assert micro.results() == direct
    assert single.results() == direct

    record = serve_bench_record([micro, single])
    record.save(tmp_path / "BENCH_serve.json")
    speedup = record.suites["serve"].speedups["microbatch"]["GeoMean"]
    print_figure(
        "Serving throughput: micro-batched vs batch-size-1 (Poisson load)",
        ["policy", "makespan_ms", "throughput_rps", "p99_latency_ms", "batches"],
        [
            [
                report.policy,
                report.makespan_ms,
                report.throughput_rps,
                report.telemetry["latency_ms"]["p99_ms"],
                report.telemetry["batches"],
            ]
            for report in (micro, single)
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"micro-batched serving only {speedup:.2f}x over batch-size-1; "
        f"expected >= {MIN_SPEEDUP}x under a saturating Poisson load"
    )


@pytest.mark.benchmark(group="serve")
def test_continuous_refill_occupancy_and_latency(benchmark, tmp_path):
    """Continuous lane refill beats drain-then-form on a bursty trace.

    The streaming acceptance study: the same bursty trace is served by
    the ``vector`` engine twice under modeled timing -- once with
    continuous refill (freed lanes re-admitted at slice boundaries) and
    once draining each batch to empty before forming the next.  The
    refilled drain must hold >= 1.2x the mean lane occupancy with a
    no-worse p99 latency, results stay bit-identical to
    ``Session.align()``, and the run emits the gateable
    ``BENCH_serve.json`` (this is the record the CI perf-trajectory job
    compares against ``benchmarks/baseline.json``).
    """
    # Heavy-tailed service times: most requests are divergent pairs that
    # z-drop within a few slices, a minority are long well-matched pairs
    # that keep their lane for a hundred-plus slices.  Drain-then-form
    # rides each batch down to the few long stragglers while the next
    # burst queues; continuous refill tops the batch back up every slice.
    rng = np.random.default_rng(41)
    scoring = preset("map-ont", band_width=16, zdrop=80)
    tasks = []
    for t in range(64):
        if rng.random() < 0.6:
            ref = random_sequence(int(rng.integers(60, 160)), rng)
            query = random_sequence(int(rng.integers(60, 160)), rng)
        else:
            ref = random_sequence(int(rng.integers(900, 1400)), rng)
            query = mutate(ref, rng, substitution_rate=0.05)
        tasks.append(AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=t))
    generator = LoadGenerator(tasks, name="serve-bursty", seed=7)
    trace = generator.bursty(6_000.0, 192, on_ms=4.0, off_ms=6.0, seed=11)
    config = ServeConfig(timing="modeled", max_batch_size=16, max_wait_ms=2.0)
    assert config.policy_name == "continuous"

    def run():
        continuous = replay(trace, config)
        drained = replay(trace, config.replace(refill="drain"))
        return continuous, drained

    continuous, drained = benchmark.pedantic(run, rounds=1, iterations=1)

    # Served results are bit-identical to the one-shot public API.
    direct = Session(tasks=list(trace.tasks)).align()
    assert continuous.results() == list(direct.results)
    assert drained.results() == list(direct.results)

    cont_lanes = continuous.telemetry["lane_occupancy"]
    drain_lanes = drained.telemetry["lane_occupancy"]
    cont_p99 = continuous.telemetry["latency_ms"]["p99_ms"]
    drain_p99 = drained.telemetry["latency_ms"]["p99_ms"]

    record = serve_bench_record([continuous, drained], baseline="microbatch")
    save_record(record, tmp_path)
    print_figure(
        "Continuous refill vs drain-then-form (bursty trace, vector)",
        ["policy", "makespan_ms", "mean_lane_occ", "slices", "refills", "p99_ms"],
        [
            [
                report.policy,
                report.makespan_ms,
                report.telemetry["lane_occupancy"]["mean"],
                report.telemetry["lane_occupancy"]["slices"],
                report.telemetry["refill"]["admitted_inflight"],
                report.telemetry["latency_ms"]["p99_ms"],
            ]
            for report in (continuous, drained)
        ],
    )

    gain = cont_lanes["mean"] / drain_lanes["mean"]
    assert gain >= MIN_OCCUPANCY_GAIN, (
        f"continuous refill holds only {gain:.2f}x the drain-then-form mean "
        f"lane occupancy ({cont_lanes['mean']:.2f} vs {drain_lanes['mean']:.2f}); "
        f"expected >= {MIN_OCCUPANCY_GAIN}x on the bursty trace"
    )
    assert cont_p99 <= drain_p99, (
        f"continuous refill worsened p99 latency: {cont_p99:.3f}ms vs "
        f"{drain_p99:.3f}ms drain-then-form"
    )


@pytest.mark.benchmark(group="serve")
def test_latency_throughput_tradeoff(benchmark):
    """Longer max_wait (bigger batches) must not reduce saturated throughput."""
    tasks = _serve_workload(count=32)
    generator = LoadGenerator(tasks, name="serve-tradeoff", seed=5)
    trace = generator.poisson(rate_rps=20_000.0, num_requests=96)

    def run():
        times = {}
        for wait_ms in (0.5, 4.0):
            config = ServeConfig(
                timing="measured", max_batch_size=32, max_wait_ms=wait_ms,
                refill="drain",
            )
            times[wait_ms] = replay(trace, config).makespan_ms
        return times

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    print_figure(
        "max_wait_ms sweep (saturated Poisson load)",
        ["max_wait_ms", "makespan_ms"],
        [[wait, makespan] for wait, makespan in times.items()],
    )
    # Under saturation batches fill by size, not deadline; the makespans
    # must stay in the same regime (allow generous wall-clock noise).
    assert times[4.0] <= times[0.5] * 2.0
