"""Command-line front end: ``python -m repro.serve``.

Load-generates against one dataset's or registered workload's tasks,
drains the trace through the micro-batching scheduler, and -- unless
``--no-baseline`` -- drains the *same* trace again with batching
disabled (``max_batch_size=1``), so the printed speedup and the written
``BENCH_serve.json`` record quantify exactly what micro-batching buys.

The record reuses the figure-benchmark schema, so serving throughput is
gated the same way figure speedups are::

    python -m repro.serve --dataset ONT-HG002 --output BENCH_serve.json
    python -m repro.bench compare benchmarks/serve_baseline.json BENCH_serve.json

``--shards N`` drains the trace through the sharded cluster instead
(:func:`repro.serve.cluster.cluster_replay`): requests are partitioned
by the deterministic shard router, the anchor drain is the same trace
through one service, and the printed speedup quantifies what scaling
out buys.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.align.vector import DEFAULT_BUCKET_SIZE
from repro.serve.cluster import (
    ROUTE_POLICIES,
    ClusterConfig,
    ScalePlan,
    cluster_replay,
)
from repro.serve.config import REFILL_MODES, TIMING_MODES, ServeConfig
from repro.serve.loadgen import LoadGenerator, RequestTrace
from repro.serve.scheduler import ServeReport, replay
from repro.serve.telemetry import serve_bench_record

__all__ = ["main"]

ARRIVAL_PROCESSES = ("poisson", "bursty", "replay")


def _engine_help() -> str:
    """Dynamic --engine help derived from the live registry."""
    from repro.api.engines import engine_names, supports_streaming

    names = ", ".join(
        f"{name}*" if supports_streaming(name) else name for name in engine_names()
    )
    return (
        f"alignment engine from the repro.api registry (choices: {names}; "
        "* streams natively and defaults to continuous refill; "
        "default: vector)"
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Micro-batching alignment service: load generation, "
        "latency telemetry and a gateable BENCH_serve.json record.",
        allow_abbrev=False,
    )
    parser.add_argument(
        "--dataset",
        default="ONT-HG002",
        help="dataset or registered workload whose tasks are served "
        "(default: ONT-HG002; an unknown name lists every choice)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        metavar="N",
        help="number of requests (default: the workload size; larger values "
        "cycle the workload)",
    )
    parser.add_argument(
        "--arrival",
        default="poisson",
        choices=ARRIVAL_PROCESSES,
        help="arrival process (default: poisson)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=500.0,
        metavar="RPS",
        help="arrival rate in requests/s; for bursty, the in-burst rate "
        "(default: 500)",
    )
    parser.add_argument(
        "--on-ms", type=float, default=50.0, help="bursty: ON-window length (default: 50)"
    )
    parser.add_argument(
        "--off-ms", type=float, default=200.0, help="bursty: OFF-gap length (default: 200)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="arrival-process RNG seed (default: 0)"
    )
    parser.add_argument(
        "--engine",
        default="vector",
        metavar="ENGINE",
        # Validated by ServeConfig against the live registry.
        help=_engine_help(),
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="B",
        help=f"engine bucket size (default: {DEFAULT_BUCKET_SIZE})",
    )
    parser.add_argument(
        "--slice-width",
        type=int,
        default=None,
        metavar="W",
        help="anti-diagonals per slice for streaming engines "
        "(default: the engine default)",
    )
    parser.add_argument(
        "--refill",
        default="auto",
        choices=REFILL_MODES,
        help="lane-refill policy: continuous admits requests into freed "
        "lanes at slice boundaries, drain runs each batch to completion "
        "(default: auto = continuous for streaming engines)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=32,
        metavar="B",
        help="most requests per dispatched batch (default: 32)",
    )
    parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=4.0,
        metavar="MS",
        help="longest a request may wait for batch-mates (default: 4.0)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel batch executors in the queueing model (default: 1)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="drain through an N-shard cluster replay; the anchor is the "
        "same trace through a single service (default: 1 = no cluster)",
    )
    parser.add_argument(
        "--router",
        default="hash",
        choices=ROUTE_POLICIES,
        help="cluster routing policy: hash spreads by request id, length "
        "co-locates similar sweep lengths, stable keeps resizes to the "
        "minimal key movement (default: hash)",
    )
    parser.add_argument(
        "--autotune",
        action="store_true",
        help="observe the trace prefix and pick the routing policy/stride "
        "minimising shard load imbalance (cluster drains only)",
    )
    parser.add_argument(
        "--resize-at",
        action="append",
        default=None,
        metavar="MS:SHARDS",
        help="elastically resize the cluster drain at virtual time MS to "
        "SHARDS shards; repeatable for multi-step schedules "
        "(e.g. --resize-at 50:4 --resize-at 200:2)",
    )
    parser.add_argument(
        "--fifo",
        action="store_true",
        help="disable length-aware batch formation (plain FIFO batches)",
    )
    parser.add_argument(
        "--timing",
        default="measured",
        choices=TIMING_MODES,
        help="charge measured engine wall time or the deterministic model "
        "(default: measured)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the batch-size-1 anchor drain (record then has no speedup)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="record file to write (default: BENCH_serve.json)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the telemetry table"
    )
    return parser


def _parse_resize(specs: Optional[Sequence[str]]) -> Optional[ScalePlan]:
    """``["50:4", "200:2"]`` -> a :class:`ScalePlan` (None passes through)."""
    if not specs:
        return None
    steps = []
    for spec in specs:
        at_ms, sep, shards = spec.partition(":")
        try:
            if not sep:
                raise ValueError(spec)
            steps.append((float(at_ms), int(shards)))
        except ValueError:
            raise ValueError(
                f"--resize-at expects MS:SHARDS (e.g. 50:4), got {spec!r}"
            ) from None
    return ScalePlan(steps=tuple(steps))


def _make_trace(generator: LoadGenerator, args: argparse.Namespace) -> RequestTrace:
    if args.arrival == "poisson":
        return generator.poisson(args.rate, args.requests, seed=args.seed)
    if args.arrival == "bursty":
        return generator.bursty(
            args.rate, args.requests, on_ms=args.on_ms, off_ms=args.off_ms, seed=args.seed
        )
    return generator.replay(args.rate, args.requests)


def _format_report(report: ServeReport) -> List[str]:
    latency = report.telemetry["latency_ms"]
    wait = report.telemetry["wait_ms"]
    lanes = report.telemetry["lane_occupancy"]
    refill = report.telemetry["refill"]
    assert isinstance(latency, dict) and isinstance(wait, dict)
    assert isinstance(lanes, dict) and isinstance(refill, dict)
    lane_line = (
        f"  mean lane occupancy   : {lanes['mean']:.2f} over {lanes['slices']} "
        f"slices ({refill['admitted_inflight']} refill admissions)"
    )
    lines = [
        f"[{report.policy}]",
        f"  requests / batches    : {report.num_requests} / {report.telemetry['batches']}",
        f"  mean batch occupancy  : {report.telemetry['mean_batch_occupancy']:.2f}",
        lane_line,
        f"  drain makespan        : {report.makespan_ms:.2f} ms",
        f"  throughput            : {report.throughput_rps:.1f} req/s",
        "  latency p50/p95/p99   : "
        f"{latency['p50_ms']:.2f} / {latency['p95_ms']:.2f} / {latency['p99_ms']:.2f} ms",
        f"  max queueing wait     : {wait['max_ms']:.2f} ms",
    ]
    shards = report.telemetry.get("shards") if isinstance(report.telemetry, dict) else None
    if shards:
        per_shard = ", ".join(
            f"{index}:{summary['requests']}"
            for index, summary in sorted(shards.items(), key=lambda kv: int(kv[0]))
        )
        lines.append(f"  requests per shard    : {per_shard}")
    autotune = report.telemetry.get("autotune") if isinstance(report.telemetry, dict) else None
    if autotune:
        lines.append(
            f"  autotuned router      : {autotune['policy']}"
            f"/stride {autotune['length_stride']} "
            f"(imbalance {autotune['imbalance']:.2f}, "
            f"baseline {autotune['baseline_imbalance']:.2f})"
        )
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _parser().parse_args(list(sys.argv[1:] if argv is None else argv))
    try:
        generator = LoadGenerator.from_dataset(args.dataset, seed=args.seed)
        trace = _make_trace(generator, args)
        from repro.api.engines import EngineOptions, supports_streaming

        refill = args.refill
        if refill == "continuous" and not supports_streaming(args.engine):
            print(
                f"warning: engine {args.engine!r} cannot refill continuously "
                "(supports_streaming() is False for it); falling back to "
                "--refill drain",
                file=sys.stderr,
            )
            refill = "drain"
        if args.shards < 1:
            raise ValueError("--shards must be >= 1")
        config = ServeConfig(
            engine=args.engine,
            max_batch_size=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            workers=args.workers,
            length_aware=not args.fifo,
            timing=args.timing,
            options=EngineOptions(
                batch_size=args.batch_size, slice_width=args.slice_width
            ),
            refill=refill,
        )
        if not args.quiet:
            print(
                f"serving {len(trace)} requests of {trace.name} "
                f"({trace.process} arrivals, ~{trace.offered_rate_rps:.0f} req/s offered)",
                file=sys.stderr,
            )
        reports: List[ServeReport]
        if args.resize_at and args.shards <= 1:
            raise ValueError("--resize-at needs a cluster drain (--shards >= 2)")
        if args.autotune and args.shards <= 1:
            raise ValueError("--autotune needs a cluster drain (--shards >= 2)")
        if args.shards > 1:
            cluster = ClusterConfig(
                serve=config,
                shards=args.shards,
                router=args.router,
                autotune=args.autotune or None,
            )
            reports = [
                cluster_replay(trace, cluster, resize_at=_parse_resize(args.resize_at))
            ]
            baseline = reports[0].policy
            # The natural anchor for a cluster is the same trace through
            # one service: the speedup is what scaling out buys.
            if not args.no_baseline:
                reports.append(replay(trace, config, policy=config.policy_name))
                baseline = config.policy_name
        else:
            reports = [replay(trace, config, policy=config.policy_name)]
            baseline = config.policy_name
            # An anchor drain only makes sense when the main drain actually
            # micro-batches; with --max-batch 1 the main drain IS the anchor.
            if not args.no_baseline and config.max_batch_size > 1:
                anchor_config = config.replace(max_batch_size=1)
                reports.append(replay(trace, anchor_config, policy="batch1"))
                baseline = "batch1"
        record = serve_bench_record(reports, baseline=baseline)
        path = record.save(args.output or record.default_filename)
        if not args.quiet:
            for report in reports:
                print("\n".join(_format_report(report)))
            if len(reports) == 2:
                main_policy = reports[0].policy
                speedup = record.suites["serve"].speedups[main_policy]["GeoMean"]
                anchor = "batch-size-1" if baseline == "batch1" else baseline
                print(f"{main_policy} speedup: {speedup:.2f}x over {anchor}")
        print(f"wrote {path}")
        return 0
    except (KeyError, ValueError, FileNotFoundError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
