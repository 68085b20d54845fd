"""Latency / throughput telemetry of the alignment service.

The sink collects five kinds of samples while a drain runs -- queue
depth (sampled at every arrival *and* at every dispatch or refill
admission, so requests admitted into an in-flight batch count as
dequeued), batch occupancy (one sample per dispatched batch), per-slice
lane occupancy (one sample per engine slice, the occupancy-over-time
view of continuous refill), in-flight refill admissions, and per-request
wait / end-to-end latency -- plus the bounded-admission outcome counters
(``ADMISSION_OUTCOMES``) the sharded cluster feeds -- and renders them
as a versioned summary dict (``SERVE_SCHEMA_VERSION``).  Percentiles use
the nearest-rank definition on sorted samples, so a summary is a pure
function of the sample multiset: deterministic replays produce
bit-identical telemetry.  Sinks serialise (:meth:`TelemetrySink.state`)
and merge (:meth:`TelemetrySink.merge`) by pooling raw samples, which is
how cross-shard percentiles stay exact instead of being averages of
per-shard percentiles.

:func:`serve_bench_record` folds one or more
:class:`~repro.serve.scheduler.ServeReport` objects into the same
versioned :class:`~repro.bench.records.BenchRecord` format the figure
benchmarks use (``BENCH_serve.json``): each serving policy becomes a
"kernel" row whose ``speedup_vs_cpu`` is its throughput relative to the
batch-size-1 anchor, so ``python -m repro.bench compare`` gates serving
regressions exactly like figure regressions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.align.streaming import SliceStats
    from repro.bench.records import BenchRecord
    from repro.serve.scheduler import ServeReport

__all__ = [
    "SERVE_SCHEMA_VERSION",
    "ADMISSION_OUTCOMES",
    "FAULT_KINDS",
    "percentile",
    "LatencySummary",
    "TelemetrySink",
    "serve_bench_record",
]

#: Version of the telemetry summary layout (stamped into every summary
#: and into the ``BENCH_serve.json`` environment block).  Bump when the
#: keys below change incompatibly.
#:
#: v2 added the streaming-engine fields: ``lane_occupancy`` (per-slice
#: occupancy of the in-flight batch) and ``refill`` (requests admitted
#: into an already-running batch), and queue depth became sampled at
#: dispatches/refills as well as arrivals.
#:
#: v3 added the sharded-cluster fields: every summary carries
#: ``admission`` counters (``admitted`` / ``rejected`` / ``shed`` /
#: ``retried`` -- the bounded-admission outcomes of
#: :class:`repro.serve.queueing.AdmissionController`), and cluster-level
#: summaries add a ``"shards"`` block mapping each shard index to its own
#: per-shard summary while the top-level percentiles are recomputed from
#: the pooled raw samples (sinks merge via :meth:`TelemetrySink.merge`,
#: never by averaging percentiles).
#:
#: v4 added the elastic-cluster fields: every summary carries ``faults``
#: counters (``FAULT_KINDS`` -- injected/observed crashes, stalls,
#: dropped and duplicated dispatches, see :mod:`repro.serve.faults`) and
#: a ``resize`` block (``events`` = shard-count changes, ``relocated`` =
#: queued requests moved between shards by a resize); cluster summaries
#: may additionally carry an ``"autotune"`` block describing the router
#: the length-distribution observer picked (:mod:`repro.serve.autotune`).
SERVE_SCHEMA_VERSION = 4

#: Admission outcomes a sink counts (see ``AdmissionController``):
#: ``admitted`` requests entered a queue, ``rejected`` ones were refused
#: with backpressure, ``shed`` ones were evicted from a queue to make
#: room for higher-priority work, and ``retried`` ones were re-queued on
#: a surviving shard after a worker crash.
ADMISSION_OUTCOMES = ("admitted", "rejected", "shed", "retried")

#: Fault kinds a sink counts (see :mod:`repro.serve.faults`): ``crashes``
#: are worker deaths (injected or real), ``delays`` applied stalls,
#: ``dropped`` lost dispatches whose requests were restored to the queue,
#: and ``duplicated`` dispatches delivered twice (served twice, resolved
#: once).
FAULT_KINDS = ("crashes", "delays", "dropped", "duplicated")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    Deterministic and interpolation-free: the returned value is always
    one of the samples, which keeps modeled-timing replays bit-stable.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    if not values:
        raise ValueError("percentile of an empty sample set")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class LatencySummary:
    """Five-number summary of one latency-like sample set (milliseconds)."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencySummary":
        if not values:
            return cls(count=0, mean_ms=0.0, p50_ms=0.0, p95_ms=0.0, p99_ms=0.0, max_ms=0.0)
        return cls(
            count=len(values),
            mean_ms=float(sum(values) / len(values)),
            p50_ms=percentile(values, 50.0),
            p95_ms=percentile(values, 95.0),
            p99_ms=percentile(values, 99.0),
            max_ms=float(max(values)),
        )

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "max_ms": self.max_ms,
        }


class TelemetrySink:
    """Accumulates serving samples and renders the versioned summary."""

    def __init__(self) -> None:
        self.wait_ms: List[float] = []
        self.latency_ms: List[float] = []
        self.queue_depths: List[int] = []
        self.batch_occupancy: Counter = Counter()
        self.num_batches = 0
        self.slice_occupancy: List[float] = []
        self.refill_admissions = 0
        self.admission: Dict[str, int] = {outcome: 0 for outcome in ADMISSION_OUTCOMES}
        self.faults: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self.resize_events = 0
        self.resize_relocated = 0

    # ------------------------------------------------------------------
    def record_queue_depth(self, depth: int) -> None:
        """Sample the pending-queue depth.

        Drivers sample at every arrival and at every dispatch or refill
        admission, so requests admitted into an in-flight batch count as
        dequeued the moment they leave the queue (not at batch
        completion).
        """
        self.queue_depths.append(int(depth))

    def record_batch(self, occupancy: int) -> None:
        """Record one dispatched batch of ``occupancy`` requests."""
        self.batch_occupancy[int(occupancy)] += 1
        self.num_batches += 1

    def record_slice(self, stats: "SliceStats") -> None:
        """Record one engine slice of an in-flight batch.

        ``stats`` is the :class:`repro.api.SliceStats` the batch handle
        returned from ``step()``; its :attr:`occupancy` (live lanes over
        capacity at the start of the slice) is the sample that builds the
        occupancy-over-time view.
        """
        self.slice_occupancy.append(float(stats.occupancy))

    def record_refill(self, admitted: int) -> None:
        """Record ``admitted`` requests joining an already-running batch."""
        self.refill_admissions += int(admitted)

    def record_request(self, wait_ms: float, latency_ms: float) -> None:
        """Record one completed request's wait and end-to-end latency."""
        self.wait_ms.append(float(wait_ms))
        self.latency_ms.append(float(latency_ms))

    def record_admission(self, outcome: str, count: int = 1) -> None:
        """Count one bounded-admission outcome (see ``ADMISSION_OUTCOMES``)."""
        if outcome not in self.admission:
            raise ValueError(
                f"unknown admission outcome {outcome!r}; "
                f"expected one of {ADMISSION_OUTCOMES}"
            )
        self.admission[outcome] += int(count)

    def record_fault(self, kind: str, count: int = 1) -> None:
        """Count one injected/observed fault (see ``FAULT_KINDS``)."""
        if kind not in self.faults:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        self.faults[kind] += int(count)

    def record_resize(self, relocated: int = 0) -> None:
        """Count one shard-count change and the requests it relocated."""
        self.resize_events += 1
        self.resize_relocated += int(relocated)

    # ------------------------------------------------------------------
    # cross-process state transfer + merging (the sharded cluster ships
    # each worker's sink home and pools the raw samples, so merged
    # percentiles are computed on the union -- never averaged)
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """Plain-JSON snapshot of the raw samples (picklable, mergeable)."""
        return {
            "wait_ms": list(self.wait_ms),
            "latency_ms": list(self.latency_ms),
            "queue_depths": list(self.queue_depths),
            "batch_occupancy": {
                str(size): count for size, count in sorted(self.batch_occupancy.items())
            },
            "num_batches": self.num_batches,
            "slice_occupancy": list(self.slice_occupancy),
            "refill_admissions": self.refill_admissions,
            "admission": dict(self.admission),
            "faults": dict(self.faults),
            "resize": {
                "events": self.resize_events,
                "relocated": self.resize_relocated,
            },
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "TelemetrySink":
        """Rebuild a sink from :meth:`state` (inverse, sample-exact)."""
        sink = cls()
        sink.wait_ms = [float(v) for v in state.get("wait_ms", [])]  # type: ignore[union-attr]
        sink.latency_ms = [float(v) for v in state.get("latency_ms", [])]  # type: ignore[union-attr]
        sink.queue_depths = [int(v) for v in state.get("queue_depths", [])]  # type: ignore[union-attr]
        occupancy = state.get("batch_occupancy", {})
        assert isinstance(occupancy, Mapping)
        sink.batch_occupancy = Counter(
            {int(size): int(count) for size, count in occupancy.items()}
        )
        sink.num_batches = int(state.get("num_batches", 0))  # type: ignore[arg-type]
        sink.slice_occupancy = [
            float(v) for v in state.get("slice_occupancy", [])  # type: ignore[union-attr]
        ]
        sink.refill_admissions = int(state.get("refill_admissions", 0))  # type: ignore[arg-type]
        admission = state.get("admission", {})
        assert isinstance(admission, Mapping)
        for outcome, count in admission.items():
            sink.record_admission(str(outcome), int(count))
        faults = state.get("faults", {})
        assert isinstance(faults, Mapping)
        for kind, count in faults.items():
            sink.record_fault(str(kind), int(count))
        resize = state.get("resize", {})
        assert isinstance(resize, Mapping)
        sink.resize_events = int(resize.get("events", 0))  # type: ignore[arg-type]
        sink.resize_relocated = int(resize.get("relocated", 0))  # type: ignore[arg-type]
        return sink

    def merge(self, other: "TelemetrySink") -> "TelemetrySink":
        """Fold ``other``'s raw samples into this sink (returns ``self``).

        Sample lists concatenate and counters add, so a merged summary is
        exactly the summary of the pooled sample multiset -- the p99 of a
        cluster is the p99 over *all* requests, not a mean of shard p99s.
        """
        self.wait_ms.extend(other.wait_ms)
        self.latency_ms.extend(other.latency_ms)
        self.queue_depths.extend(other.queue_depths)
        self.batch_occupancy.update(other.batch_occupancy)
        self.num_batches += other.num_batches
        self.slice_occupancy.extend(other.slice_occupancy)
        self.refill_admissions += other.refill_admissions
        for outcome, count in other.admission.items():
            self.admission[outcome] = self.admission.get(outcome, 0) + count
        for kind, count in other.faults.items():
            self.faults[kind] = self.faults.get(kind, 0) + count
        self.resize_events += other.resize_events
        self.resize_relocated += other.resize_relocated
        return self

    # ------------------------------------------------------------------
    @property
    def num_requests(self) -> int:
        return len(self.latency_ms)

    @property
    def num_slices(self) -> int:
        return len(self.slice_occupancy)

    def mean_occupancy(self) -> float:
        """Average number of requests per dispatched batch."""
        total = sum(size * count for size, count in self.batch_occupancy.items())
        return total / self.num_batches if self.num_batches else 0.0

    def mean_lane_occupancy(self) -> float:
        """Average fraction of lanes live over all recorded slices."""
        if not self.slice_occupancy:
            return 0.0
        return sum(self.slice_occupancy) / len(self.slice_occupancy)

    def summary(self) -> Dict[str, object]:
        """The versioned telemetry summary (pure function of the samples)."""
        return {
            "schema_version": SERVE_SCHEMA_VERSION,
            "requests": self.num_requests,
            "batches": self.num_batches,
            "mean_batch_occupancy": self.mean_occupancy(),
            "batch_occupancy": {
                str(size): count for size, count in sorted(self.batch_occupancy.items())
            },
            "lane_occupancy": {
                "slices": self.num_slices,
                "mean": self.mean_lane_occupancy(),
                "max": max(self.slice_occupancy, default=0.0),
            },
            "refill": {"admitted_inflight": self.refill_admissions},
            "admission": dict(self.admission),
            "faults": dict(self.faults),
            "resize": {
                "events": self.resize_events,
                "relocated": self.resize_relocated,
            },
            "queue_depth": {
                "mean": (
                    sum(self.queue_depths) / len(self.queue_depths)
                    if self.queue_depths
                    else 0.0
                ),
                "max": max(self.queue_depths, default=0),
            },
            "wait_ms": LatencySummary.from_values(self.wait_ms).to_dict(),
            "latency_ms": LatencySummary.from_values(self.latency_ms).to_dict(),
        }


# ----------------------------------------------------------------------
# BENCH_serve.json assembly
# ----------------------------------------------------------------------
def serve_bench_record(
    reports: Sequence["ServeReport"],
    *,
    baseline: str = "batch1",
    figure: str = "serve",
    suite: Optional[str] = None,
) -> "BenchRecord":
    """Fold serve reports into one gateable :class:`BenchRecord`.

    Every report contributes one (workload x policy) cell under a single
    suite (named after ``figure`` unless ``suite`` overrides it -- the
    default study writes suite ``"serve"``, the cluster scale-out study
    suite ``"serve_scale"``); ``time_ms`` is the drain makespan and
    ``speedup_vs_cpu`` the throughput ratio against the ``baseline``
    policy on the same workload (the baseline itself anchors at 1.0, and
    its makespan fills ``cpu_time_ms`` -- the anchor slot of the record
    schema).  Telemetry summaries ride in the environment block under
    ``"serve"``.  A :class:`repro.serve.cluster.ClusterReport` is a
    :class:`ServeReport`, so single-service and cluster drains fold into
    one record alike.
    """
    # Imported lazily: repro.bench's package __init__ reaches repro.api,
    # which re-exports this module -- a module-level import would race
    # whichever package the caller imported first.
    from repro.bench.records import (
        BenchRecord,
        CellRecord,
        SuiteRecord,
        environment_metadata,
    )

    if not reports:
        raise ValueError("serve_bench_record needs at least one report")
    by_key: Dict[tuple, "ServeReport"] = {}
    workloads: List[str] = []
    policies: List[str] = []
    for report in reports:
        key = (report.workload, report.policy)
        if key in by_key:
            raise ValueError(f"duplicate report for workload/policy {key!r}")
        by_key[key] = report
        if report.workload not in workloads:
            workloads.append(report.workload)
        if report.policy not in policies:
            policies.append(report.policy)
    anchors: Mapping[str, "ServeReport"] = {
        workload: by_key[(workload, baseline)]
        for workload in workloads
        if (workload, baseline) in by_key
    }
    if len(anchors) != len(workloads):
        missing = [w for w in workloads if w not in anchors]
        raise ValueError(
            f"baseline policy {baseline!r} has no report for workload(s) {missing}"
        )

    from repro.pipeline.experiment import geometric_mean

    suite_name = suite if suite is not None else figure
    suite_record = SuiteRecord(suite=suite_name)
    telemetry: Dict[str, Dict[str, object]] = {}
    for policy in policies:
        row: Dict[str, float] = {}
        for workload in workloads:
            report = by_key.get((workload, policy))
            if report is None:
                continue
            anchor = anchors[workload]
            speedup = (
                anchor.makespan_ms / report.makespan_ms if report.makespan_ms > 0 else 0.0
            )
            row[workload] = speedup
            suite_record.cells.append(
                CellRecord(
                    dataset=workload,
                    kernel=policy,
                    time_ms=report.makespan_ms,
                    speedup_vs_cpu=speedup,
                )
            )
            telemetry.setdefault(policy, {})[workload] = report.telemetry
        row["GeoMean"] = geometric_mean(list(row.values()))
        suite_record.speedups[policy] = row
    for workload in workloads:
        suite_record.cpu_time_ms[workload] = anchors[workload].makespan_ms
    sample = reports[0]
    return BenchRecord(
        figure=figure,
        datasets=list(workloads),
        suites={suite_name: suite_record},
        environment=environment_metadata(
            serve_schema_version=SERVE_SCHEMA_VERSION,
            baseline_policy=baseline,
            engine=sample.config.engine,
            timing=sample.config.timing,
            refill=sample.config.resolved_refill(),
            serve=telemetry,
        ),
    )
