"""``repro.serve`` -- the online micro-batching alignment service.

The vector engine (:mod:`repro.align.vector`) gets its throughput from
forming large, length-homogeneous batches, but figure reproductions only
exercise it *offline*: the whole workload is known up front.  This
package turns the engine into an online system, the way inference
servers micro-batch GPU work: individual align requests are queued,
coalesced into engine-sized batches by a micro-batching scheduler
(:class:`MicroBatcher`), executed through the registered
:mod:`repro.api` engines, and fanned back to per-request futures.

Three entry points, one policy:

:func:`replay`
    Deterministic virtual-clock simulation of the service over a
    :class:`RequestTrace` (arrival times + tasks).  With modeled service
    times two replays are bit-identical; with measured service times it
    is an offline load test of the real engine.
:class:`AlignmentService`
    The live threaded service: ``submit(task)`` returns a
    :class:`concurrent.futures.Future`, a scheduler thread cuts batches,
    and a thread-pool option shards batch execution over workers
    (mirroring :mod:`repro.bench.runner`'s sharding).
``python -m repro.serve``
    Load-generates against a registry dataset, drains the trace with and
    without micro-batching, prints latency/throughput telemetry and
    writes a versioned ``BENCH_serve.json`` record that
    ``python -m repro.bench compare`` can gate.

The single service scales out through :mod:`repro.serve.cluster`: a
:class:`ShardRouter` places requests deterministically across N worker
processes (:class:`ClusterService`), bounded admission backpressure
lives in :class:`AdmissionController`, and :func:`cluster_replay` is the
virtual-clock counterpart whose results stay bit-identical to
``Session.align`` for any trace and shard count.  The cluster is
elastic and chaos-testable: :meth:`ClusterService.scale_to` /
:class:`ScalePlan` resize the shard set live or on the virtual clock, a
:class:`FaultPlan` injects deterministic crashes, stalls and
dropped/duplicated dispatches into both layers, and
:func:`autotune_router` (``ClusterConfig(autotune=...)``) picks the
routing policy/stride that minimises shard load imbalance from observed
traffic.

Served scores are bit-identical to :meth:`repro.api.Session.align` on
the same tasks -- batching changes *when* work happens, never *what* is
computed (``tests/serve/test_service.py`` pins this).
"""

from repro.serve.config import ServeConfig
from repro.serve.queueing import (
    ADMISSION_POLICIES,
    AdmissionController,
    AdmissionDecision,
    MicroBatcher,
    RequestRejected,
    ServeRequest,
)
from repro.serve.telemetry import (
    ADMISSION_OUTCOMES,
    SERVE_SCHEMA_VERSION,
    LatencySummary,
    TelemetrySink,
    serve_bench_record,
)
from repro.serve.loadgen import LoadGenerator, RequestTrace
from repro.serve.scheduler import ServeReport, modeled_service_ms, replay
from repro.serve.service import AlignmentService
from repro.serve.autotune import (
    AutotuneConfig,
    RouterChoice,
    TrafficObserver,
    autotune_router,
    shard_load_imbalance,
)
from repro.serve.faults import (
    CrashFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
    ShardFaults,
)
from repro.serve.cluster import (
    ROUTE_POLICIES,
    ClusterConfig,
    ClusterReport,
    ClusterService,
    ScalePlan,
    ShardFailedError,
    ShardRouter,
    cluster_replay,
)

__all__ = [
    "ADMISSION_OUTCOMES",
    "ADMISSION_POLICIES",
    "ROUTE_POLICIES",
    "SERVE_SCHEMA_VERSION",
    "ServeConfig",
    "ServeRequest",
    "MicroBatcher",
    "AdmissionController",
    "AdmissionDecision",
    "RequestRejected",
    "LatencySummary",
    "TelemetrySink",
    "serve_bench_record",
    "LoadGenerator",
    "RequestTrace",
    "ServeReport",
    "modeled_service_ms",
    "replay",
    "AlignmentService",
    "ClusterConfig",
    "ClusterReport",
    "ClusterService",
    "ScalePlan",
    "ShardFailedError",
    "ShardRouter",
    "cluster_replay",
    "AutotuneConfig",
    "RouterChoice",
    "TrafficObserver",
    "autotune_router",
    "shard_load_imbalance",
    "CrashFault",
    "DelayFault",
    "DropFault",
    "DuplicateFault",
    "FaultPlan",
    "ShardFaults",
]
