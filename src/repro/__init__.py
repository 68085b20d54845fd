"""repro: a reproduction of AGAThA (PPoPP'24) in Python.

AGAThA is an exact GPU acceleration of the *guided* sequence alignment
used by long-read mappers (Minimap2, BWA-MEM): affine-gap extension
alignment with k-banding and Z-drop termination.  This package rebuilds
the full system -- the alignment algorithm, the GPU-side scheduling
schemes, the baselines they are compared against, and the evaluation
workloads -- on top of a deterministic GPU cost-model simulator so the
paper's experiments can be reproduced on a machine without a GPU.

The public surface lives in :mod:`repro.api` and is lazily re-exported
here (``repro.Session`` works without importing the heavy subpackages at
``import repro`` time).

Subpackages
-----------
``repro.api``
    The public surface: the :class:`~repro.api.Session` façade, typed
    result objects, and the engine / kernel / suite registries.
``repro.align``
    The guided alignment substrate (scoring, banding, Z-drop/X-drop,
    exact scalar oracle, vectorised wavefront engine, blocks).
``repro.gpusim``
    The GPU execution/cost model (devices, warps, memory, executor).
``repro.core``
    AGAThA's contribution: rolling window, sliced diagonal, subwarp
    rejoining, uneven bucketing, and the Table-1 performance model.
``repro.kernels``
    Simulated kernels: AGAThA plus the GASAL2 / SALoBa / Manymap / LOGAN
    baselines in Diff-Target and MM2-Target variants.
``repro.baselines``
    CPU reference aligners (Minimap2 / BWA-MEM) with multi-core SIMD
    throughput models.
``repro.io``
    FASTA I/O, synthetic GIAB-like datasets, minimizer seeding and
    chaining (the pre-compute that creates the alignment workload).
``repro.pipeline``
    The end-to-end long-read mapper and the experiment harness used by
    the benchmarks.
``repro.workloads``
    The workload registry: real FASTA-backed data, adversarial synthetic
    length distributions, and protein-style scoring workloads, all
    resolvable by name wherever a dataset name is accepted.
``repro.bench``
    Sharded benchmark runner, in-process workload memo, BENCH records.
``repro.analysis``
    Workload-distribution analysis and plain-text report rendering.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any, List

__version__ = "0.1.0"

#: Lazily re-exported public names: attribute -> defining module.
_EXPORTS = {
    # façade + typed results
    "Session": "repro.api",
    "AlignmentOutcome": "repro.api",
    "MappingOutcome": "repro.api",
    "SimulationOutcome": "repro.api",
    "ComparisonOutcome": "repro.api",
    "KernelSummary": "repro.api",
    "CpuSummary": "repro.api",
    # registries
    "Registry": "repro.api",
    "RegistryError": "repro.api",
    "register_engine": "repro.api",
    "register_kernel": "repro.api",
    "register_suite": "repro.api",
    "get_engine": "repro.api",
    "get_kernel": "repro.api",
    "get_suite": "repro.api",
    "engine_names": "repro.api",
    "supports_streaming": "repro.api",
    "open_batch": "repro.api",
    "EngineOptions": "repro.api",
    "InFlightBatch": "repro.api",
    "OneShotBatch": "repro.api",
    "SliceStats": "repro.api",
    "kernel_names": "repro.api",
    "suite_names": "repro.api",
    "build_suite": "repro.api",
    "SuiteEntry": "repro.api",
    "SuiteSpec": "repro.api",
    # workflow helpers
    "align_tasks": "repro.api",
    "compare_suite": "repro.api",
    # serving layer
    "ServeConfig": "repro.api",
    "AlignmentService": "repro.api",
    "ServeReport": "repro.api",
    "LoadGenerator": "repro.api",
    "RequestTrace": "repro.api",
    "replay": "repro.api",
    "serve_bench_record": "repro.api",
    # sharded serving cluster (elasticity, fault injection, autotuning)
    "ClusterConfig": "repro.api",
    "ClusterReport": "repro.api",
    "ClusterService": "repro.api",
    "ScalePlan": "repro.api",
    "ShardRouter": "repro.api",
    "ShardFailedError": "repro.api",
    "cluster_replay": "repro.api",
    "AdmissionController": "repro.api",
    "RequestRejected": "repro.api",
    "AutotuneConfig": "repro.api",
    "autotune_router": "repro.api",
    "FaultPlan": "repro.api",
    "CrashFault": "repro.api",
    "DelayFault": "repro.api",
    "DropFault": "repro.api",
    "DuplicateFault": "repro.api",
    "engine_bench_record": "repro.api",
    # workload registry (real FASTA data, adversarial synthetic,
    # protein-style scoring; see docs/WORKLOADS.md)
    "WorkloadSpec": "repro.workloads",
    "WORKLOADS": "repro.workloads",
    "register_workload": "repro.workloads",
    "get_workload": "repro.workloads",
    "workload_names": "repro.workloads",
    "resolve_spec": "repro.workloads",
    "FastaWorkloadSpec": "repro.workloads",
    "AdversarialWorkloadSpec": "repro.workloads",
    # records (the run_figure return type)
    "BenchRecord": "repro.bench.records",
}

__all__ = ["__version__", *sorted(_EXPORTS)]

if TYPE_CHECKING:  # pragma: no cover - static-analysis view of the lazy exports
    from repro.api import (  # noqa: F401
        AdmissionController,
        AlignmentOutcome,
        AlignmentService,
        AutotuneConfig,
        ClusterConfig,
        ClusterReport,
        ClusterService,
        ComparisonOutcome,
        CrashFault,
        DelayFault,
        DropFault,
        DuplicateFault,
        FaultPlan,
        ScalePlan,
        autotune_router,
        CpuSummary,
        EngineOptions,
        InFlightBatch,
        KernelSummary,
        LoadGenerator,
        MappingOutcome,
        OneShotBatch,
        Registry,
        RegistryError,
        RequestRejected,
        RequestTrace,
        ServeConfig,
        ServeReport,
        Session,
        ShardFailedError,
        ShardRouter,
        SimulationOutcome,
        SliceStats,
        SuiteEntry,
        SuiteSpec,
        align_tasks,
        build_suite,
        cluster_replay,
        compare_suite,
        replay,
        serve_bench_record,
        engine_bench_record,
        engine_names,
        get_engine,
        get_kernel,
        get_suite,
        kernel_names,
        open_batch,
        register_engine,
        register_kernel,
        register_suite,
        suite_names,
        supports_streaming,
    )
    from repro.bench.records import BenchRecord  # noqa: F401
    from repro.workloads import (  # noqa: F401
        WORKLOADS,
        AdversarialWorkloadSpec,
        FastaWorkloadSpec,
        WorkloadSpec,
        get_workload,
        register_workload,
        resolve_spec,
        workload_names,
    )


def __getattr__(name: str) -> Any:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache: later lookups skip __getattr__
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
