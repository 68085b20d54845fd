"""Sharded experiment runner: fan (dataset x suite) cells over workers.

A figure reproduction is embarrassingly parallel across its cells: one
cell simulates one kernel suite over one dataset's workload, and no cell
depends on another.  The runner materialises that structure explicitly:

* a :class:`BenchCell` is a picklable work unit (dataset spec, suite
  name, kernel/launch configuration, hardware pair);
* :func:`run_cell` executes one cell -- taking the workload from
  :func:`~repro.bench.cache.workload_tasks`, the in-process memo that
  builds each workload once per process -- and returns plain summaries;
* :func:`run_cells` maps cells over a ``ProcessPoolExecutor`` (or runs
  them serially for ``workers <= 1``) and returns results **in input
  order**, so downstream aggregation is independent of completion order;
* :func:`run_figure` expands a named figure plan into cells, runs them,
  and assembles a :class:`~repro.bench.records.BenchRecord`.

Determinism: every cell is a deterministic pure function of its inputs
(the GPU timing is simulated, not measured), and aggregation follows
input order, so a parallel run is bit-identical to a serial one -- the
property ``tests/bench/test_runner.py`` pins.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from importlib import import_module
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.suites import ABLATION_LADDER, build_suite as _registry_build_suite, suite_names
from repro.baselines.cpu_model import CpuSpec
from repro.bench.cache import SpecLike, workload_tasks
from repro.bench.records import BenchRecord, CellRecord, SuiteRecord, environment_metadata
from repro.gpusim.device import CostModel, DeviceSpec
from repro.io.datasets import DATASET_REGISTRY
from repro.kernels import GuidedKernel, KernelConfig

__all__ = [
    "ABLATION_LADDER",
    "FIGURES",
    "FigurePlan",
    "BenchCell",
    "build_suite",
    "resolve_specs",
    "run_cell",
    "run_cells",
    "run_figure",
]


#: The one-per-technology subset used by quick runs (mirrors
#: ``benchmarks/bench_utils.REPRESENTATIVE_DATASETS``).
REPRESENTATIVE_DATASETS: Tuple[str, ...] = ("HiFi-HG005", "CLR-HG002", "ONT-HG002")


@dataclass(frozen=True)
class FigurePlan:
    """Datasets and suites of one named figure reproduction.

    ``datasets_provider`` names a module imported before the plan is
    expanded (registering its workloads and suites as a side effect);
    when ``datasets`` is empty, the provider's ``workload_names()``
    supplies the dataset list instead -- so a plan can track whatever is
    registered at run time rather than a tuple frozen at import time.
    """

    name: str
    suites: Tuple[str, ...]
    datasets: Tuple[str, ...]
    description: str = ""
    datasets_provider: str = ""


def _all_names() -> Tuple[str, ...]:
    return tuple(DATASET_REGISTRY)


#: Named figure plans understood by ``python -m repro.bench --figure``.
FIGURES: Dict[str, FigurePlan] = {
    "fig08": FigurePlan(
        name="fig08",
        suites=("mm2", "diff"),
        datasets=_all_names(),
        description="Main comparison: all kernels, both targets, nine datasets",
    ),
    "fig09": FigurePlan(
        name="fig09",
        suites=("ablation",),
        datasets=_all_names(),
        description="AGAThA ablation ladder over the nine datasets",
    ),
    "quick": FigurePlan(
        name="quick",
        suites=("mm2", "diff"),
        datasets=REPRESENTATIVE_DATASETS,
        description="Both targets over one dataset per technology",
    ),
    "workloads": FigurePlan(
        name="workloads",
        suites=("workloads",),
        datasets=(),
        description="Every registered workload (real FASTA data, "
        "adversarial length distributions, protein-style scoring) "
        "under the AGAThA kernel",
        datasets_provider="repro.workloads",
    ),
}


def build_suite(
    suite: str, config: Optional[KernelConfig] = None
) -> Mapping[str, GuidedKernel]:
    """Construct the kernels of one named suite (inside the worker).

    Thin wrapper over the shared registry
    (:func:`repro.api.suites.build_suite`); kept because workers and
    long-standing callers import it from here, and because the runner's
    historical contract is :class:`ValueError` for unknown suites.
    """
    try:
        return _registry_build_suite(suite, config)
    except KeyError as exc:
        raise ValueError(exc.args[0] if exc.args else str(exc)) from None


def resolve_specs(datasets: Sequence[str | SpecLike]) -> List[SpecLike]:
    """Accept dataset/workload names or explicit specs; return concrete specs.

    Names resolve through :func:`repro.workloads.resolve_spec`, the one
    name lookup, so every registered workload is runnable wherever a
    dataset name is.
    """
    # Imported lazily: the workloads package imports the suite registry,
    # which this module also feeds.
    from repro.workloads import resolve_spec

    return [resolve_spec(entry) if isinstance(entry, str) else entry for entry in datasets]


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchCell:
    """One unit of sharded work: (dataset spec, kernel suite).

    Everything in a cell is picklable, so cells travel to pool workers
    as-is; kernels are rebuilt inside the worker from ``suite``/``config``.
    The workload comes from :func:`~repro.bench.cache.workload_tasks`, so
    in-process cells share one task tuple with every session of the same
    spec.
    """

    spec: SpecLike
    suite: str
    config: Optional[KernelConfig] = None
    device: Optional[DeviceSpec] = None
    cpu: Optional[CpuSpec] = None
    cost: Optional[CostModel] = None
    #: Module that registered ``suite`` (from the suite registry).  A
    #: spawn-started worker that does not know the suite imports this
    #: module once and retries, so plugin-registered suites shard too.
    suite_origin: Optional[str] = None


def _suite_origin(suite: str) -> Optional[str]:
    """The registering module of a suite, for shipping inside cells."""
    from repro.api import suites as api_suites

    if suite in api_suites.SUITES:
        return api_suites.get_suite(suite).origin or None
    return None


def run_cell(cell: BenchCell) -> Dict[str, dict]:
    """Execute one cell: simulate its suite over its dataset's workload.

    Returns the historical comparison mapping (``kernel -> summary`` with
    the CPU anchor under ``"CPU"``) as plain dicts, safe to pickle back
    from a worker process; cells are built from the shared suite registry
    via :func:`repro.api.compare.compare_suite`.
    """
    from repro.api.compare import compare_suite

    tasks = workload_tasks(cell.spec)
    kernels = _build_cell_suite(cell)
    return compare_suite(
        tasks, kernels, device=cell.device, cpu=cell.cpu, cost=cell.cost
    ).to_dict()


def _build_cell_suite(cell: BenchCell) -> Mapping[str, GuidedKernel]:
    """Build a cell's kernels, importing its plugin module if needed.

    Spawn-started workers re-import only the modules the runner imports,
    so a suite registered by a plugin module is unknown until that module
    (recorded in ``cell.suite_origin``) is imported here.
    """
    try:
        return build_suite(cell.suite, cell.config)
    except ValueError:
        if cell.suite_origin and cell.suite_origin != "__main__":
            import_module(cell.suite_origin)
            return build_suite(cell.suite, cell.config)
        raise


def _ensure_suites_shardable(cells: Sequence[BenchCell]) -> None:
    """Fail fast when a cell's suite cannot be rebuilt inside a worker.

    Pool workers rebuild kernels from the suite *name*.  Suites
    registered by an importable plugin module are re-registered inside
    the worker (:func:`_build_cell_suite` imports ``suite_origin``), and
    under the ``fork`` start method ``__main__`` registrations are
    inherited; but under ``spawn``/``forkserver`` a ``__main__``
    registration is unreachable and would surface as a mid-run KeyError
    from every worker.
    """
    if multiprocessing.get_start_method() == "fork":
        return
    from repro.api import suites as api_suites

    for suite in sorted({cell.suite for cell in cells}):
        if suite not in api_suites.SUITES:
            continue  # unknown names fail with their own error inside build_suite
        if api_suites.get_suite(suite).origin == "__main__":
            raise ValueError(
                f"suite {suite!r} was registered in __main__ and cannot be "
                "rebuilt inside spawn-started worker processes; register it "
                "in an importable module or run with workers=1"
            )


def run_cells(
    cells: Sequence[BenchCell],
    workers: int = 1,
    progress: Optional[Callable[[int, int, BenchCell], None]] = None,
) -> List[Dict[str, dict]]:
    """Run every cell, sharded over ``workers`` processes.

    Results are returned in **input order** regardless of completion
    order.  ``workers <= 1`` runs serially in-process (no pool, easier
    debugging, shares the in-process task memo).  A worker exception
    propagates to the caller unchanged.
    """
    total = len(cells)
    results: List[Dict[str, dict]] = []
    if workers <= 1 or total <= 1:
        for index, cell in enumerate(cells):
            results.append(run_cell(cell))
            if progress is not None:
                progress(index + 1, total, cell)
        return results
    _ensure_suites_shardable(cells)
    with ProcessPoolExecutor(max_workers=min(workers, total)) as pool:
        futures = [pool.submit(run_cell, cell) for cell in cells]
        done = 0
        for index, future in enumerate(futures):
            results.append(future.result())
            done += 1
            if progress is not None:
                progress(done, total, cells[index])
    return results


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _merge_speedups(
    specs: Sequence[SpecLike], results: Sequence[Dict[str, dict]]
) -> Dict[str, Dict[str, float]]:
    """Fold per-cell summaries into a ``speedup_table``-shaped mapping.

    Iterates datasets in input order, so row construction (and therefore
    the float summation order inside the geometric mean) does not depend
    on how the cells were sharded.
    """
    from repro.pipeline.experiment import geometric_mean

    table: Dict[str, Dict[str, float]] = {}
    for spec, summaries in zip(specs, results):
        for kernel_name, summary in summaries.items():
            if kernel_name == "CPU":
                continue
            table.setdefault(kernel_name, {})[spec.name] = summary["speedup_vs_cpu"]
    for row in table.values():
        row["GeoMean"] = geometric_mean(list(row.values()))
    return table


def _suite_record(
    suite: str, specs: Sequence[SpecLike], results: Sequence[Dict[str, dict]]
) -> SuiteRecord:
    record = SuiteRecord(suite=suite)
    for spec, summaries in zip(specs, results):
        for kernel_name, summary in summaries.items():
            if kernel_name == "CPU":
                record.cpu_time_ms[spec.name] = summary["time_ms"]
                continue
            record.cells.append(
                CellRecord(
                    dataset=spec.name,
                    kernel=kernel_name,
                    time_ms=summary["time_ms"],
                    speedup_vs_cpu=summary["speedup_vs_cpu"],
                    cells=int(summary.get("cells", 0)),
                    runahead_cells=int(summary.get("runahead_cells", 0)),
                    global_words=float(summary.get("global_words", 0.0)),
                    imbalance=float(summary.get("imbalance", 0.0)),
                )
            )
    record.speedups = _merge_speedups(specs, results)
    return record


def run_figure(
    figure: str,
    *,
    workers: int = 1,
    datasets: Optional[Sequence[str | SpecLike]] = None,
    suites: Optional[Sequence[str]] = None,
    config: Optional[KernelConfig] = None,
    device: Optional[DeviceSpec] = None,
    cpu: Optional[CpuSpec] = None,
    cost: Optional[CostModel] = None,
    progress: Optional[Callable[[int, int, BenchCell], None]] = None,
) -> BenchRecord:
    """Reproduce one named figure, sharded, and return its record.

    ``datasets`` / ``suites`` override the figure plan (useful for quick
    subsets); cells from *all* suites are pooled into one shard queue so
    workers stay busy across suite boundaries.
    """
    if figure not in FIGURES:
        raise KeyError(f"unknown figure {figure!r}; available: {sorted(FIGURES)}")
    plan = FIGURES[figure]
    plan_datasets: Sequence[str | SpecLike] = plan.datasets
    if plan.datasets_provider:
        # Importing the provider registers its workloads and suites; an
        # empty plan tuple means "everything the provider registers".
        provider = import_module(plan.datasets_provider)
        if not plan_datasets:
            plan_datasets = provider.workload_names()
    specs = resolve_specs(datasets if datasets is not None else plan_datasets)
    plan_suites = tuple(suites if suites is not None else plan.suites)
    for suite in plan_suites:
        if suite not in suite_names():
            raise ValueError(
                f"unknown suite {suite!r}; available: {list(suite_names())}"
            )
    origins = {suite: _suite_origin(suite) for suite in plan_suites}
    cells = [
        BenchCell(
            spec=spec, suite=suite, config=config, device=device, cpu=cpu,
            cost=cost, suite_origin=origins[suite],
        )
        for suite in plan_suites
        for spec in specs
    ]
    start = time.perf_counter()
    results = run_cells(cells, workers=workers, progress=progress)
    wall = time.perf_counter() - start
    # Resolve the hardware pair for the metadata block only; the cells keep
    # the caller's values (None means "scaled defaults") so results stay
    # bit-identical to the serial harness.
    from repro.pipeline.experiment import scaled_hardware

    meta_device, meta_cpu = device, cpu
    if meta_device is None or meta_cpu is None:
        scaled_device, scaled_cpu = scaled_hardware()
        meta_device = meta_device or scaled_device
        meta_cpu = meta_cpu or scaled_cpu
    record = BenchRecord(
        figure=figure,
        datasets=[spec.name for spec in specs],
        environment=environment_metadata(
            workers=workers,
            suites=list(plan_suites),
            device=meta_device.name,
            cpu=meta_cpu.name,
        ),
        wall_time_s=wall,
    )
    per_suite = len(specs)
    for index, suite in enumerate(plan_suites):
        chunk = results[index * per_suite : (index + 1) * per_suite]
        record.suites[suite] = _suite_record(suite, specs, chunk)
    return record
