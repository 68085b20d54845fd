"""Workloads of the end-to-end benchmark: seeded inputs, loops, oracles.

Every input is a pure function of the workload seed.  The read
simulators of :mod:`repro.io.datasets` draw from seeds derived from it,
and the seeding/chaining pre-compute of
:class:`repro.pipeline.mapper.LongReadMapper` turns the reads into
extension tasks the way the figure datasets are built.  The workloads
reach the system only through its public API, always with
``engine="vector"``.  Every timing is measured wall clock; every check
runs outside the timed region.

Five workloads (README.md says why each exists):

``align-bulk``   closed loop, one caller: ``Session.align()`` over ~2,900
                 seeded/chained extension tasks.
``align-cigar``  closed loop: ``Session.align(cigars=True)`` over 48 tasks.
``map-reads``    closed loop: ``Session.map_reads_iter`` over 128 reads on
                 three 60-kb references.
``serve-reads``  open-loop Poisson traffic of extension tasks into a
                 2-shard cluster, then a capacity phase of backlogs.
``serve-tiny``   the same loop with 32-96 bp pairs, where per-request
                 overhead dominates.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import multiprocessing.queues
import resource
import statistics
import time
import traceback
from collections import Counter, defaultdict
from concurrent.futures import Future, wait
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro.api.engines
import repro.api.session
import repro.align.vector
import repro.pipeline.mapper
from repro.align.scoring import preset
from repro.align.sequence import mutate, random_sequence
from repro.align.traceback import TracebackResult
from repro.align.types import AlignmentResult, AlignmentTask
from repro.align.vector import VectorStream
from repro.api import LoadGenerator, RequestRejected, Session, ShardFailedError, align_tasks
from repro.io.datasets import DATASET_REGISTRY, DatasetSpec, build_dataset
from repro.io.seed_chain import MinimizerIndex
from repro.pipeline.mapper import LongReadMapper
from repro.serve.telemetry import percentile

from e2e_trace import Tracer

#: Name -> unit of every end-to-end metric (printed by untraced runs).
E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mcells_per_s": "Mcell/s",
    "p50_ms": "ms",
}

#: Self-time shares of an offline pass, per traced layer boundary.
PASS_LAYERS = (
    "api.align_tasks",
    "align.vector.vector_align",
    "core.uneven_bucketing.length_bucket_order",
    "align.vector.VectorStream.init",
    "align.vector.VectorStream.drain",
    "align.traceback.batch_traceback",
    "pipeline.mapper.map_read",
    "pipeline.mapper.align_tasks",
    "io.seed_chain.anchors",
    "io.seed_chain.chain_anchors",
    "io.seed_chain.extension_tasks_for_read",
)
SETUP_PARTS = ("import", "inputs", "index", "warmup")

#: Workloads served by a live cluster.  Their wall clock moves with the
#: load of other tenants on a shared host far more than the closed loops'
#: (README.md, "Measured spreads"), so BENCHMARK.json lists only the
#: closed loops; the serve workloads run on demand.
SERVE_WORKLOADS = ("serve-reads", "serve-tiny")

_SEEDING_UNITS = {
    "io.seed_chain.anchors_per_read": "count",
    "pipeline.mapper.tasks_per_read": "count",
    "pipeline.mapper.mapped_frac": "ratio",
}


def _closed_loop_units() -> Dict[str, str]:
    units = {f"setup.{part}.pct": "%" for part in SETUP_PARTS}
    units.update({f"{layer}.pct": "%" for layer in PASS_LAYERS})
    units.update({
        "unattributed.pct": "%",
        "trace.overhead_pct": "%",
        "align.vector.calls": "count",
        "align.vector.tasks_per_call": "count",
        "align.vector.slices": "count",
        "align.vector.lane_occupancy": "ratio",
        "align.cells": "count",
        "align.terminated_frac": "ratio",
        "align.traceback.mcells_per_s": "Mcell/s",
    })
    units.update(_SEEDING_UNITS)
    return units


def _serve_units() -> Dict[str, str]:
    units = {f"setup.{part}.pct": "%" for part in SETUP_PARTS + ("cluster_start",)}
    units["trace.overhead_pct"] = "%"
    units.update(_SEEDING_UNITS)
    for phase in ("lo", "hi"):
        units.update({
            f"serve.submit_pct.{phase}": "%",
            f"serve.worker_wait_pct.{phase}": "%",
            f"serve.worker_latency_pct.{phase}": "%",
            f"serve.parent_overhead_pct.{phase}": "%",
            f"serve.tail_ratio.{phase}": "x",
            f"loadgen.late_p99_pct.{phase}": "%",
            f"loadgen.achieved_rps.{phase}": "1/s",
        })
    for phase in ("lo", "hi", "cap"):
        units.update({
            f"serve.lane_occupancy.{phase}": "ratio",
            f"serve.batch_occupancy.{phase}": "count",
            f"serve.refill_frac.{phase}": "ratio",
            f"serve.queue_depth_max.{phase}": "count",
        })
    units.update({
        "serve.hi_lo_p50_ratio": "x",
        "serve.capacity_rps": "1/s",
        "serve.admission.rejected": "count",
        "serve.admission.shed": "count",
        "serve.admission.retried": "count",
        "serve.faults.crashes": "count",
        "ipc.task_msgs_per_request": "count",
        "ipc.task_bytes_per_request": "B",
        "serve.worker.peak_rss_mb": "MB",
    })
    return units


#: Name -> unit of the per-layer metrics a traced closed-loop run prints
#: (the per-layer metrics of BENCHMARK.json).  Layer times are shares of
#: the end-to-end quantity they decompose, so a layer a workload never
#: reaches reads 0 %, not a constant time.
LAYER_UNITS: Dict[str, str] = _closed_loop_units()

#: The same for a traced serve run.
SERVE_LAYER_UNITS: Dict[str, str] = _serve_units()


def layer_units(workload: str) -> Dict[str, str]:
    """The per-layer metrics a traced run of ``workload`` prints."""
    return SERVE_LAYER_UNITS if workload in SERVE_WORKLOADS else LAYER_UNITS


SETUP_REPEATS = 3  # set-up is repeated and its median reported
CHECK_SAMPLE = 48  # tasks checked against the scalar oracle
SHARDS = 2  # one worker process per core of the 2-vCPU reference host
BULK_SCALE = 1.0  # registry read counts: ~2,900 tasks, ~31 M DP cells
POOL_SCALE = 1.0 / 3.0  # ~970 tasks: the align-cigar pool and serve-reads
CIGAR_TASKS = 48
MAP_DATASETS = ("HiFi-HG005", "CLR-HG002", "ONT-HG002")  # 48/40/40 reads
MAP_CHECK_READS = 3  # per reference
TINY_TASKS = 512
RATES_RPS = {"serve-reads": (100.0, 300.0), "serve-tiny": (400.0, 800.0)}
BACKLOG = {"serve-reads": 600, "serve-tiny": 2000}
LO_SHARE, HI_SHARE, CAP_SHARE = 0.35, 0.25, 0.4  # of --seconds, per serve phase
LO_WINDOWS = 4  # the lo phase's latency is reported from its best quarter
PHASE_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def derive_seed(seed: int, salt: int) -> int:
    """An independent 32-bit seed for one generator of one workload seed."""
    return int(np.random.SeedSequence([seed, salt]).generate_state(1)[0])


def reseeded(spec: DatasetSpec, seed: int, scale: float = 1.0) -> DatasetSpec:
    """A registry dataset with its RNG seed derived from ``seed``."""
    return dataclasses.replace(
        spec,
        seed=derive_seed(seed, spec.seed),
        num_reads=max(1, round(spec.num_reads * scale)),
    )


def fingerprint(arrays: Iterable[np.ndarray], floats: Sequence[float] = ()) -> str:
    """sha256 of generated sequences (and arrival times, for open loops)."""
    digest = hashlib.sha256()
    for array in arrays:
        data = np.ascontiguousarray(array).tobytes()
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    digest.update(np.asarray(floats, dtype=np.float64).tobytes())
    return digest.hexdigest()


def task_arrays(tasks: Sequence[AlignmentTask]) -> Iterator[np.ndarray]:
    for task in tasks:
        yield task.ref
        yield task.query


def mapped_tasks(seed: int, scale: float, timings: Counter) -> List[AlignmentTask]:
    """Extension tasks of all nine registry datasets, reseeded and rescaled,
    through the registry scoring presets."""
    tasks: List[AlignmentTask] = []
    for spec in DATASET_REGISTRY.values():
        spec = reseeded(spec, seed, scale)
        start = time.perf_counter()
        reference, reads = build_dataset(spec)
        indexed = time.perf_counter()
        mapper = LongReadMapper(reference, spec.scoring)
        seeded = time.perf_counter()
        tasks.extend(mapper.workload([read.sequence for read in reads]))
        timings["inputs"] += (indexed - start) + (time.perf_counter() - seeded)
        timings["index"] += seeded - indexed
    return tasks


def tiny_tasks(seed: int, count: int = TINY_TASKS) -> List[AlignmentTask]:
    """Related 32-96 bp pairs under map-ont scoring with a 16-wide band."""
    rng = np.random.default_rng(derive_seed(seed, TINY_TASKS))
    scoring = preset("map-ont", band_width=16)
    tasks = []
    for task_id in range(count):
        ref = random_sequence(int(rng.integers(32, 97)), rng)
        query = mutate(ref, rng, substitution_rate=0.05, insertion_rate=0.02,
                       deletion_rate=0.02)
        tasks.append(AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=task_id))
    return tasks


def stratified_sample(sizes: Sequence[int], count: int, rng: np.random.Generator) -> List[int]:
    """``count`` indices, one drawn from each size stratum, so every seed
    samples the same spread of task sizes."""
    order = np.argsort(np.asarray(sizes), kind="stable")
    edges = np.linspace(0, len(order), min(count, len(order)) + 1).astype(int)
    return sorted(int(order[rng.integers(lo, hi)]) for lo, hi in zip(edges, edges[1:]))


def size_interleaved(sizes: Sequence[int], rng: np.random.Generator,
                     strata: int = 48) -> List[int]:
    """A shuffle made of rounds that each hold one task of every size
    stratum, so any stretch of the stream -- the first phase's requests,
    the capacity backlog -- carries the same mix of sizes for every seed.
    Long tasks are rare, and how many of them land in a phase would
    otherwise swing its median latency."""
    order = np.argsort(np.asarray(sizes), kind="stable")
    groups = [rng.permutation(group) for group in np.array_split(order, strata)]
    out: List[int] = []
    for r in range(max(len(group) for group in groups)):
        out.extend(int(i) for i in rng.permutation([g[r] for g in groups if r < len(g)]))
    return out


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def count_mismatches(got: Sequence[Any], expected: Sequence[Any]) -> int:
    """Outputs that differ from the expected ones (a missing or extra one
    counts too)."""
    differ = sum(1 for g, e in zip(got, expected) if g != e)
    return differ + abs(len(got) - len(expected))


def cigar_consistent(task: AlignmentTask, tb: TracebackResult) -> bool:
    """Whether a CIGAR is a real path through ``task`` that scores exactly
    its alignment's score and ends at its best cell."""
    scoring = task.scoring
    sub = scoring.substitution_matrix()
    i = j = score = 0
    for op, length in tb.cigar.operations:
        if op in "=X":
            ref, query = task.ref[i:i + length], task.query[j:j + length]
            if len(ref) != length or len(query) != length:
                return False
            if bool(np.all(ref == query)) != (op == "="):
                return False
            score += int(sub[ref, query].sum())
            i, j = i + length, j + length
        elif op in "DI":
            score -= scoring.gap_open + scoring.gap_extend * length
            if op == "D":
                i += length
            else:
                j += length
        else:
            return False
    return (i, j) == (tb.ref_end, tb.query_end) and score == tb.result.score


# ----------------------------------------------------------------------
# the run record a workload fills in
# ----------------------------------------------------------------------
@dataclass
class Run:
    """What one benchmark process measured."""

    workload: str
    seed: int
    seconds: float
    smoke: bool = False
    tracer: Optional[Tracer] = None
    setup: Dict[str, float] = field(default_factory=dict)  # part -> s
    e2e: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)  # e2e metric -> n
    layer: Dict[str, float] = field(default_factory=dict)
    raw: Dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    fingerprint: str = ""
    _setup_counts: Counter = field(default_factory=Counter)
    _next_request: int = 0

    @property
    def check_sample(self) -> int:
        """How many tasks the scalar oracle re-aligns."""
        return 8 if self.smoke else CHECK_SAMPLE

    def check(self, got: Sequence[Any], expected: Sequence[Any]) -> None:
        """Count ``got`` as attempted and its mismatches as failed."""
        self.attempted += len(expected)
        self.failed += count_mismatches(got, expected)


def _count_results(tracer: Tracer, args: tuple, kwargs: dict, results: Any) -> None:
    tracer.counts["results"] += len(results)
    tracer.counts["cells"] += sum(r.cells_computed for r in results)
    tracer.counts["terminated"] += sum(r.terminated for r in results)


def _count_vector_call(tracer: Tracer, args: tuple, kwargs: dict, results: Any) -> None:
    tracer.counts["vector.calls"] += 1
    tracer.counts["vector.tasks"] += len(args[0])


def _count_slices(tracer: Tracer, args: tuple, kwargs: dict, results: Any) -> None:
    stats = args[0].stats
    tracer.counts["vector.slices"] += len(stats)
    tracer.counts["vector.occupancy"] += sum(s.occupancy for s in stats)


def _count_traceback(tracer: Tracer, args: tuple, kwargs: dict, results: Any) -> None:
    tracer.counts["traceback.cells"] += sum(tb.result.cells_computed for tb in results)


def _count_anchors(tracer: Tracer, args: tuple, kwargs: dict, anchors: Any) -> None:
    tracer.counts["seeded_reads"] += 1
    tracer.counts["anchors"] += len(anchors)


def _count_chains(tracer: Tracer, args: tuple, kwargs: dict, chains: Any) -> None:
    tracer.counts["chained_reads"] += bool(chains)


def _count_extension(tracer: Tracer, args: tuple, kwargs: dict, tasks: Any) -> None:
    tracer.counts["extension_tasks"] += len(tasks)


def _wrap_layers(tracer: Tracer) -> None:
    """Span every layer boundary, wrapped where the callers look it up."""
    wraps: List[Tuple[Any, str, str, Optional[Callable[..., None]]]] = [
        (repro.api.session, "align_tasks", "api.align_tasks", _count_results),
        (repro.api.engines, "align_tasks", "api.align_tasks", _count_results),
        (repro.api.engines, "vector_align", "align.vector.vector_align", _count_vector_call),
        (repro.align.vector, "length_bucket_order",
         "core.uneven_bucketing.length_bucket_order", None),
        (VectorStream, "__init__", "align.vector.VectorStream.init", None),
        (VectorStream, "drain", "align.vector.VectorStream.drain", _count_slices),
        (repro.api.session, "batch_traceback", "align.traceback.batch_traceback",
         _count_traceback),
        (LongReadMapper, "map_read", "pipeline.mapper.map_read", None),
        (LongReadMapper, "align_tasks", "pipeline.mapper.align_tasks", None),
        (MinimizerIndex, "anchors", "io.seed_chain.anchors", _count_anchors),
        (repro.pipeline.mapper, "chain_anchors", "io.seed_chain.chain_anchors",
         _count_chains),
        (repro.pipeline.mapper, "extension_tasks_for_read",
         "io.seed_chain.extension_tasks_for_read", _count_extension),
    ]
    for owner, attr, name, after in wraps:
        tracer.wrap(owner, attr, name, after)


@contextmanager
def _traced(run: Run, root: str, active: bool = True) -> Iterator[None]:
    """Trace the body under a ``root`` span (a no-op in untraced runs)."""
    if run.tracer is None or not active:
        yield
        return
    _wrap_layers(run.tracer)
    try:
        with run.tracer.span(root):
            yield
    finally:
        run.tracer.unwrap()


def _setup(run: Run, build: Callable[[Counter], Tuple[Any, str]]) -> Any:
    """Build the inputs ``SETUP_REPEATS`` times and record the median time
    of each set-up part.  Every build must fingerprint the same."""
    parts: Dict[str, List[float]] = defaultdict(list)
    prints = set()
    value = None
    for rep in range(1 if run.smoke else SETUP_REPEATS):
        timings: Counter = Counter()
        with _traced(run, "bench.setup", active=rep == 0):
            value, digest = build(timings)
        for part, seconds in timings.items():
            parts[part].append(seconds)
        prints.add(digest)
    if len(prints) != 1:
        raise RuntimeError(f"{run.workload}: the same seed built different inputs")
    run.fingerprint = prints.pop()
    for part, values in parts.items():
        run.setup[part] = statistics.median(values)
    if run.tracer is not None:
        run._setup_counts = Counter(run.tracer.counts)
    return value


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def _passes(run: Run, one_pass: Callable[[], Any], min_passes: int = 3
            ) -> Tuple[List[float], List[float], List[Any]]:
    """Closed loop: passes back to back for ``run.seconds`` (and at least
    ``min_passes``).  A traced run alternates untraced and traced passes.
    Returns (untraced seconds, traced seconds, every pass's output); a pass
    that raised leaves its exception as its output."""
    if run.tracer is not None:
        min_passes = max(min_passes, 2)
    untraced: List[float] = []
    traced: List[float] = []
    outputs: List[Any] = []
    start = time.perf_counter()
    while len(outputs) < min_passes or time.perf_counter() - start < run.seconds:
        tracing = run.tracer is not None and len(outputs) % 2 == 1
        with _traced(run, "bench.pass", active=tracing):
            began = time.perf_counter()
            try:
                out: Any = one_pass()
            except Exception as exc:  # the checks count the pass's results as failed
                traceback.print_exc()
                out = exc
            elapsed = time.perf_counter() - began
        (traced if tracing else untraced).append(elapsed)
        outputs.append(out)
    return untraced, traced, outputs


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _best_window(run: Run, untraced: List[float], traced: List[float], cells: int,
                 p50_ms: List[float]) -> None:
    """Report the best measurement window of a closed-loop run.

    A window is one untraced pass; ``p50_ms`` holds each window's median
    request latency.  Other tenants of a shared host only ever slow a
    window down, so the fastest window tracks the program's own speed far
    more steadily than the median window, which the run JSON keeps.
    """
    run.e2e["mcells_per_s"] = cells / 1e6 / min(untraced)
    run.e2e["p50_ms"] = min(p50_ms)
    run.samples["mcells_per_s"] = run.samples["p50_ms"] = len(untraced)
    run.raw.update({
        "pass_s": untraced,
        "traced_pass_s": traced,
        "cells_per_pass": cells,
        "median_window": {"mcells_per_s": cells / 1e6 / statistics.median(untraced),
                          "p50_ms": statistics.median(p50_ms)},
    })
    if traced:
        run.layer["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(untraced) - 1.0)


def _outputs_or_empty(outputs: List[Any]) -> List[Sequence[Any]]:
    return [() if isinstance(out, Exception) else out for out in outputs]


# ----------------------------------------------------------------------
# offline workloads
# ----------------------------------------------------------------------
def align_bulk(run: Run) -> None:
    """~2,900 extension tasks per pass; the engine sweep is almost all of it."""
    scale = 0.08 if run.smoke else BULK_SCALE

    def build(timings: Counter) -> Tuple[Any, str]:
        tasks = mapped_tasks(run.seed, scale, timings)
        rng = np.random.default_rng(derive_seed(run.seed, 1))
        sample = stratified_sample([t.num_antidiagonals for t in tasks], run.check_sample, rng)
        return (tasks, sample), fingerprint(task_arrays(tasks))

    tasks, sample = _setup(run, build)
    session = Session(tasks=tasks, engine="vector")
    _, run.setup["warmup"] = _timed(
        lambda: Session(tasks=[tasks[i] for i in sample], engine="vector").align()
    )
    untraced, traced, outputs = _passes(run, lambda: session.align().results)
    run.e2e["peak_rss_mb"] = _peak_rss_mb()

    passes = _outputs_or_empty(outputs)
    expected = list(passes[0]) if passes[0] else [None] * len(tasks)
    scalar = align_tasks([tasks[i] for i in sample], engine="scalar")
    for index, result in zip(sample, scalar):
        expected[index] = result
    for results in passes:
        run.check(results, expected)
    _best_window(run, untraced, traced, sum(r.cells_computed for r in passes[0]),
                 [1000.0 * t for t in untraced])


def align_cigar(run: Run) -> None:
    """48 tasks per pass with CIGARs: the traceback is ~98 % of a pass."""
    scale = 0.08 if run.smoke else POOL_SCALE
    count = 8 if run.smoke else CIGAR_TASKS

    def build(timings: Counter) -> Tuple[Any, str]:
        pool = mapped_tasks(run.seed, scale, timings)
        rng = np.random.default_rng(derive_seed(run.seed, 2))
        tasks = [pool[i] for i in
                 stratified_sample([t.num_antidiagonals for t in pool], count, rng)]
        return tasks, fingerprint(task_arrays(tasks))

    tasks = _setup(run, build)
    session = Session(tasks=tasks, engine="vector")
    smallest = sorted(tasks, key=lambda t: t.num_antidiagonals)[:4]
    _, run.setup["warmup"] = _timed(
        lambda: Session(tasks=smallest, engine="vector").align(cigars=True)
    )
    untraced, traced, outputs = _passes(run, lambda: session.align(cigars=True).cigars)
    run.e2e["peak_rss_mb"] = _peak_rss_mb()

    passes = _outputs_or_empty(outputs)
    scalar = align_tasks(tasks, engine="scalar")
    # Each result must score like the scalar oracle, trace a real path of
    # that score, and repeat the first pass's CIGAR.
    first = passes[0] if passes[0] else [None] * len(tasks)
    expected = [(s, True, tb.cigar if tb else None) for s, tb in zip(scalar, first)]
    for cigars in passes:
        run.check([(tb.result, cigar_consistent(t, tb), tb.cigar)
                   for t, tb in zip(tasks, cigars)], expected)
    _best_window(run, untraced, traced, sum(tb.result.cells_computed for tb in passes[0]),
                 [1000.0 * t for t in untraced])


def map_reads(run: Run) -> None:
    """128 reads on three references: ~120 small engine calls per pass."""
    reads_scale = 0.1 if run.smoke else 1.0

    def build(timings: Counter) -> Tuple[Any, str]:
        jobs = []
        arrays = []
        for name in MAP_DATASETS:
            spec = reseeded(DATASET_REGISTRY[name], run.seed, reads_scale)
            (reference, reads), seconds = _timed(lambda: build_dataset(spec))
            timings["inputs"] += seconds
            session = Session(reference=reference, scoring=spec.scoring, engine="vector")
            _, seconds = _timed(session.mapper)  # builds the minimizer index
            timings["index"] += seconds
            jobs.append((session, spec, reference, [r.sequence for r in reads]))
            arrays += [reference] + [r.sequence for r in reads]
        return jobs, fingerprint(arrays)

    jobs = _setup(run, build)
    _, run.setup["warmup"] = _timed(
        lambda: [session.map_reads(reads[:1]) for session, _, _, reads in jobs]
    )

    def one_pass() -> Tuple[List[Any], List[float]]:
        mappings, times = [], []
        for session, _, _, reads in jobs:
            stream = session.map_reads_iter(reads)
            for _ in reads:
                began = time.perf_counter()
                mappings.append(next(stream))
                times.append(time.perf_counter() - began)
        return mappings, times

    untraced, traced, outputs = _passes(run, one_pass)
    run.e2e["peak_rss_mb"] = _peak_rss_mb()

    timed = [((), []) if isinstance(out, Exception) else out for out in outputs]
    passes = [mappings for mappings, _ in timed]
    expected = list(passes[0]) if passes[0] else [None] * sum(len(j[3]) for j in jobs)
    offset = 0
    rng = np.random.default_rng(derive_seed(run.seed, 3))
    for session, spec, reference, reads in jobs:
        scalar = LongReadMapper(reference, spec.scoring, engine="scalar")
        for i in stratified_sample([len(r) for r in reads], MAP_CHECK_READS, rng):
            expected[offset + i] = scalar.map_read(reads[i], read_id=i)
        offset += len(reads)
    for mappings in passes:
        run.check(mappings, expected)

    cells = sum(r.cells_computed for m in passes[0] for r in m.extension_results)
    # Per-read latency of each untraced pass (they alternate in a trace run).
    step = 2 if run.tracer is not None else 1
    _best_window(run, untraced, traced, cells,
                 [1000.0 * statistics.median(times) for _, times in timed[::step] if times])
    run.raw["reads_per_s"] = len(expected) / min(untraced)


# ----------------------------------------------------------------------
# open-loop serving
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """One serve phase, run on a fresh 2-shard cluster."""

    name: str
    traced: bool
    start_s: float  # ClusterService.start()
    indices: List[int]  # task index of each request
    outcomes: List[Any]  # result or exception of each request
    latency_ms: List[float]  # due time -> completion, completed requests
    submit_us: List[float]
    late_ms: List[float]  # send time - due time
    sent_rps: float
    duration_s: float  # first due time -> last completion
    telemetry: Dict[str, Any]

    @property
    def completed_rps(self) -> float:
        return len(self.indices) / self.duration_s

    @property
    def mcells(self) -> float:
        return sum(o.cells_computed for o in self.outcomes
                   if isinstance(o, AlignmentResult)) / 1e6


def _count_put(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    message = args[1]
    if isinstance(message, tuple) and len(message) == 3:  # (request_id, task, priority)
        tracer.count("ipc.task_msgs")
        tracer.count("ipc.task_bytes", len(ForkingPickler.dumps(message)))


def _serve_phase(run: Run, session: Session, tasks: Sequence[AlignmentTask],
                 schedule: Sequence[Tuple[float, int]], name: str, traced: bool) -> Phase:
    """Send ``(due_ms, task_index)`` requests from this thread on schedule.

    Latency runs from each request's *due* time, so a stalled send also
    delays every request queued behind it.  All timestamps are read after
    ``shutdown()``, which joins the collector that runs the callbacks.
    """
    tracer = run.tracer if traced else None
    cluster = session.serve(shards=SHARDS)
    _, start_s = _timed(cluster.start)
    n = len(schedule)
    due_ns, sent_ns, done_ns = [0] * n, [0] * n, [0] * n
    submit_ns = [0] * n
    outcomes: List[Any] = [None] * n
    span_ids: List[int] = [0] * n
    requests = list(range(run._next_request, run._next_request + n))
    run._next_request += n

    def finish(k: int, future: "Future[AlignmentResult]") -> None:
        done_ns[k] = time.perf_counter_ns()
        error = future.exception()
        outcomes[k] = error if error is not None else future.result()

    futures = []
    if tracer is not None:  # after start(): the forked workers stay unwrapped
        tracer.wrap(multiprocessing.queues.Queue, "put", "ipc.put", _count_put)
    try:
        base = time.perf_counter_ns() + 2_000_000
        for k, (at_ms, index) in enumerate(schedule):
            due_ns[k] = base + int(at_ms * 1e6)
            delay = due_ns[k] - time.perf_counter_ns()
            if delay > 0:
                time.sleep(delay / 1e9)
            sent_ns[k] = time.perf_counter_ns()
            span = nullcontext()
            if tracer is not None:
                span_ids[k] = tracer.new_id()
                span = tracer.span("serve.cluster.submit", parent=span_ids[k],
                                   request=requests[k])
            try:
                with span:
                    future = cluster.submit(tasks[index])
            except (RequestRejected, ShardFailedError) as exc:  # a failed request
                outcomes[k], done_ns[k] = exc, time.perf_counter_ns()
                continue
            submit_ns[k] = time.perf_counter_ns() - sent_ns[k]
            future.add_done_callback(functools.partial(finish, k))
            futures.append(future)
        wait(futures, timeout=PHASE_TIMEOUT_S)
    finally:
        cluster.shutdown()
        if tracer is not None:
            tracer.unwrap()
    if tracer is not None:
        for k in range(n):
            tracer.add("serve.request", min(due_ns[k], sent_ns[k]), done_ns[k],
                       span_id=span_ids[k], request=requests[k])
    ok = [k for k in range(n) if isinstance(outcomes[k], AlignmentResult)]
    return Phase(
        name=name,
        traced=traced,
        start_s=start_s,
        indices=[index for _, index in schedule],
        outcomes=outcomes,
        latency_ms=[(done_ns[k] - due_ns[k]) / 1e6 for k in ok],
        submit_us=[submit_ns[k] / 1e3 for k in ok],
        late_ms=[(sent_ns[k] - due_ns[k]) / 1e6 for k in range(n)],
        sent_rps=(n - 1) / max(sent_ns[-1] - sent_ns[0], 1) * 1e9 if n > 1 else 0.0,
        duration_s=(max(done_ns) - base) / 1e9,
        telemetry=cluster.telemetry_summary(),
    )


def _serve(run: Run, make_tasks: Callable[[Counter], List[AlignmentTask]]) -> None:
    lo_rps, hi_rps = RATES_RPS[run.workload]
    backlog = BACKLOG[run.workload] // (10 if run.smoke else 1)
    lo_n = max(2, round(lo_rps * LO_SHARE * run.seconds))
    hi_n = max(2, round(hi_rps * HI_SHARE * run.seconds))

    def build(timings: Counter) -> Tuple[Any, str]:
        tasks = make_tasks(timings)
        started = time.perf_counter()
        load = LoadGenerator(tasks, seed=derive_seed(run.seed, 4))
        lo = load.poisson(lo_rps, lo_n, seed=derive_seed(run.seed, 5)).arrivals_ms
        hi = load.poisson(hi_rps, hi_n, seed=derive_seed(run.seed, 6)).arrivals_ms
        rng = np.random.default_rng(derive_seed(run.seed, 7))
        sample = stratified_sample([t.num_antidiagonals for t in tasks], run.check_sample, rng)
        timings["inputs"] += time.perf_counter() - started
        return (tasks, lo, hi, sample), fingerprint(task_arrays(tasks), lo + hi)

    tasks, lo, hi, sample = _setup(run, build)
    session = Session(tasks=tasks, engine="vector")
    cluster = session.serve(shards=SHARDS)
    _, warm_start = _timed(cluster.start)
    try:
        _, run.setup["warmup"] = _timed(lambda: cluster.map([tasks[i] for i in sample]))
    finally:
        cluster.shutdown()

    count = len(tasks)
    traced = run.tracer is not None
    phases = [
        _serve_phase(run, session, tasks, [(t, k % count) for k, t in enumerate(lo)],
                     "lo", traced),
        _serve_phase(run, session, tasks,
                     [(t, (lo_n + k) % count) for k, t in enumerate(hi)], "hi", traced),
    ]
    # Capacity: the same backlog, submitted at once, on fresh clusters until
    # the rest of --seconds is used (at least 3 untraced; a traced run
    # alternates untraced and traced backlogs).
    flood = [(0.0, k % count) for k in range(backlog)]
    started = time.perf_counter()
    least = (4 if traced else 3) - (2 if run.smoke else 0)
    while (len(phases) - 2 < least
           or time.perf_counter() - started < CAP_SHARE * run.seconds):
        tracing = traced and len(phases) % 2 == 1
        phases.append(_serve_phase(run, session, tasks, flood, "cap", tracing))
    run.e2e["peak_rss_mb"] = _peak_rss_mb()
    run.setup["cluster_start"] = statistics.median([warm_start] + [p.start_s for p in phases])

    expected = list(Session(tasks=tasks, engine="vector").align().results)
    for index, result in zip(sample, align_tasks([tasks[i] for i in sample], engine="scalar")):
        expected[index] = result
    for phase in phases:
        run.check(phase.outcomes, [expected[i] for i in phase.indices])

    # Best window, as for the closed loops: the lowest median latency of
    # the lo phase's quarters, and the fastest untraced backlog.
    lo_phase, hi_phase = phases[0], phases[1]
    caps = [p for p in phases[2:] if not p.traced]
    quarters = [q for q in np.array_split(np.asarray(lo_phase.latency_ms), LO_WINDOWS) if q.size]
    window_p50 = [percentile(q.tolist(), 50) for q in quarters]
    run.e2e["p50_ms"] = min(window_p50)
    run.samples["p50_ms"] = len(window_p50)
    run.e2e["mcells_per_s"] = max(p.mcells / p.duration_s for p in caps)
    run.samples["mcells_per_s"] = len(caps)
    capacity = max(p.completed_rps for p in caps)
    run.raw.update({
        "p50_ms.lo": percentile(lo_phase.latency_ms, 50),
        "p99_ms.lo": percentile(lo_phase.latency_ms, 99),
        "p50_ms.hi": percentile(hi_phase.latency_ms, 50),
        "p99_ms.hi": percentile(hi_phase.latency_ms, 99),
        "window_p50_ms.lo": window_p50,
        "capacity_rps": [p.completed_rps for p in caps],
        "mcells_per_s.backlogs": [p.mcells / p.duration_s for p in caps],
        "sent_rps": {"lo": lo_phase.sent_rps, "hi": hi_phase.sent_rps},
        "requests": {"lo": lo_n, "hi": hi_n, "backlog": backlog},
    })
    if traced:
        _serve_layers(run, phases, capacity)


def _serve_layers(run: Run, phases: List[Phase], capacity: float) -> None:
    layer = run.layer
    for phase in phases[:2]:
        p50 = percentile(phase.latency_ms, 50)
        worker = phase.telemetry
        suffix = phase.name
        layer[f"serve.submit_pct.{suffix}"] = percentile(phase.submit_us, 50) / 10.0 / p50
        layer[f"serve.worker_wait_pct.{suffix}"] = 100.0 * worker["wait_ms"]["p50_ms"] / p50
        worker_pct = 100.0 * worker["latency_ms"]["p50_ms"] / p50
        layer[f"serve.worker_latency_pct.{suffix}"] = worker_pct
        layer[f"serve.parent_overhead_pct.{suffix}"] = 100.0 - worker_pct
        layer[f"serve.tail_ratio.{suffix}"] = percentile(phase.latency_ms, 99) / p50
        layer[f"loadgen.late_p99_pct.{suffix}"] = 100.0 * percentile(phase.late_ms, 99) / p50
        layer[f"loadgen.achieved_rps.{suffix}"] = phase.sent_rps
    traced_caps = [p for p in phases[2:] if p.traced]
    for suffix, group in (("lo", phases[:1]), ("hi", phases[1:2]), ("cap", traced_caps)):
        tel = [p.telemetry for p in group]
        layer[f"serve.lane_occupancy.{suffix}"] = statistics.median(
            t["lane_occupancy"]["mean"] for t in tel)
        layer[f"serve.batch_occupancy.{suffix}"] = statistics.median(
            t["mean_batch_occupancy"] for t in tel)
        layer[f"serve.refill_frac.{suffix}"] = statistics.median(
            t["refill"]["admitted_inflight"] / max(t["requests"], 1) for t in tel)
        layer[f"serve.queue_depth_max.{suffix}"] = statistics.median(
            t["queue_depth"]["max"] for t in tel)
    layer["serve.hi_lo_p50_ratio"] = (percentile(phases[1].latency_ms, 50)
                                      / percentile(phases[0].latency_ms, 50))
    layer["serve.capacity_rps"] = capacity
    for outcome in ("rejected", "shed", "retried"):
        layer[f"serve.admission.{outcome}"] = sum(
            p.telemetry["admission"][outcome] for p in phases)
    layer["serve.faults.crashes"] = sum(p.telemetry["faults"]["crashes"] for p in phases)
    counts = run.tracer.counts
    traced_requests = sum(len(p.indices) for p in phases if p.traced)
    layer["ipc.task_msgs_per_request"] = counts["ipc.task_msgs"] / traced_requests
    layer["ipc.task_bytes_per_request"] = counts["ipc.task_bytes"] / traced_requests
    layer["serve.worker.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    untraced = statistics.median(p.completed_rps for p in phases[2:] if not p.traced)
    layer["trace.overhead_pct"] = 100.0 * (
        untraced / statistics.median(p.completed_rps for p in traced_caps) - 1.0)


def serve_reads(run: Run) -> None:
    """~970 size-interleaved extension tasks: serving where the engine dominates."""
    scale = 0.08 if run.smoke else POOL_SCALE

    def make(timings: Counter) -> List[AlignmentTask]:
        tasks = mapped_tasks(run.seed, scale, timings)
        rng = np.random.default_rng(derive_seed(run.seed, 8))
        return [tasks[i] for i in size_interleaved([t.num_antidiagonals for t in tasks], rng)]

    _serve(run, make)


def serve_tiny(run: Run) -> None:
    """512 tiny pairs: per-request overhead dominates."""

    def make(timings: Counter) -> List[AlignmentTask]:
        tasks, timings["inputs"] = _timed(lambda: tiny_tasks(run.seed))
        return tasks

    _serve(run, make)


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "align-bulk": align_bulk,
    "align-cigar": align_cigar,
    "map-reads": map_reads,
    "serve-reads": serve_reads,
    "serve-tiny": serve_tiny,
}


# ----------------------------------------------------------------------
# metric assembly
# ----------------------------------------------------------------------
def setup_s(run: Run) -> float:
    return sum(run.setup.values())


def layer_metrics(run: Run) -> Dict[str, float]:
    """Every per-layer metric of a traced run, in declaration order; 0
    where the workload never reaches the layer."""
    assert run.tracer is not None
    out = dict(run.layer)
    total = setup_s(run)
    for part, seconds in run.setup.items():
        out[f"setup.{part}.pct"] = 100.0 * seconds / total
    all_counts = run.tracer.counts
    seeded = all_counts["seeded_reads"]
    if seeded:
        out["io.seed_chain.anchors_per_read"] = all_counts["anchors"] / seeded
        out["pipeline.mapper.tasks_per_read"] = all_counts["extension_tasks"] / seeded
        out["pipeline.mapper.mapped_frac"] = all_counts["chained_reads"] / seeded
    pass_ns, self_ns = run.tracer.self_time_ns("bench.pass")
    if pass_ns:
        for layer in PASS_LAYERS:
            out[f"{layer}.pct"] = 100.0 * self_ns.get(layer, 0) / pass_ns
        out["unattributed.pct"] = 100.0 * self_ns.get("bench.pass", 0) / pass_ns
        passes = len(run.tracer.roots("bench.pass"))
        counts = all_counts - run._setup_counts
        calls = counts["vector.calls"]
        out["align.vector.calls"] = calls / passes
        out["align.vector.tasks_per_call"] = counts["vector.tasks"] / max(calls, 1)
        out["align.vector.slices"] = counts["vector.slices"] / passes
        out["align.vector.lane_occupancy"] = (
            counts["vector.occupancy"] / max(counts["vector.slices"], 1))
        out["align.cells"] = counts["cells"] / passes
        out["align.terminated_frac"] = counts["terminated"] / max(counts["results"], 1)
        traceback_ns = sum(s.duration_ns for s in run.tracer.spans
                           if s.name == "align.traceback.batch_traceback")
        if traceback_ns:
            out["align.traceback.mcells_per_s"] = (
                counts["traceback.cells"] / 1e6 / (traceback_ns / 1e9))
    declared = layer_units(run.workload)
    unknown = set(out) - set(declared)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: out.get(name, 0.0) for name in declared}
