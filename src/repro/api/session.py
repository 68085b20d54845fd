"""The :class:`Session` façade: one configured object, every workflow.

A session binds together everything the scattered entry points used to
take as per-call arguments -- the workload source (a registry dataset or
registered workload name, an explicit spec, raw tasks, or a reference
for read mapping), the alignment engine, the kernel suite, the hardware
pair and the cache policy -- and exposes the project's workflows as
methods:

=================  ====================================================
``align()``        score the workload with the configured engine
``map_reads()``    map reads end to end (``map_reads_iter`` streams)
``simulate()``     simulate one named kernel's launch
``compare()``      simulate a whole suite against the CPU anchor
``run_figure()``   reproduce a named figure through the sharded runner
=================  ====================================================

Every method returns a typed result object (:mod:`repro.api.results`) or
a :class:`repro.bench.records.BenchRecord`; every method delegates to the
same shared implementations the free functions of :mod:`repro.api` use,
so the two paths are bit-identical (the golden-equivalence suite pins
this).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    TYPE_CHECKING,
)

import numpy as np

from repro.align.scoring import ScoringScheme
from repro.align.traceback import TracebackResult, batch_traceback
from repro.align.types import AlignmentTask
from repro.api.compare import compare_suite
from repro.api.engines import EngineOptions, align_tasks, get_engine
from repro.api.results import (
    AlignmentOutcome,
    ComparisonOutcome,
    MappingOutcome,
    SimulationOutcome,
)
from repro.api.suites import build_suite, get_kernel, get_suite
from repro.baselines.aligner import CpuAligner
from repro.baselines.cpu_model import CpuSpec
from repro.gpusim.device import CostModel, DeviceSpec
from repro.kernels import GuidedKernel, KernelConfig
from repro.pipeline.experiment import DEFAULT_HARDWARE_SCALE, scaled_hardware

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.cache import SpecLike
    from repro.bench.records import BenchRecord
    from repro.pipeline.mapper import LongReadMapper, ReadMapping
    from repro.serve.cluster import ClusterConfig, ClusterService
    from repro.serve.config import ServeConfig
    from repro.serve.service import AlignmentService

__all__ = ["Session"]


class Session:
    """A configured alignment session (the public entry point).

    Parameters
    ----------
    dataset:
        A registry dataset name (``"ONT-HG002"``, ...), a registered
        workload name (``"adv-heavy-tail"``, ``"fasta-sample"``, ...;
        see :mod:`repro.workloads`), or an explicit spec; the workload
        is its task list, served through the persistent workload cache.
    tasks:
        Raw alignment tasks, for callers that build their own workload.
    reference, scoring:
        An encoded reference plus a scoring scheme, for read-mapping
        sessions (:meth:`map_reads`).  ``scoring`` may also accompany
        ``dataset`` / ``tasks`` sessions but is ignored there.
    engine:
        Alignment engine name from the engine registry (``"vector"`` by
        default, ``"scalar"`` for the oracle path).
    suite:
        Default kernel suite for :meth:`compare` (``"mm2"`` by default).
    options:
        Typed engine tuning (:class:`repro.api.EngineOptions`) for
        :meth:`align`, :meth:`map_reads` and :meth:`serve`:
        ``batch_size`` is the engine's bucket size (``None`` means
        :data:`~repro.align.vector.DEFAULT_BUCKET_SIZE`, see
        :meth:`EngineOptions.with_bucket`); ``slice_width`` tunes the
        compaction slice width.
    kernel_config:
        Base :class:`KernelConfig` for kernels built by this session.
    hardware_scale, device, cpu, cost:
        Hardware overrides; by default the scaled pair of DESIGN.md.
    cache_dir, use_cache:
        Workload-cache policy for dataset sessions
        (:func:`repro.bench.cache.workload_tasks`): ``use_cache=True``
        leaves persistence to ``$REPRO_NO_CACHE``, ``False`` turns it off.
    mapper_options:
        Extra keyword arguments for the underlying
        :class:`~repro.pipeline.mapper.LongReadMapper` (``k``, ``w``,
        ``min_anchors``, ``anchor_spacing``, ...).

    Exactly one of ``dataset``, ``tasks`` and ``reference`` must be
    given; engine and suite names are validated eagerly so a typo fails
    at construction, not mid-run.

    Examples
    --------
    A task session scores its workload with any registered engine; the
    built-in engines are bit-identical, so swapping names never changes
    a score:

    >>> from repro.api import Session
    >>> from repro.align.scoring import preset
    >>> from repro.align.sequence import encode
    >>> from repro.align.types import AlignmentTask
    >>> task = AlignmentTask(ref=encode("ACGTACGT"), query=encode("ACGTACGT"),
    ...                      scoring=preset("figure1"))
    >>> Session(tasks=[task]).align().scores            # "vector" default
    [16]
    >>> Session(tasks=[task], engine="scalar").align().scores
    [16]

    Unknown registry names fail at construction, not mid-run:

    >>> Session(tasks=[task], engine="warp-9")
    Traceback (most recent call last):
        ...
    KeyError: "unknown engine 'warp-9'; available: ['scalar', 'vector']"
    """

    def __init__(
        self,
        dataset: Optional[Union[str, "SpecLike"]] = None,
        tasks: Optional[Sequence[AlignmentTask]] = None,
        reference: Optional[np.ndarray] = None,
        scoring: Optional[ScoringScheme] = None,
        *,
        engine: str = "vector",
        suite: str = "mm2",
        options: Optional[EngineOptions] = None,
        kernel_config: Optional[KernelConfig] = None,
        hardware_scale: float = DEFAULT_HARDWARE_SCALE,
        device: Optional[DeviceSpec] = None,
        cpu: Optional[CpuSpec] = None,
        cost: Optional[CostModel] = None,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        mapper_options: Optional[Mapping[str, Any]] = None,
    ) -> None:
        sources = [s is not None for s in (dataset, tasks, reference)]
        if sum(sources) != 1:
            raise ValueError(
                "pass exactly one workload source: dataset=, tasks= or reference="
            )
        if reference is not None and scoring is None:
            raise ValueError("reference= sessions need a scoring= scheme")
        # Fail fast on unknown registry names.
        get_engine(engine)
        get_suite(suite)
        if isinstance(dataset, str):
            # Imported here: repro.workloads imports repro.api.suites, and
            # tasks=/reference= sessions never load the workload registry.
            from repro.workloads import resolve_spec

            dataset = resolve_spec(dataset)
        self._spec: Optional["SpecLike"] = dataset
        self._tasks = tuple(tasks) if tasks is not None else None
        self._reference = (
            np.asarray(reference, dtype=np.uint8) if reference is not None else None
        )
        self.scoring = scoring
        self.engine = engine
        self.suite = suite
        self.options = (options if options is not None else EngineOptions()).with_bucket()
        self.kernel_config = kernel_config
        self.hardware_scale = hardware_scale
        self._device = device
        self._cpu = cpu
        self.cost = cost
        self.cache_dir = cache_dir
        self.use_cache = use_cache
        self.mapper_options = dict(mapper_options or {})
        self._workload: Optional[Tuple[AlignmentTask, ...]] = None
        self._mapper: Optional["LongReadMapper"] = None

    # ------------------------------------------------------------------
    # resolved configuration
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> Optional["SpecLike"]:
        """The session's dataset/workload spec (``None`` otherwise)."""
        return self._spec

    def hardware(self) -> Tuple[DeviceSpec, CpuSpec]:
        """The session's (device, CPU) pair, overrides applied."""
        if self._device is not None and self._cpu is not None:
            return self._device, self._cpu
        scaled_device, scaled_cpu = scaled_hardware(self.hardware_scale)
        return self._device or scaled_device, self._cpu or scaled_cpu

    def kernels(self, suite: Optional[str] = None) -> Dict[str, GuidedKernel]:
        """Fresh kernels of one suite (the session default when omitted)."""
        return build_suite(suite or self.suite, self.kernel_config)

    # ------------------------------------------------------------------
    # workload
    # ------------------------------------------------------------------
    def workload(self) -> Tuple[AlignmentTask, ...]:
        """The session's alignment tasks (cached after the first call)."""
        if self._workload is None:
            if self._tasks is not None:
                self._workload = self._tasks
            elif self._spec is not None:
                from repro.bench.cache import workload_tasks

                self._workload = workload_tasks(
                    self._spec, self.cache_dir, self.use_cache
                )
            else:
                raise ValueError(
                    "reference= sessions have no fixed workload; "
                    "use map_reads()/read_workload(reads) or configure dataset=/tasks="
                )
        return self._workload

    # ------------------------------------------------------------------
    # alignment
    # ------------------------------------------------------------------
    def align(
        self,
        tasks: Optional[Sequence[AlignmentTask]] = None,
        *,
        cigars: bool = False,
    ) -> AlignmentOutcome:
        """Score the workload (or ``tasks``) with the configured engine.

        ``cigars=True`` additionally runs the scored tasks through the
        batched traceback sweep
        (:func:`~repro.align.traceback.batch_traceback`) and fills
        :attr:`AlignmentOutcome.cigars` with one
        :class:`~repro.align.traceback.TracebackResult` per task, each
        cross-checked field by field against the engine's result.  The
        scores themselves are untouched -- the engine does the scoring
        either way.
        """
        workload = tuple(tasks) if tasks is not None else self.workload()
        results = align_tasks(workload, engine=self.engine, options=self.options)
        tracebacks: Optional[Tuple[TracebackResult, ...]] = None
        if cigars:
            tracebacks = tuple(batch_traceback(workload, results))
        return AlignmentOutcome(
            engine=self.engine,
            batch_size=self.options.batch_size,
            results=tuple(results),
            cigars=tracebacks,
        )

    # ------------------------------------------------------------------
    # read mapping
    # ------------------------------------------------------------------
    def mapper(self) -> "LongReadMapper":
        """The session's read mapper (reference sessions only)."""
        if self._reference is None or self.scoring is None:
            raise ValueError("map_reads() needs a reference= session with scoring=")
        if self._mapper is None:
            from repro.pipeline.mapper import LongReadMapper

            self._mapper = LongReadMapper(
                self._reference,
                self.scoring,
                engine=self.engine,
                options=self.options,
                **self.mapper_options,
            )
        return self._mapper

    def map_reads(self, reads: Sequence[np.ndarray]) -> MappingOutcome:
        """Map a batch of reads end to end."""
        return MappingOutcome(mappings=tuple(self.map_reads_iter(reads)))

    def map_reads_iter(self, reads: Sequence[np.ndarray]) -> Iterator["ReadMapping"]:
        """Stream mappings one read at a time (same results as map_reads).

        Session validation stays eager: the mapper is resolved here, in
        the calling frame, so a non-reference session fails at the call
        site rather than on first iteration of the returned generator.
        """
        mapper = self.mapper()

        def _stream() -> Iterator["ReadMapping"]:
            for read_id, read in enumerate(reads):
                yield mapper.map_read(read, read_id=read_id)

        return _stream()

    def read_workload(self, reads: Sequence[np.ndarray]) -> List[AlignmentTask]:
        """The extension-task workload a batch of reads implies."""
        return self.mapper().workload(reads)

    # ------------------------------------------------------------------
    # simulation / comparison
    # ------------------------------------------------------------------
    def simulate(
        self,
        kernel: str = "AGAThA",
        tasks: Optional[Sequence[AlignmentTask]] = None,
        **options: Any,
    ) -> SimulationOutcome:
        """Simulate one registered kernel's launch over the workload.

        ``options`` are forwarded to the kernel factory (e.g. the AGAThA
        ablation flags or ``target=`` for the baselines).
        """
        instance = get_kernel(kernel)(self.kernel_config, **options)
        workload = tuple(tasks) if tasks is not None else self.workload()
        device, _ = self.hardware()
        stats = instance.simulate(workload, device, self.cost)
        return SimulationOutcome(kernel=instance.display_name, stats=stats)

    def compare(
        self,
        suite: Optional[str] = None,
        tasks: Optional[Sequence[AlignmentTask]] = None,
        *,
        cpu_aligner: Optional[CpuAligner] = None,
    ) -> ComparisonOutcome:
        """Simulate a whole suite over the workload against the CPU anchor."""
        workload = tuple(tasks) if tasks is not None else self.workload()
        device, cpu = self.hardware()
        return compare_suite(
            workload,
            self.kernels(suite),
            device=device,
            cpu=cpu,
            cost=self.cost,
            cpu_aligner=cpu_aligner,
        )

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def serve(
        self,
        config: Optional["ServeConfig"] = None,
        *,
        shards: Optional[int] = None,
        cluster: Optional["ClusterConfig"] = None,
        **overrides: Any,
    ) -> "Union[AlignmentService, ClusterService]":
        """An online micro-batching service bound to this session's engine.

        Without arguments the service inherits the session's engine and
        options; pass a full
        :class:`~repro.serve.config.ServeConfig` or keyword overrides
        (``max_batch_size=``, ``max_wait_ms=``, ``workers=``, ...) for
        the scheduling policy.  The returned
        :class:`~repro.serve.service.AlignmentService` is not started
        yet -- use it as a context manager (or call ``start()``)::

            with session.serve(max_wait_ms=2.0) as svc:
                future = svc.submit(task)

        ``shards=N`` scales the service out to N worker processes and
        returns a :class:`~repro.serve.cluster.ClusterService` instead
        (same submit/map/context-manager surface); pass ``cluster=``
        for full control over routing and admission::

            with session.serve(shards=4) as svc:
                scores = [r.score for r in svc.map(tasks)]

        Served results are bit-identical to :meth:`align` on the same
        tasks; batching and sharding change scheduling, never
        arithmetic.
        """
        from repro.serve.cluster import ClusterConfig, ClusterService
        from repro.serve.config import ServeConfig
        from repro.serve.service import AlignmentService

        if cluster is not None and config is not None:
            raise ValueError("pass either config= or cluster=, not both")
        if cluster is not None:
            if shards is not None and shards != cluster.shards:
                raise ValueError(
                    f"shards={shards} conflicts with cluster.shards={cluster.shards}"
                )
            if overrides:
                cluster = cluster.replace(serve=cluster.serve.replace(**overrides))
            return ClusterService(cluster)
        if config is None:
            config = ServeConfig(engine=self.engine, options=self.options)
        if overrides:
            config = config.replace(**overrides)
        if shards is not None and shards != 1:
            return ClusterService(ClusterConfig(serve=config, shards=shards))
        return AlignmentService(config)

    # ------------------------------------------------------------------
    # figures
    # ------------------------------------------------------------------
    def run_figure(
        self,
        figure: str,
        *,
        workers: int = 1,
        datasets: Optional[Sequence[Union[str, "SpecLike"]]] = None,
        suites: Optional[Sequence[str]] = None,
        progress: Optional[Callable[[int, int, Any], None]] = None,
    ) -> "BenchRecord":
        """Reproduce a named figure through the sharded bench runner.

        A dataset session restricts the figure to its own dataset unless
        ``datasets`` overrides.  Figure grids are keyed by *named*
        datasets, so a tasks=/reference= session must pass ``datasets=``
        explicitly -- silently benchmarking the figure plan's registry
        datasets instead of the session's own workload would be
        misleading.  Hardware, kernel config and cache policy come from
        the session.
        """
        from repro.bench.runner import run_figure

        if datasets is None:
            if self._spec is None:
                raise ValueError(
                    "run_figure() needs named datasets: this session holds raw "
                    "tasks/a reference, which figure grids cannot address -- "
                    "pass datasets=[...] explicitly or use a dataset= session"
                )
            datasets = [self._spec]
        device, cpu = self.hardware()
        return run_figure(
            figure,
            workers=workers,
            datasets=datasets,
            suites=tuple(suites) if suites is not None else None,
            config=self.kernel_config,
            device=device,
            cpu=cpu,
            cost=self.cost,
            cache_dir=self.cache_dir,
            use_cache=self.use_cache,
            progress=progress,
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        source = (
            f"dataset={self._spec.name!r}" if self._spec is not None
            else f"tasks={len(self._tasks)}" if self._tasks is not None
            else "reference"
        )
        return f"Session({source}, engine={self.engine!r}, suite={self.suite!r})"
