"""The workload registry: one string-keyed contract for every workload.

A *workload* is anything that can materialise a tuple of
:class:`~repro.align.types.AlignmentTask` objects deterministically from
its own frozen fields: a real FASTA file pair
(:class:`~repro.workloads.fasta.FastaWorkloadSpec`), an adversarial
synthetic generator
(:class:`~repro.workloads.synthetic.AdversarialWorkloadSpec`), or any
spec a downstream project registers.  The contract is structural, not
inherited -- two optional hooks layered on top of a frozen dataclass:

``build_tasks() -> Sequence[AlignmentTask]``
    The expensive materialisation.  :func:`repro.bench.cache.build_workload`
    calls it for every spec -- the seeded
    :class:`~repro.io.datasets.DatasetSpec` datasets implement it too --
    so every workload flows through the same persistent
    :class:`~repro.bench.cache.WorkloadCache` (fingerprinted file names,
    atomic writes, LRU eviction) and the same in-process memo
    (:func:`repro.bench.cache.workload_tasks`).

``cache_fingerprint_extra() -> mapping | None``
    Extra state folded into the cache fingerprint at *lookup* time.
    Field values are fingerprinted automatically (``dataclasses.asdict``);
    this hook is for state the fields only point at -- the FASTA spec
    returns its files' sha256 digests here, so editing a file on disk
    invalidates the cache entry even though the spec is unchanged.

Registering a spec under its name makes it resolvable everywhere a
dataset name is accepted: ``Session(dataset="adv-heavy-tail")``,
``python -m repro.bench --figure workloads``,
``python -m repro.serve --dataset adv-heavy-tail`` and
``dataset_tasks("adv-heavy-tail")`` all go through :func:`resolve_spec`,
the one function that turns a name into a spec.  The nine seeded
datasets keep their own list (:data:`~repro.io.datasets.DATASET_REGISTRY`,
in the paper's order), and a workload cannot take one of their names
(docs/WORKLOADS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Tuple, Union

from repro.align.scoring import ScoringScheme
from repro.align.types import AlignmentTask
from repro.api.registry import Registry, RegistryError
from repro.io.datasets import DATASET_REGISTRY, DatasetSpec

__all__ = [
    "WorkloadSpec",
    "WORKLOADS",
    "register_workload",
    "get_workload",
    "workload_names",
    "resolve_spec",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """Base of the registered workload specs (frozen, picklable).

    Subclasses add their generator parameters as dataclass fields (every
    field participates in the cache fingerprint, so it must be
    JSON-representable through ``dataclasses.asdict``) and implement
    :meth:`build_tasks`.  ``name`` doubles as the registry key and the
    dataset label in figure records; ``scoring`` is the scheme every
    emitted task carries.
    """

    name: str
    scoring: ScoringScheme

    def build_tasks(self) -> Tuple[AlignmentTask, ...]:
        """Materialise the workload (deterministic; may be expensive)."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement build_tasks()"
        )

    def cache_fingerprint_extra(self) -> object:
        """Extra fingerprint state beyond the dataclass fields (or None).

        Resolved every time the cache is consulted, so anything returned
        here -- file hashes, format versions -- invalidates stale entries
        the moment it changes.
        """
        return None

    def describe(self) -> str:
        """One-line summary used by reports and ``--figure workloads``."""
        params = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if f.name not in ("name", "scoring")
        )
        return f"{self.name} ({type(self).__name__}: {params or 'no parameters'})"


#: The workload registry.  Built-ins are registered by
#: :mod:`repro.workloads` at import time.
WORKLOADS: Registry[WorkloadSpec] = Registry("workload")


def register_workload(spec: WorkloadSpec, *, replace: bool = False) -> WorkloadSpec:
    """Register ``spec`` under ``spec.name``; returns the spec.

    The spec must provide the two structural hooks (``build_tasks`` and
    ``cache_fingerprint_extra``) -- subclassing :class:`WorkloadSpec` is
    the easy way, but any frozen dataclass with the hooks works.  The
    seeded datasets' names are reserved, even with ``replace=True``:
    :func:`resolve_spec` would keep returning the dataset, so such a
    registration could never be reached.
    """
    for hook in ("build_tasks", "cache_fingerprint_extra"):
        if not callable(getattr(spec, hook, None)):
            raise TypeError(
                f"workload spec {spec!r} has no callable {hook}(); "
                "subclass repro.workloads.WorkloadSpec or add the hook"
            )
    if spec.name in DATASET_REGISTRY:
        raise RegistryError(
            f"workload name {spec.name!r} is taken by a seeded dataset; "
            f"datasets: {list(DATASET_REGISTRY)}"
        )
    WORKLOADS.register(spec.name, spec, replace=replace)
    return spec


def get_workload(name: str) -> WorkloadSpec:
    """Resolve a registered workload by name (KeyError lists the names)."""
    return WORKLOADS.get(name)


def workload_names() -> Tuple[str, ...]:
    """Registered workload names in registration order."""
    return WORKLOADS.names()


def resolve_spec(name: str) -> Union[DatasetSpec, WorkloadSpec]:
    """Resolve a dataset *or* workload name to its spec.

    The one name lookup: ``Session(dataset=...)``, the bench runner,
    ``dataset_tasks`` and ``python -m repro.serve --dataset`` all call
    it.  The two name spaces cannot collide (:func:`register_workload`
    reserves the dataset names), and the error lists both, so a typo
    shows every valid choice.
    """
    if name in DATASET_REGISTRY:
        return DATASET_REGISTRY[name]
    if name in WORKLOADS:
        return WORKLOADS.get(name)
    raise KeyError(
        f"unknown dataset or workload {name!r}; "
        f"datasets: {list(DATASET_REGISTRY)}; workloads: {list(WORKLOADS)}"
    )
