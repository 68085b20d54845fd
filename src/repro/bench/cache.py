"""The in-process workload memo: one task tuple per spec per process.

Building a benchmark workload is the expensive half of every figure
reproduction: the synthetic reads of a :class:`~repro.io.datasets.DatasetSpec`
must be pushed through minimizer seeding and chaining before the kernels
see a single :class:`~repro.align.types.AlignmentTask`, and the
alignment profiles cached on those tasks cost more again.

:func:`workload_tasks` is the one task store: every consumer that names
a workload (``Session``, the bench runner's cells, ``dataset_tasks`` and,
through ``Session``, the serving CLI) gets the same task tuple from it,
so each workload is built, and each of its profiles computed, once per
process.  The memo is keyed by :func:`spec_fingerprint`, a hash of the
complete spec (and of the files a FASTA-backed spec reads), so a changed
spec or an edited input file builds afresh.  Nothing is written to disk:
a new process always runs the current builder.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import TYPE_CHECKING, Dict, Tuple, Union

from repro.align.types import AlignmentTask
from repro.io.datasets import DatasetSpec

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.workloads.base import WorkloadSpec

#: Anything the memo can key and build: a seeded dataset spec, or any
#: frozen dataclass implementing the structural workload hooks
#: (``build_tasks``, and optionally ``cache_fingerprint_extra``; see
#: :mod:`repro.workloads.base`).
SpecLike = Union[DatasetSpec, "WorkloadSpec"]

__all__ = [
    "SpecLike",
    "spec_fingerprint",
    "workload_tasks",
]


def spec_fingerprint(spec: SpecLike) -> str:
    """Stable hex fingerprint of one dataset/workload specification.

    Every field of the spec (scoring scheme included) participates, along
    with the spec's type, so any change to the spec changes the key.
    Specs that implement ``cache_fingerprint_extra()`` (registered
    workloads; see :mod:`repro.workloads.base`) get its return value
    folded in too, resolved *now* -- a FASTA-backed spec hashes its files
    here, so an on-disk edit changes the key even though the spec is
    unchanged.
    """
    payload = {
        "spec_type": type(spec).__name__,
        "spec": dataclasses.asdict(spec),
    }
    extra_hook = getattr(spec, "cache_fingerprint_extra", None)
    if callable(extra_hook):
        extra = extra_hook()
        if extra is not None:
            payload["extra"] = extra
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


#: The memo behind :func:`workload_tasks`, keyed by spec fingerprint.  It
#: keeps every workload the process names alive for the life of the
#: process; pool workers each hold their own (cells are pure, so results
#: are identical either way).
_TASKS: Dict[str, Tuple[AlignmentTask, ...]] = {}


def workload_tasks(spec: SpecLike) -> Tuple[AlignmentTask, ...]:
    """The tasks of ``spec``, one shared tuple per process.

    The first call builds the workload through the spec's
    ``build_tasks()`` hook; repeated calls return the same task objects,
    so the alignment profiles cached on them are computed once per
    process no matter how many sessions, figure cells or kernels read the
    workload.
    """
    key = spec_fingerprint(spec)
    if key not in _TASKS:
        _TASKS[key] = tuple(spec.build_tasks())
    return _TASKS[key]
