"""Persistent on-disk cache of seeded/chained alignment workloads.

Building a benchmark workload is the expensive half of every figure
reproduction: the synthetic reads of a :class:`~repro.io.datasets.DatasetSpec`
must be pushed through minimizer seeding and chaining before the kernels
see a single :class:`~repro.align.types.AlignmentTask`.  Without a
persistent store every worker of a sharded run -- and every fresh CI
job -- would pay that pre-compute again.

:class:`WorkloadCache` stores the finished task list on disk, keyed by a
fingerprint of the *complete* dataset specification (every field of the
spec including its scoring scheme, plus the cache schema version and a
workload-builder version).  Any change to the spec, the builder or the
on-disk format therefore lands in a different file, and stale entries
are simply never read again.  Corrupt or truncated files are detected on
load, removed, and rebuilt transparently.

The cache directory resolves, in order, to ``$REPRO_CACHE_DIR``,
``$XDG_CACHE_HOME/repro`` and ``~/.cache/repro``; ``$REPRO_NO_CACHE=1``
disables persistence entirely (workloads are rebuilt in memory).
Writes are atomic (temp file + ``os.replace``), so concurrent workers
racing to fill the same entry are benign: one of them wins and the rest
overwrite the file with identical bytes.

The cache is size-capped: when ``$REPRO_CACHE_MAX_BYTES`` (or an
explicit ``max_bytes=``) is set, every store evicts least-recently-used
entries -- oldest mtime first; loads touch their entry's mtime so a hit
counts as use -- until the total drops under the cap.  Unset means
unbounded, the historical behaviour.  ``python -m repro.bench
--cache-info`` / ``--cache-clear`` inspect and reset the store.

:func:`workload_tasks` is the one in-process entry point on top of the
store: every consumer that names a workload (``Session``, the bench
runner's cells, ``dataset_tasks`` and, through ``Session``, the serving
CLI) gets the same task tuple from it, so the alignment profiles cached
on those tasks are computed once per process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.align.types import AlignmentTask
from repro.io.datasets import DatasetSpec

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.workloads.base import WorkloadSpec

#: Anything the cache can key and build: a seeded dataset spec, or any
#: frozen dataclass implementing the structural workload hooks
#: (``build_tasks``, and optionally ``cache_fingerprint_extra``; see
#: :mod:`repro.workloads.base`).
SpecLike = Union[DatasetSpec, "WorkloadSpec"]

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "WORKLOAD_VERSION",
    "default_cache_dir",
    "cache_enabled",
    "cache_max_bytes",
    "SpecLike",
    "spec_fingerprint",
    "build_workload",
    "WorkloadCache",
    "workload_tasks",
]

#: On-disk payload format version; bump when the pickle layout changes.
CACHE_SCHEMA_VERSION = 1

#: Version of the workload pre-compute (seeding/chaining/mapper defaults).
#: Bump whenever :meth:`DatasetSpec.build_tasks` or the mapper changes the
#: tasks it emits for an unchanged :class:`DatasetSpec`.
WORKLOAD_VERSION = 1


def default_cache_dir() -> Path:
    """Resolve the cache root from the environment.

    ``$REPRO_CACHE_DIR`` wins, then ``$XDG_CACHE_HOME/repro``, then
    ``~/.cache/repro``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg).expanduser() / "repro"
    return Path.home() / ".cache" / "repro"


def cache_enabled() -> bool:
    """Whether persistence is enabled (``$REPRO_NO_CACHE`` disables it)."""
    return os.environ.get("REPRO_NO_CACHE", "") not in {"1", "true", "yes"}


def cache_max_bytes() -> Optional[int]:
    """The size cap from ``$REPRO_CACHE_MAX_BYTES`` (``None`` = unbounded).

    Non-numeric or negative values disable the cap rather than erroring:
    a misconfigured environment must never make benchmark runs fail.
    """
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES", "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value >= 0 else None


def spec_fingerprint(spec: SpecLike) -> str:
    """Stable hex fingerprint of one dataset/workload specification.

    Every field of the spec (scoring scheme included) participates, along
    with the spec's type, the cache schema and workload-builder versions,
    so any change invalidates the entry by changing its file name.  Specs
    that implement ``cache_fingerprint_extra()`` (registered workloads;
    see :mod:`repro.workloads.base`) get its return value folded in too,
    resolved *now* -- a FASTA-backed spec hashes its files here, so an
    on-disk edit invalidates the entry even though the spec is unchanged.
    """
    payload = {
        "cache_schema": CACHE_SCHEMA_VERSION,
        "workload_version": WORKLOAD_VERSION,
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


def build_workload(spec: SpecLike) -> Tuple[AlignmentTask, ...]:
    """Materialise one spec's workload (the expensive path the cache skips).

    Every spec builds itself through its ``build_tasks()`` hook: seeded
    :class:`DatasetSpec` datasets seed and chain their simulated reads,
    registered workloads run their own generator.
    """
    return tuple(spec.build_tasks())


class WorkloadCache:
    """Persistent store of pre-computed alignment workloads.

    Parameters
    ----------
    root:
        Cache directory; defaults to :func:`default_cache_dir` (resolved
        lazily, so the environment is honoured at use time).
    enabled:
        When false (or ``$REPRO_NO_CACHE`` is set and ``enabled`` is left
        ``None``), nothing is read from or written to disk.
    max_bytes:
        Size cap for the workload store; stores evict least-recently-used
        entries (by mtime) past it.  ``None`` defers to
        ``$REPRO_CACHE_MAX_BYTES`` (resolved at use time), and an unset
        environment means unbounded.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        enabled: Optional[bool] = None,
        max_bytes: Optional[int] = None,
    ):
        self._root = Path(root) if root is not None else None
        self._enabled = enabled
        self._max_bytes = max_bytes
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        return self._root if self._root is not None else default_cache_dir()

    @property
    def enabled(self) -> bool:
        return cache_enabled() if self._enabled is None else self._enabled

    @property
    def max_bytes(self) -> Optional[int]:
        return self._max_bytes if self._max_bytes is not None else cache_max_bytes()

    def path_for(self, spec: SpecLike) -> Path:
        """File that holds (or would hold) this spec's workload."""
        return self.root / "workloads" / f"{spec.name}-{spec_fingerprint(spec)}.pkl"

    # ------------------------------------------------------------------
    # load / store
    # ------------------------------------------------------------------
    def load(self, spec: SpecLike) -> Optional[Tuple[AlignmentTask, ...]]:
        """Load one workload, or ``None`` on miss.

        A file that cannot be unpickled, has the wrong schema version or a
        mismatched fingerprint is treated as corrupt: it is deleted and the
        call reports a miss so the caller rebuilds it.
        """
        if not self.enabled:
            return None
        path = self.path_for(spec)
        if not path.exists():
            return None
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if not isinstance(payload, dict):
                raise ValueError("cache payload is not a dict")
            if payload.get("schema") != CACHE_SCHEMA_VERSION:
                raise ValueError("cache schema version mismatch")
            if payload.get("fingerprint") != spec_fingerprint(spec):
                raise ValueError("cache fingerprint mismatch")
            tasks = tuple(
                AlignmentTask(
                    ref=np.asarray(entry["ref"], dtype=np.uint8),
                    query=np.asarray(entry["query"], dtype=np.uint8),
                    scoring=entry["scoring"],
                    task_id=int(entry["task_id"]),
                )
                for entry in payload["tasks"]
            )
        except Exception:
            # Corrupt / stale / truncated entry: drop it and rebuild.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        # A hit counts as use: refresh the mtime so LRU eviction keeps
        # hot entries and drops the ones no figure has read in a while.
        try:
            os.utime(path)
        except OSError:
            pass
        return tasks

    def store(self, spec: SpecLike, tasks: Sequence[AlignmentTask]) -> Optional[Path]:
        """Persist one workload atomically; returns the file path.

        Only the task inputs (sequences, scoring, id) are stored -- cached
        alignment profiles are deliberately excluded so entries stay small
        and independent of the alignment engine's internals.
        """
        if not self.enabled:
            return None
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "fingerprint": spec_fingerprint(spec),
            "spec_name": spec.name,
            "tasks": [
                {
                    "ref": task.ref,
                    "query": task.query,
                    "scoring": task.scoring,
                    "task_id": task.task_id,
                }
                for task in tasks
            ],
        }
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.evict(keep=path)
        return path

    # ------------------------------------------------------------------
    def tasks(
        self,
        spec: SpecLike,
        builder: Optional[Callable[[SpecLike], Sequence[AlignmentTask]]] = None,
    ) -> Tuple[AlignmentTask, ...]:
        """The workload of ``spec``: loaded from disk, or built and stored.

        ``builder`` defaults to :func:`build_workload`, resolved at call
        time so tests can observe or replace the build path.
        """
        cached = self.load(spec)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        if builder is None:
            builder = build_workload
        tasks = tuple(builder(spec))
        self.store(spec, tasks)
        return tasks

    def evict(self, keep: Optional[Path] = None) -> List[Path]:
        """Enforce :attr:`max_bytes` now; returns the evicted files.

        Entries leave oldest-mtime-first (loads touch their entry, so
        this is LRU, not FIFO) until the store fits under the cap.
        ``keep`` -- typically the entry just written -- is never evicted,
        so a store can momentarily overshoot an undersized cap rather
        than delete its own payload.  Unbounded caches are a no-op.
        """
        limit = self.max_bytes
        if limit is None:
            return []
        entries = []
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path.name, path, stat.st_size))
        total = sum(size for _, _, _, size in entries)
        evicted: List[Path] = []
        for _, _, path, size in sorted(entries):
            if total <= limit:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted.append(path)
        return evicted

    def info(self) -> dict:
        """Summary of the on-disk store (for ``--cache-info``)."""
        entries = self.entries()
        total = 0
        for path in entries:
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "entries": len(entries),
            "total_bytes": total,
            "max_bytes": self.max_bytes,
        }

    def clear(self) -> int:
        """Remove every workload entry under this root; returns the count."""
        workloads = self.root / "workloads"
        removed = 0
        if workloads.is_dir():
            for path in workloads.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def entries(self) -> List[Path]:
        """The workload files currently on disk (sorted for stable output)."""
        workloads = self.root / "workloads"
        if not workloads.is_dir():
            return []
        return sorted(workloads.glob("*.pkl"))


#: The in-process memo behind :func:`workload_tasks`, keyed by (cache
#: root, persistence enabled, spec fingerprint).  It keeps every workload
#: the process names alive for the life of the process; pool workers each
#: hold their own (cells are pure, so results are identical either way).
_TASKS: Dict[Tuple[str, bool, str], Tuple[AlignmentTask, ...]] = {}


def workload_tasks(
    spec: SpecLike, cache_dir: Optional[str] = None, use_cache: bool = True
) -> Tuple[AlignmentTask, ...]:
    """The tasks of ``spec``, one shared tuple per process and cache policy.

    The tuple comes from a :class:`WorkloadCache` at ``cache_dir``
    (``None`` resolves the root from the environment).  ``use_cache=True``
    leaves persistence to ``$REPRO_NO_CACHE``; ``use_cache=False`` turns
    it off.  Repeated calls return the same task objects, so the
    alignment profiles cached on them are computed once per process no
    matter how many sessions, figure cells or kernels read the workload.
    """
    cache = WorkloadCache(cache_dir, enabled=None if use_cache else False)
    key = (str(cache.root), cache.enabled, spec_fingerprint(spec))
    if key not in _TASKS:
        _TASKS[key] = cache.tasks(spec)
    return _TASKS[key]
