"""Versioned, machine-readable benchmark records.

A :class:`BenchRecord` is the JSON artifact one run of the sharded
experiment runner produces (``BENCH_<figure>.json``).  It captures, per
kernel suite and per (dataset x kernel) cell, the simulated execution
time and speedup over the CPU anchor, the per-suite speedup tables with
their geometric means, and enough environment metadata to interpret the
numbers later (Python/NumPy versions, device/CPU pair, worker count).

The schema is versioned (`schema_version`); loaders refuse records from
a newer schema instead of misreading them, and ``repro.bench compare``
diffs two records cell by cell.  Because the kernel timings come from
the deterministic GPU cost simulation, two records produced from the
same code are bit-identical regardless of host machine or worker count
-- which is what makes committed baselines and CI regression gates
meaningful.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional

import numpy as np

__all__ = [
    "RECORD_SCHEMA_VERSION",
    "CellRecord",
    "SuiteRecord",
    "BenchRecord",
    "environment_metadata",
    "engine_bench_record",
]

#: Bump whenever the JSON layout changes incompatibly.
RECORD_SCHEMA_VERSION = 1


def environment_metadata(**extra) -> Dict[str, object]:
    """Environment block stamped into every record."""
    meta: Dict[str, object] = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": np.__version__,
    }
    meta.update(extra)
    return meta


@dataclass(frozen=True)
class CellRecord:
    """One (dataset x kernel) measurement inside one suite."""

    dataset: str
    kernel: str
    time_ms: float
    speedup_vs_cpu: float
    cells: int = 0
    runahead_cells: int = 0
    global_words: float = 0.0
    imbalance: float = 0.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "CellRecord":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class SuiteRecord:
    """Results of one kernel suite over a set of datasets.

    ``speedups`` is exactly the mapping
    :func:`repro.bench.runner.run_speedup_table` returns for the same
    datasets and suite (``kernel -> {dataset: speedup, ..., "GeoMean"}``),
    so record contents can be compared bit for bit against a serial
    run.
    """

    suite: str
    cpu_time_ms: Dict[str, float] = field(default_factory=dict)
    cells: List[CellRecord] = field(default_factory=list)
    speedups: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def geomeans(self) -> Dict[str, float]:
        """Per-kernel geometric-mean speedup."""
        return {kernel: row.get("GeoMean", 0.0) for kernel, row in self.speedups.items()}

    def cell(self, dataset: str, kernel: str) -> Optional[CellRecord]:
        for cell in self.cells:
            if cell.dataset == dataset and cell.kernel == kernel:
                return cell
        return None

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cpu_time_ms": self.cpu_time_ms,
            "cells": [cell.to_dict() for cell in self.cells],
            "speedups": self.speedups,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SuiteRecord":
        return cls(
            suite=data["suite"],
            cpu_time_ms=dict(data.get("cpu_time_ms", {})),
            cells=[CellRecord.from_dict(c) for c in data.get("cells", [])],
            speedups={k: dict(v) for k, v in data.get("speedups", {}).items()},
        )


@dataclass
class BenchRecord:
    """One benchmark run: every suite's results plus run metadata."""

    figure: str
    datasets: List[str] = field(default_factory=list)
    suites: Dict[str, SuiteRecord] = field(default_factory=dict)
    environment: Dict[str, object] = field(default_factory=environment_metadata)
    wall_time_s: float = 0.0
    schema_version: int = RECORD_SCHEMA_VERSION

    # ------------------------------------------------------------------
    def speedup_table(self, suite: str) -> Dict[str, Dict[str, float]]:
        """The speedup table of one suite (as ``run_speedup_table`` returns it)."""
        return self.suites[suite].speedups

    @property
    def default_filename(self) -> str:
        return f"BENCH_{self.figure}.json"

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "figure": self.figure,
            "datasets": list(self.datasets),
            "environment": dict(self.environment),
            "wall_time_s": self.wall_time_s,
            "suites": {name: suite.to_dict() for name, suite in self.suites.items()},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def save(self, path: Path | str) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def from_dict(cls, data: Mapping) -> "BenchRecord":
        version = data.get("schema_version")
        if not isinstance(version, int) or version < 1:
            raise ValueError(f"record has no valid schema_version (got {version!r})")
        if version > RECORD_SCHEMA_VERSION:
            raise ValueError(
                f"record schema_version {version} is newer than supported "
                f"({RECORD_SCHEMA_VERSION}); upgrade the tooling"
            )
        return cls(
            figure=data["figure"],
            datasets=list(data.get("datasets", [])),
            suites={
                name: SuiteRecord.from_dict(suite)
                for name, suite in data.get("suites", {}).items()
            },
            environment=dict(data.get("environment", {})),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            schema_version=version,
        )

    @classmethod
    def load(cls, path: Path | str) -> "BenchRecord":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# ----------------------------------------------------------------------
# wall-clock engine studies (BENCH_sliced.json and friends)
# ----------------------------------------------------------------------
def engine_bench_record(
    timings_ms: Mapping[str, float],
    *,
    anchor: str,
    figure: str = "engines",
    workload: str = "workload",
    environment: Optional[Mapping[str, object]] = None,
) -> BenchRecord:
    """Fold per-engine wall-clock timings into one gateable record.

    The engine-study mirror of
    :func:`repro.serve.telemetry.serve_bench_record`: every alignment
    engine becomes a "kernel" row of a single suite named ``figure``,
    ``time_ms`` is its wall-clock on the workload and ``speedup_vs_cpu``
    its speedup over the ``anchor`` engine (whose time fills
    ``cpu_time_ms``, the anchor slot of the record schema).  The result
    serialises to ``BENCH_<figure>.json`` and diffs with
    ``python -m repro.bench compare`` like any other record
    (docs/BENCHMARKS.md).

    Unlike figure records, the timings here are *measured*, so records
    from different machines differ; gate them only against baselines
    captured on comparable hardware.
    """
    if anchor not in timings_ms:
        raise ValueError(
            f"anchor engine {anchor!r} has no timing; got {sorted(timings_ms)}"
        )
    anchor_ms = float(timings_ms[anchor])
    suite = SuiteRecord(suite=figure, cpu_time_ms={workload: anchor_ms})
    for engine, time_ms in timings_ms.items():
        time_ms = float(time_ms)
        if time_ms <= 0:
            raise ValueError(f"engine {engine!r} has non-positive timing {time_ms}")
        speedup = anchor_ms / time_ms
        suite.cells.append(
            CellRecord(
                dataset=workload,
                kernel=engine,
                time_ms=time_ms,
                speedup_vs_cpu=speedup,
            )
        )
        suite.speedups[engine] = {workload: speedup, "GeoMean": speedup}
    return BenchRecord(
        figure=figure,
        datasets=[workload],
        suites={figure: suite},
        environment=environment_metadata(
            anchor_engine=anchor, **dict(environment or {})
        ),
    )
