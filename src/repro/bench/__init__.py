"""Sharded benchmark runner, in-process workload memo and bench records.

The ``repro.bench`` subsystem turns figure reproductions into sharded,
machine-readable runs:

* :mod:`repro.bench.cache` -- the in-process memo that builds each
  alignment workload once per process, keyed by spec fingerprint;
* :mod:`repro.bench.runner` -- fans (dataset x suite) cells over a
  process pool (bit-identical to the serial harness);
* :mod:`repro.bench.records` -- versioned ``BENCH_<figure>.json`` records;
* :mod:`repro.bench.compare` -- record diffing / regression gating;
* :mod:`repro.bench.cli` -- the ``python -m repro.bench`` front end.
"""

from repro.bench.cache import spec_fingerprint
from repro.bench.compare import ComparisonReport, compare_records, format_report
from repro.bench.records import (
    BenchRecord,
    CellRecord,
    SuiteRecord,
    engine_bench_record,
)
from repro.bench.runner import (
    FIGURES,
    BenchCell,
    run_cell,
    run_cells,
    run_figure,
)

__all__ = [
    "spec_fingerprint",
    "ComparisonReport",
    "compare_records",
    "format_report",
    "BenchRecord",
    "CellRecord",
    "SuiteRecord",
    "engine_bench_record",
    "FIGURES",
    "BenchCell",
    "run_cell",
    "run_cells",
    "run_figure",
]
