"""Plain-text report rendering.

The repository reproduces every figure of the paper as the *data series*
the figure plots (no plotting dependency is available offline), so the
benchmarks and examples need a compact way to print aligned tables.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table", "format_speedup_table", "format_bench_record"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.2f}",
) -> str:
    """Render rows as a fixed-width text table."""
    rendered: list[list[str]] = []
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [len(h) for h in headers]
    for cells in rendered:
        for k, cell in enumerate(cells):
            widths[k] = max(widths[k], len(cell))
    lines = [
        "  ".join(h.ljust(widths[k]) for k, h in enumerate(headers)),
        "  ".join("-" * widths[k] for k in range(len(headers))),
    ]
    for cells in rendered:
        lines.append("  ".join(cells[k].ljust(widths[k]) for k in range(len(cells))))
    return "\n".join(lines)


def format_bench_record(record) -> str:
    """Render a :class:`repro.bench.records.BenchRecord` for the terminal.

    One speedup table per suite, plus a one-line run summary.  Accepts the
    record duck-typed so this module stays import-light.
    """
    lines: list[str] = []
    for suite_name, suite in record.suites.items():
        lines.append(f"=== {record.figure} / {suite_name} ===")
        lines.append(format_speedup_table(suite.speedups))
        lines.append("")
    cells = sum(len(s.cells) for s in record.suites.values())
    lines.append(
        f"{cells} cells in {record.wall_time_s:.1f}s wall "
        f"(workers={record.environment.get('workers')})"
    )
    return "\n".join(lines)


def format_speedup_table(table: Mapping[str, Mapping[str, float]]) -> str:
    """Render a speedup table (:meth:`repro.bench.records.BenchRecord.speedup_table`).

    Rows are kernels, columns are datasets (plus the geometric mean),
    values are speedups over the CPU baseline.
    """
    if not table:
        return "(empty)"
    first = next(iter(table.values()))
    columns = list(first.keys())
    headers = ["kernel"] + columns
    rows = []
    for kernel_name, row in table.items():
        rows.append([kernel_name] + [row.get(c, float("nan")) for c in columns])
    return format_table(headers, rows)
