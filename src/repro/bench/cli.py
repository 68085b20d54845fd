"""Command-line front end: ``python -m repro.bench``.

Two modes:

``python -m repro.bench [--figure fig08] [--workers N] [...]``
    Run one named figure through the sharded runner and write its
    machine-readable record to ``BENCH_<figure>.json`` (override with
    ``--output``).  The speedup tables are also printed.

``python -m repro.bench compare BASELINE CURRENT [--tolerance 0.2]``
    Diff two record files; exit non-zero when the current record
    regresses (or loses coverage) beyond the tolerance.

Custom suites registered through :func:`repro.api.register_suite` become
valid ``--suites`` choices once their module is imported; a fresh CLI
process imports such plugin modules via ``--plugins mod[,mod...]``
(handled before the parser is built, so the choices include them).
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import List, Optional, Sequence, Tuple

from repro.api.suites import suite_names
from repro.bench.compare import DEFAULT_TOLERANCE, compare_records, format_report
from repro.bench.records import BenchRecord
from repro.bench.runner import FIGURES, BenchCell, run_figure

__all__ = ["main"]


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Sharded figure reproduction with persistent workload caching.",
        # No prefix abbreviations: --plugins is consumed by a pre-scan that
        # matches the literal flag, so an abbreviated form must be an error
        # rather than a silently unimported plugin.
        allow_abbrev=False,
    )
    parser.add_argument(
        "--figure",
        default="fig08",
        choices=sorted(FIGURES),
        help="named figure plan to run (default: fig08)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes to shard (dataset x suite) cells over (default: 1)",
    )
    parser.add_argument(
        "--datasets",
        nargs="+",
        metavar="NAME",
        help="restrict to these registry datasets (default: the figure plan's)",
    )
    parser.add_argument(
        "--suites",
        nargs="+",
        metavar="SUITE",
        # Resolved from the shared suite registry at parser-build time;
        # --plugins modules were imported just before this, so suites they
        # register are valid choices too.
        choices=list(suite_names()),
        help="restrict to these kernel suites (default: the figure plan's)",
    )
    parser.add_argument(
        "--plugins",
        metavar="MOD[,MOD...]",
        help="import these modules first (their register_suite/register_kernel "
        "calls make custom suites available to --suites)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="record file to write (default: BENCH_<figure>.json)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="workload cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent workload cache (rebuild in memory)",
    )
    parser.add_argument(
        "--cache-info",
        action="store_true",
        help="print workload-cache statistics (location, entries, size cap) "
        "and exit without running a figure",
    )
    parser.add_argument(
        "--cache-clear",
        action="store_true",
        help="remove every cached workload and exit without running a figure",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress and table output"
    )
    return parser


def _compare_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench compare",
        description="Diff two benchmark records and fail on regressions.",
        allow_abbrev=False,
    )
    parser.add_argument("baseline", help="baseline record (e.g. benchmarks/baseline.json)")
    parser.add_argument("current", help="current record (e.g. BENCH_fig08.json)")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"allowed relative geomean drop (default: {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--suites",
        nargs="+",
        metavar="SUITE",
        help="compare only these baseline suites (default: all of them); "
        "lets one combined baseline gate records that each carry a "
        "subset of its suites",
    )
    return parser


def _print_record(record: BenchRecord, out=None) -> None:
    from repro.analysis.report import format_bench_record

    print("\n" + format_bench_record(record), file=out or sys.stdout)


def _extract_plugins(argv: Sequence[str]) -> Tuple[List[str], List[str]]:
    """Split ``--plugins`` values out of ``argv`` before parsing.

    The plugin modules must be imported *before* the parser is built
    (their registrations feed the ``--suites`` choices), so this light
    pre-scan consumes ``--plugins mod[,mod...]`` / ``--plugins=...`` and
    returns the remaining argv plus the module names.
    """
    remaining: List[str] = []
    modules: List[str] = []
    index = 0
    while index < len(argv):
        arg = argv[index]
        if arg == "--plugins" and index + 1 < len(argv):
            modules.extend(m for m in argv[index + 1].split(",") if m)
            index += 2
            continue
        if arg.startswith("--plugins="):
            modules.extend(m for m in arg.split("=", 1)[1].split(",") if m)
            index += 1
            continue
        remaining.append(arg)
        index += 1
    return remaining, modules


def _cache_admin(args) -> int:
    """Handle ``--cache-clear`` / ``--cache-info`` (no figure is run)."""
    from repro.bench.cache import WorkloadCache

    cache = WorkloadCache(args.cache_dir)
    if args.cache_clear:
        removed = cache.clear()
        print(f"removed {removed} cached workload(s) from {cache.root}")
    if args.cache_info:
        info = cache.info()
        cap = "unbounded" if info["max_bytes"] is None else f"{info['max_bytes']} bytes"
        print(f"cache root : {info['root']}")
        print(f"enabled    : {info['enabled']}")
        print(f"entries    : {info['entries']}")
        print(f"total size : {info['total_bytes']} bytes")
        print(f"size cap   : {cap} (REPRO_CACHE_MAX_BYTES)")
    return 0


def _run_main(argv: Sequence[str]) -> int:
    argv, plugins = _extract_plugins(argv)
    for module in plugins:
        import_module(module)
    parser = _run_parser()
    args = parser.parse_args(argv)
    if args.cache_info or args.cache_clear:
        return _cache_admin(args)

    def progress(done: int, total: int, cell: BenchCell) -> None:
        print(
            f"[{done}/{total}] {cell.spec.name} x {cell.suite}",
            file=sys.stderr,
            flush=True,
        )

    record = run_figure(
        args.figure,
        workers=args.workers,
        datasets=args.datasets,
        suites=tuple(args.suites) if args.suites else None,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=None if args.quiet else progress,
    )
    output = args.output or record.default_filename
    path = record.save(output)
    if not args.quiet:
        _print_record(record)
    print(f"wrote {path}")
    return 0


def _compare_main(argv: Sequence[str]) -> int:
    args = _compare_parser().parse_args(argv)
    baseline = BenchRecord.load(args.baseline)
    current = BenchRecord.load(args.current)
    report = compare_records(
        baseline, current, tolerance=args.tolerance, suites=args.suites
    )
    print(format_report(report, baseline_name=args.baseline, current_name=args.current))
    return report.exit_code()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "compare":
            return _compare_main(argv[1:])
        return _run_main(argv)
    except (KeyError, ValueError, FileNotFoundError, ImportError) as exc:
        # Post-argparse validation (unknown dataset, bad record file,
        # missing --plugins module, ...): a clean one-line error instead
        # of a traceback.
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
