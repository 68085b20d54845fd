"""Run one workload of the end-to-end wall-clock benchmark.

    python3 benchmarks/e2e/e2e_run.py --workload align-bulk --seed 1 \\
        [--seconds 12] [--trace 0|1] [--smoke] [--out FILE]

Workloads: align-bulk, align-cigar, map-reads, serve-reads, serve-tiny
(see README.md).  The run builds its inputs from ``--seed``, measures
for about ``--seconds`` seconds, checks every output, prints each metric
with its unit and writes a run JSON (default: ``.e2e_out/`` at the
repository root).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics, or with ``--trace 1`` the per-layer ones (and a Chrome trace
next to the run JSON).

The program under test is imported from ``src/`` of the checkout this
file lives in; without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".e2e_out"
DEFAULT_SECONDS = 12.0
SMOKE_SECONDS = 0.3
DEFAULT_SEED = 1


def host_probe_ms() -> float:
    """A fixed pure-NumPy plus pure-Python job.  Its time tracks the speed
    the host gives this process, independent of the program under test."""
    import numpy as np

    values = np.random.default_rng(0).integers(0, 1 << 30, 100_000)
    start = time.perf_counter()
    for _ in range(5):
        np.sort(values)
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1000.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured time (default {DEFAULT_SECONDS:g}; "
                             f"{SMOKE_SECONDS:g} with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run printing the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks that everything runs, measures nothing")
    parser.add_argument("--out", type=Path, default=None, help="run JSON path")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    return args


def _format(value: float) -> str:
    return f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e_run: the program source {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Anything that reaches the workload cache stays inside the checkout.
    os.environ.setdefault("REPRO_CACHE_DIR", str(ROOT / ".cache" / "repro"))

    started = time.perf_counter()
    import e2e_workloads as wl

    import_s = time.perf_counter() - started
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"e2e_run: imported {repro.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"e2e_run: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    from e2e_trace import Tracer

    run = wl.Run(args.workload, args.seed, args.seconds, smoke=args.smoke,
                 tracer=Tracer() if args.trace else None)
    run.setup["import"] = import_s
    probe_start = host_probe_ms()
    wl.WORKLOADS[args.workload](run)
    probe_end = host_probe_ms()
    run.e2e["setup_s"] = wl.setup_s(run)
    run.samples["setup_s"] = 1 if args.smoke else wl.SETUP_REPEATS
    run.samples["peak_rss_mb"] = 1

    e2e = {name: {"value": run.e2e[name], "unit": unit, "samples": run.samples[name]}
           for name, unit in wl.E2E_UNITS.items()}
    layers: Dict[str, Dict[str, Any]] = {}
    suffix = "-trace" if args.trace else ""
    out = args.out or OUT_DIR / f"{args.workload}-seed{args.seed}{suffix}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    trace_file = None
    if run.tracer is not None:
        units = wl.layer_units(args.workload)
        layers = {name: {"value": value, "unit": units[name]}
                  for name, value in wl.layer_metrics(run).items()}
        trace_file = out.with_suffix(".trace.json")
        run.tracer.write_chrome(str(trace_file))
    correct = run.failed == 0 and run.attempted > 0
    record = {
        "kind": "e2e-run",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "fingerprint": run.fingerprint,
        "host": {"probe_ms": {"start": probe_start, "end": probe_end},
                 "cpus": os.cpu_count()},
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": run.failed / max(run.attempted, 1),
        "metrics": e2e,
        "layers": layers,
        "setup": run.setup,
        "raw": run.raw,
        "chrome_trace": str(trace_file) if trace_file else None,
    }
    out.write_text(json.dumps(record, indent=1))

    print(f"e2e {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} inputs={run.fingerprint[:16]}")
    for name, metric in {**e2e, **layers}.items():
        samples = f"  (n={metric['samples']})" if "samples" in metric else ""
        print(f"  {name:<46} {_format(metric['value']):>12} {metric['unit']}{samples}")
    print(f"  {'error_rate':<46} {_format(record['error_rate']):>12} "
          f"({run.failed} of {run.attempted} failed)")
    print(f"  {'host.probe_ms':<46} start {probe_start:.1f}  end {probe_end:.1f}")
    print(f"  run JSON: {out}" + (f"   chrome trace: {trace_file}" if trace_file else ""))
    shown = layers if args.trace else e2e
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
