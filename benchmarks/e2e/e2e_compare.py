"""Compare end-to-end benchmark runs of two commits (stdlib only).

    python3 benchmarks/e2e/e2e_compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds run JSONs written by ``e2e_run.py --out``; traced
and smoke runs are skipped.  Runs of the two sides pair up by workload
and seed.  For every workload run and every end-to-end metric of
``BENCHMARK.json`` the report gives each side's median and quartiles,
the share of pairs the change won (ties count for neither) and one
verdict:

``improved``      the change won at least 90 % of the pairs and the
                  medians differ, in its favour, by more than the distance
                  between the parent's quartiles;
``unresolved``    the parent's own spread (quartile distance over median)
                  is wider than the metric's bound, and not every change
                  run reads better than every parent run;
``regressed``     the change's median is worse than the parent's by more
                  than the bound;
``within bound``  otherwise.

It also reports each side's failure share, flags pairs whose inputs
differ (fingerprints) and pairs whose host-speed probes differ by more
than 20 % -- a host that drifted between the two runs.  Exit status 1
when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
PROBE_DRIFT = 0.20
WIN_SHARE = 0.9


def load_runs(directory: Path) -> Dict[Tuple[str, int], Dict[str, Any]]:
    """Untraced, full-size run records keyed by (workload, seed)."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if (isinstance(record, dict) and record.get("kind") == "e2e-run"
                and not record["trace"] and not record["smoke"]):
            runs[(record["workload"], record["seed"])] = record
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: Sequence[float], change: Sequence[float], pairs: Sequence[Tuple[float, float]],
            better: str, bound: float) -> Tuple[str, float]:
    """The verdict of one workload x metric and the change's share of wins."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = sign * (c_med - p_med)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pairs and won >= WIN_SHARE and gain > p_q3 - p_q1:
        return "improved", won
    if spread > bound and not all_better:
        return "unresolved", won
    if -gain > bound * abs(p_med):
        return "regressed", won
    return "within bound", won


def _probe(record: Dict[str, Any]) -> float:
    probe = record["host"]["probe_ms"]
    return (probe["start"] + probe["end"]) / 2.0


def compare(parent_dir: Path, change_dir: Path, benchmark: Path) -> Tuple[List[str], bool]:
    """Report lines and whether any metric regressed."""
    spec = json.loads(benchmark.read_text())
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    lines: List[str] = []
    regressed = False
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        p_runs = {seed: r for (w, seed), r in parent.items() if w == workload}
        c_runs = {seed: r for (w, seed), r in change.items() if w == workload}
        if not p_runs or not c_runs:
            lines.append(f"{workload}: no runs on {'parent' if not p_runs else 'change'} side")
            continue
        seeds = sorted(set(p_runs) & set(c_runs))
        lines.append(f"{workload}: {len(p_runs)} parent / {len(c_runs)} change runs, "
                     f"{len(seeds)} pairs")
        lines.append(f"  {'metric':<14} {'parent median [q1, q3]':>30} "
                     f"{'change median [q1, q3]':>30} {'delta':>8} {'won':>5}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [r["metrics"][name]["value"] for r in p_runs.values()]
            c_vals = [r["metrics"][name]["value"] for r in c_runs.values()]
            pairs = [(p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                     for s in seeds]
            label, won = verdict(p_vals, c_vals, pairs, metric["better"], metric["bound"])
            regressed |= label == "regressed"
            p_q1, p_med, p_q3 = quartiles(p_vals)
            c_q1, c_med, c_q3 = quartiles(c_vals)
            delta = 100.0 * (c_med - p_med) / p_med if p_med else float("nan")
            lines.append(
                f"  {name:<14} {p_med:>12.5g} [{p_q1:.5g}, {p_q3:.5g}]".ljust(48)
                + f" {c_med:>12.5g} [{c_q1:.5g}, {c_q3:.5g}]".ljust(31)
                + f" {delta:>+7.1f}% {won:>5.2f}  {label}"
                + f"  (bound {metric['bound']:.0%}, {metric['better']} is better)"
            )
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs.values())
            attempted = sum(r["attempted"] for r in runs.values())
            lines.append(f"  failures {side}: {failed} of {attempted} "
                         f"({failed / max(attempted, 1):.3%})")
        for seed in seeds:
            p, c = p_runs[seed], c_runs[seed]
            if p["fingerprint"] != c["fingerprint"]:
                lines.append(f"  seed {seed}: INPUTS DIFFER (fingerprints)")
            p_probe, c_probe = _probe(p), _probe(c)
            if abs(c_probe - p_probe) > PROBE_DRIFT * min(p_probe, c_probe):
                lines.append(f"  seed {seed}: host drift, probe {p_probe:.1f} ms (parent) "
                             f"vs {c_probe:.1f} ms (change)")
    return lines, regressed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK)
    args = parser.parse_args(argv)
    lines, regressed = compare(args.parent, args.change, args.benchmark)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
