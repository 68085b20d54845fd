"""Tests of the end-to-end benchmark: BENCHMARK.json, a smoke run of
every workload, span nesting, the input fingerprint, the oracles and the
comparison verdicts."""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import e2e_compare
import e2e_workloads as wl
from e2e_trace import Tracer, nesting_errors
from repro.api import Session, align_tasks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/e2e_run.py"]
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    workloads, e2e, layers = (BENCHMARK[k] for k in ("workloads", "end_to_end", "per_layer"))
    assert 2 <= len(workloads) <= 8 and 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [w["name"] for w in workloads] + [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in e2e:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in layers:
        assert set(metric) == {"name", "unit", "better"}
    for metric in e2e + layers:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_benchmark_json_matches_the_runner():
    import e2e_run

    assert e2e_run.DEFAULT_SECONDS == BENCHMARK["run_seconds"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        w for w in wl.WORKLOADS if w not in wl.SERVE_WORKLOADS]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == wl.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == wl.LAYER_UNITS


# ----------------------------------------------------------------------
# smoke runs (all five at once, so the suite pays for them once)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    procs = {
        workload: subprocess.Popen(
            [sys.executable, str(HERE / "e2e_run.py"), "--workload", workload, "--seed", "1",
             "--smoke", "--trace", "1", "--out", str(out / f"{workload}.json")],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for workload in wl.WORKLOADS
    }
    runs = {}
    for workload, proc in procs.items():
        stdout, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, stdout
        record = json.loads((out / f"{workload}.json").read_text())
        runs[workload] = (stdout, record)
    return runs


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_smoke_run_prints_every_metric_and_checks_out(smoke_runs, workload):
    stdout, record = smoke_runs[workload]
    lines = stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    assert record["error_rate"] == 0
    units = wl.layer_units(workload)
    assert last["metrics"] == {name: {"value": m["value"], "unit": m["unit"]}
                               for name, m in record["layers"].items()}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == units
    printed = {ln.split()[0]: ln.split()[2] for ln in lines[1:-1] if len(ln.split()) >= 3}
    for metric in BENCHMARK["end_to_end"]:
        assert printed[metric["name"]] == metric["unit"]
        assert record["metrics"][metric["name"]]["value"] > 0
    for name, unit in units.items():
        assert printed[name] == unit


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_smoke_trace_spans_nest(smoke_runs, workload):
    _, record = smoke_runs[workload]
    events = json.loads(Path(record["chrome_trace"]).read_text())["traceEvents"]
    assert events and nesting_errors(events) == []


def test_nesting_check_catches_a_span_outside_its_parent():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        pass
    with tracer.span("late", parent=outer):
        pass
    assert nesting_errors(tracer.chrome_events()) == ["late: outside its parent span"]


def test_wrap_is_undone_and_self_time_excludes_children():
    import e2e_trace

    tracer = Tracer()
    tracer.wrap(e2e_trace, "nesting_errors", "check")
    assert e2e_trace.nesting_errors is not nesting_errors
    with tracer.span("root"):
        e2e_trace.nesting_errors([])
    tracer.unwrap()
    assert e2e_trace.nesting_errors is nesting_errors
    total, self_ns = tracer.self_time_ns("root")
    assert total == self_ns["root"] + self_ns["check"]


# ----------------------------------------------------------------------
# inputs and oracles
# ----------------------------------------------------------------------
def test_fingerprint_follows_the_seed():
    def prints(seed):
        return (wl.fingerprint(wl.task_arrays(wl.tiny_tasks(seed, count=16))),
                wl.fingerprint(wl.task_arrays(wl.mapped_tasks(seed, 0.03, Counter()))))

    assert prints(1) == prints(1)
    assert all(a != b for a, b in zip(prints(1), prints(2)))


def test_verifier_counts_a_tampered_result_as_failed():
    tasks = wl.tiny_tasks(3, count=4)
    expected = align_tasks(tasks, engine="scalar")
    got = Session(tasks=tasks, engine="vector").align().results
    run = wl.Run("align-bulk", seed=3, seconds=0)
    run.check(got, expected)
    assert (run.attempted, run.failed) == (4, 0)
    tampered = list(got)
    tampered[2] = dataclasses.replace(tampered[2], score=tampered[2].score + 1)
    run.check(tampered, expected)
    run.check(got[:3], expected)  # a lost result fails too
    assert (run.attempted, run.failed) == (12, 2)


def test_cigar_oracle_rejects_a_tampered_path():
    tasks = wl.tiny_tasks(4, count=3)
    cigars = Session(tasks=tasks, engine="vector").align(cigars=True).cigars
    assert all(wl.cigar_consistent(t, tb) for t, tb in zip(tasks, cigars))
    tb = cigars[0]
    ops = list(tb.cigar.operations)
    op, length = ops[0]
    ops[0] = ("X" if op == "=" else "=", length)
    tampered = dataclasses.replace(tb, cigar=type(tb.cigar)(tuple(ops)))
    assert not wl.cigar_consistent(tasks[0], tampered)


def test_stratified_sample_spans_every_size():
    rng = np.random.default_rng(0)
    picked = wl.stratified_sample(list(range(100, 0, -1)), 10, rng)
    assert len(picked) == 10 and len({i // 10 for i in picked}) == 10


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def _write_runs(directory: Path, values, probe=20.0):
    directory.mkdir()
    for seed, value in enumerate(values):
        metrics = {m["name"]: {"value": value if m["name"] == "p50_ms" else 1.0,
                               "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
        (directory / f"run{seed}.json").write_text(json.dumps({
            "kind": "e2e-run", "workload": "align-bulk", "seed": seed, "trace": False,
            "smoke": False, "fingerprint": str(seed), "attempted": 10, "failed": 0,
            "host": {"probe_ms": {"start": probe, "end": probe}}, "metrics": metrics,
        }))


@pytest.mark.parametrize("change, label", [
    ([80.0 + i / 10 for i in range(10)], "improved"),
    ([100.0 + i / 10 for i in range(10)], "within bound"),
    ([130.0 + i / 10 for i in range(10)], "regressed"),
])
def test_compare_verdicts(tmp_path, change, label):
    _write_runs(tmp_path / "parent", [100.0 + i / 10 for i in range(10)])
    _write_runs(tmp_path / "change", change, probe=30.0)
    lines, regressed = e2e_compare.compare(tmp_path / "parent", tmp_path / "change",
                                           ROOT / "BENCHMARK.json")
    row = next(line for line in lines if line.strip().startswith("p50_ms"))
    assert label in row and regressed == (label == "regressed")
    assert any("host drift" in line for line in lines)


def test_compare_reports_unresolved_when_the_parent_spreads_wider_than_the_bound():
    p50 = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "p50_ms")
    noisy = [100.0 * (1 + 2 * p50["bound"] * (i % 2)) for i in range(10)]
    assert e2e_compare.verdict(noisy, noisy, list(zip(noisy, noisy)), "lower",
                               p50["bound"])[0] == "unresolved"
