"""The ``python -m repro.bench`` command line, including the acceptance
property: a sharded CLI run's record is bit-identical to a serial
``run_figure`` run over the same datasets and suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.cli import main
from repro.bench.records import BenchRecord
from repro.bench.runner import run_figure

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRunMode:
    def test_sharded_cli_record_matches_serial_speedup_table(self, tmp_path, capsys):
        """`python -m repro.bench --figure quick --workers 2` on a registry
        dataset must reproduce a serial run bit for bit."""
        name = "ONT-HG002"
        # Serial reference first: it fills the in-process task memo, which
        # fork-started pool workers inherit (spawned ones rebuild it).
        expected = run_figure("quick", datasets=[name], suites=("mm2",)).speedup_table("mm2")

        out = tmp_path / "BENCH_quick.json"
        code = main(
            [
                "--figure", "quick",
                "--datasets", name,
                "--suites", "mm2",
                "--workers", "2",
                "--output", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert f"wrote {out}" in captured.out
        assert "GeoMean" in captured.out

        record = BenchRecord.from_dict(json.loads(out.read_text()))
        assert record.speedup_table("mm2") == expected  # bit-identical
        assert record.environment["workers"] == 2

    def test_plugins_flag_enables_custom_suite(self, tmp_path, monkeypatch, capsys):
        """--plugins imports a module whose registered suite becomes a
        valid --suites choice in a fresh CLI invocation."""
        plugin = tmp_path / "cli_plugin_mod.py"
        plugin.write_text(
            "from repro.api import SUITES, SuiteEntry, register_suite\n"
            "if 'cli-plugin-suite' not in SUITES:\n"
            "    register_suite('cli-plugin-suite',\n"
            "                   [SuiteEntry.make('AGAThA', 'AGAThA')])\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        out = tmp_path / "rec.json"
        code = main(
            [
                "--plugins", "cli_plugin_mod",
                "--figure", "quick",
                "--datasets", "ONT-HG002",
                "--suites", "cli-plugin-suite",
                "--output", str(out),
                "--quiet",
            ]
        )
        from repro.api.suites import SUITES

        try:
            assert code == 0
            record = BenchRecord.load(out)
            assert set(record.suites) == {"cli-plugin-suite"}
            assert [c.kernel for c in record.suites["cli-plugin-suite"].cells] == [
                "AGAThA"
            ]
        finally:
            import sys as _sys

            if "cli-plugin-suite" in SUITES:
                SUITES.unregister("cli-plugin-suite")
            _sys.modules.pop("cli_plugin_mod", None)

    def test_missing_plugins_module_is_a_clean_error(self, capsys):
        assert main(["--plugins", "no_such_plugin_mod", "--figure", "quick"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_abbreviated_plugins_flag_is_rejected(self, capsys):
        """The pre-scan matches --plugins literally, so an abbreviation
        must be a hard parser error, never a silently skipped import."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--plugin", "some_mod", "--figure", "quick"])
        assert excinfo.value.code == 2
        assert "--plugin" in capsys.readouterr().err

    def test_unknown_figure_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--figure", "fig99"])
        assert excinfo.value.code == 2

    def test_unknown_dataset_is_a_clean_error(self, capsys):
        assert main(["--figure", "quick", "--datasets", "ONT-HG02"]) == 2
        captured = capsys.readouterr()
        assert "error: unknown dataset or workload 'ONT-HG02'" in captured.err
        # The message lists both namespaces so a typo shows every choice.
        assert "workloads:" in captured.err

    def test_missing_record_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "nope.json"), str(tmp_path / "x.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestCompareMode:
    def _write_records(self, tmp_path, drop: float = 0.0):
        base = {
            "schema_version": 1,
            "figure": "fig08",
            "datasets": ["ds1"],
            "environment": {},
            "wall_time_s": 0.0,
            "suites": {
                "mm2": {
                    "suite": "mm2",
                    "cpu_time_ms": {"ds1": 10.0},
                    "cells": [],
                    "speedups": {"AGAThA": {"ds1": 20.0, "GeoMean": 20.0}},
                }
            },
        }
        cur = json.loads(json.dumps(base))
        table = cur["suites"]["mm2"]["speedups"]["AGAThA"]
        table["ds1"] *= 1.0 - drop
        table["GeoMean"] *= 1.0 - drop
        a = tmp_path / "baseline.json"
        b = tmp_path / "current.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(cur))
        return a, b

    def test_identical_records_exit_zero(self, tmp_path, capsys):
        a, b = self._write_records(tmp_path)
        assert main(["compare", str(a), str(b)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        a, b = self._write_records(tmp_path, drop=0.5)
        assert main(["compare", str(a), str(b)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tolerance_flag(self, tmp_path, capsys):
        a, b = self._write_records(tmp_path, drop=0.5)
        assert main(["compare", str(a), str(b), "--tolerance", "0.6"]) == 0

    def test_module_entry_point_subprocess(self, tmp_path):
        """`python -m repro.bench compare` works as a real process."""
        a, b = self._write_records(tmp_path, drop=0.5)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.bench", "compare", str(a), str(b)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 1
        assert "regression" in proc.stdout
