"""The ``python -m repro.serve`` command line."""

import json

from repro.bench.cli import main as bench_main
from repro.bench.records import BenchRecord
from repro.serve import SERVE_SCHEMA_VERSION
from repro.serve.cli import main


class TestServeCli:
    def test_end_to_end_record(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serve.json"
        code = main(
            [
                "--dataset", "ONT-HG002",
                "--requests", "24",
                "--arrival", "poisson",
                "--rate", "800",
                "--timing", "modeled",
                "--refill", "drain",
                "--max-batch", "8",
                "--max-wait-ms", "2.0",
                "--output", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert f"wrote {out}" in captured.out
        assert "[microbatch]" in captured.out and "[batch1]" in captured.out
        assert "latency p50/p95/p99" in captured.out
        record = BenchRecord.from_dict(json.loads(out.read_text()))
        assert record.figure == "serve"
        assert set(record.suites["serve"].speedups) == {"microbatch", "batch1"}
        assert record.suites["serve"].speedups["batch1"]["ONT-HG002"] == 1.0
        assert record.environment["serve_schema_version"] == SERVE_SCHEMA_VERSION

    def test_record_gates_through_bench_compare(self, tmp_path, capsys):
        """The acceptance wiring: python -m repro.bench compare accepts
        BENCH_serve.json records."""
        out = tmp_path / "BENCH_serve.json"
        args = [
            "--requests", "16", "--timing", "modeled", "--quiet",
            "--output", str(out),
        ]
        assert main(args) == 0
        baseline = tmp_path / "serve_baseline.json"
        baseline.write_text(out.read_text())
        assert bench_main(["compare", str(baseline), str(out)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_no_baseline_skips_anchor(self, tmp_path, capsys):
        out = tmp_path / "rec.json"
        code = main(
            [
                "--requests", "8", "--timing", "modeled", "--no-baseline",
                "--refill", "drain",
                "--output", str(out), "--quiet",
            ]
        )
        assert code == 0
        record = BenchRecord.load(out)
        assert set(record.suites["serve"].speedups) == {"microbatch"}
        assert record.suites["serve"].speedups["microbatch"]["ONT-HG002"] == 1.0

    def test_max_batch_one_is_its_own_anchor(self, tmp_path):
        """--max-batch 1 must not mislabel a batch1 drain as microbatch
        (nor pointlessly drain the identical anchor a second time)."""
        out = tmp_path / "rec.json"
        code = main(
            [
                "--requests", "8", "--timing", "modeled", "--max-batch", "1",
                "--output", str(out), "--quiet",
            ]
        )
        assert code == 0
        record = BenchRecord.load(out)
        assert set(record.suites["serve"].speedups) == {"batch1"}
        assert record.suites["serve"].speedups["batch1"]["ONT-HG002"] == 1.0

    def test_replay_and_bursty_arrivals(self, tmp_path):
        for arrival in ("replay", "bursty"):
            out = tmp_path / f"{arrival}.json"
            code = main(
                [
                    "--requests", "8", "--timing", "modeled",
                    "--arrival", arrival, "--no-baseline",
                    "--output", str(out), "--quiet",
                ]
            )
            assert code == 0 and out.exists()

    def test_registered_workload_is_served_by_name(self, tmp_path):
        out = tmp_path / "rec.json"
        code = main(
            [
                "--dataset", "adv-heavy-tail", "--requests", "8",
                "--timing", "modeled", "--output", str(out), "--quiet",
            ]
        )
        assert code == 0
        assert "adv-heavy-tail" in BenchRecord.load(out).datasets

    def test_unknown_dataset_lists_both_namespaces(self, capsys):
        assert main(["--dataset", "nope", "--requests", "4"]) == 2
        err = capsys.readouterr().err
        assert "'nope'" in err
        assert "datasets:" in err and "workloads:" in err

    def test_bad_rate_is_a_clean_error(self, capsys):
        assert main(["--rate", "0", "--requests", "4"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_requests_is_a_clean_error(self, capsys):
        assert main(["--requests", "-3"]) == 2
        assert "error:" in capsys.readouterr().err
