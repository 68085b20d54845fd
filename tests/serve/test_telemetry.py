"""Telemetry schema, percentile arithmetic and the gateable record."""

import pytest

from repro.bench.compare import compare_records
from repro.bench.records import BenchRecord
from repro.serve import (
    SERVE_SCHEMA_VERSION,
    LatencySummary,
    ServeConfig,
    TelemetrySink,
    replay,
    serve_bench_record,
)
from repro.serve.telemetry import percentile


class TestPercentile:
    def test_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert percentile(values, 50.0) == 30.0
        assert percentile(values, 95.0) == 50.0
        assert percentile(values, 0.0) == 10.0
        assert percentile(values, 100.0) == 50.0

    def test_unsorted_input(self):
        assert percentile([5.0, 1.0, 3.0], 50.0) == 3.0

    def test_errors(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestLatencySummary:
    def test_from_values(self):
        summary = LatencySummary.from_values([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean_ms == 2.5
        assert summary.p50_ms == 2.0
        assert summary.max_ms == 4.0

    def test_empty(self):
        summary = LatencySummary.from_values([])
        assert summary.count == 0
        assert summary.max_ms == 0.0


class TestTelemetrySink:
    def test_schema_keys(self):
        sink = TelemetrySink()
        sink.record_queue_depth(1)
        sink.record_queue_depth(3)
        sink.record_batch(2)
        sink.record_request(0.5, 2.5)
        sink.record_request(1.0, 3.0)
        summary = sink.summary()
        assert summary["schema_version"] == SERVE_SCHEMA_VERSION
        assert set(summary) == {
            "schema_version",
            "requests",
            "batches",
            "mean_batch_occupancy",
            "batch_occupancy",
            "lane_occupancy",
            "refill",
            "admission",
            "faults",
            "resize",
            "queue_depth",
            "wait_ms",
            "latency_ms",
        }
        assert summary["requests"] == 2
        assert summary["batches"] == 1
        assert summary["batch_occupancy"] == {"2": 1}
        assert summary["queue_depth"] == {"mean": 2.0, "max": 3}
        assert summary["wait_ms"]["max_ms"] == 1.0
        # v4 additions default to zeroed counters.
        assert summary["faults"] == {
            "crashes": 0,
            "delays": 0,
            "dropped": 0,
            "duplicated": 0,
        }
        assert summary["resize"] == {"events": 0, "relocated": 0}

    def test_fault_and_resize_counters(self):
        sink = TelemetrySink()
        sink.record_fault("crashes")
        sink.record_fault("delays", 2)
        sink.record_resize(relocated=5)
        sink.record_resize()
        with pytest.raises(ValueError, match="fault kind"):
            sink.record_fault("explosions")
        summary = sink.summary()
        assert summary["faults"]["crashes"] == 1
        assert summary["faults"]["delays"] == 2
        assert summary["resize"] == {"events": 2, "relocated": 5}
        # Counters survive the state round trip and merge additively.
        clone = TelemetrySink.from_state(sink.state())
        clone.merge(sink)
        assert clone.faults["delays"] == 4
        assert clone.resize_events == 4
        assert clone.resize_relocated == 10

    def test_empty_sink(self):
        summary = TelemetrySink().summary()
        assert summary["requests"] == 0
        assert summary["mean_batch_occupancy"] == 0.0
        assert summary["queue_depth"] == {"mean": 0.0, "max": 0}


class TestServeBenchRecord:
    @pytest.fixture
    def reports(self, generator):
        trace = generator.poisson(2000.0, 40)
        config = ServeConfig(
            timing="modeled", max_batch_size=8, max_wait_ms=2.0, refill="drain"
        )
        micro = replay(trace, config, policy="microbatch")
        anchor = replay(trace, config.replace(max_batch_size=1), policy="batch1")
        return micro, anchor

    def test_record_shape(self, reports):
        micro, anchor = reports
        record = serve_bench_record([micro, anchor])
        assert record.figure == "serve"
        assert record.default_filename == "BENCH_serve.json"
        assert record.datasets == ["tiny-serve"]
        suite = record.suites["serve"]
        assert suite.cpu_time_ms == {"tiny-serve": anchor.makespan_ms}
        speedups = suite.speedups
        assert speedups["batch1"]["tiny-serve"] == 1.0
        expected = anchor.makespan_ms / micro.makespan_ms
        assert speedups["microbatch"]["tiny-serve"] == pytest.approx(expected)
        assert speedups["microbatch"]["GeoMean"] == pytest.approx(expected)
        env = record.environment
        assert env["serve_schema_version"] == SERVE_SCHEMA_VERSION
        assert env["serve"]["microbatch"]["tiny-serve"]["requests"] == 40

    def test_record_round_trips_and_gates(self, reports, tmp_path):
        record = serve_bench_record(list(reports))
        path = record.save(tmp_path / "BENCH_serve.json")
        loaded = BenchRecord.load(path)
        assert loaded.suites["serve"].speedups == record.suites["serve"].speedups
        # The figure-regression gate accepts serve records unchanged.
        report = compare_records(record, loaded, tolerance=0.2)
        assert report.ok

    def test_regression_detected_by_gate(self, reports):
        record = serve_bench_record(list(reports))
        slower = serve_bench_record(list(reports))
        row = slower.suites["serve"].speedups["microbatch"]
        row["tiny-serve"] *= 0.5
        row["GeoMean"] *= 0.5
        report = compare_records(record, slower, tolerance=0.2)
        assert not report.ok
        assert any(f.kernel == "microbatch" for f in report.regressions)

    def test_missing_baseline_raises(self, reports):
        micro, _ = reports
        with pytest.raises(ValueError, match="baseline"):
            serve_bench_record([micro], baseline="batch1")

    def test_duplicate_report_raises(self, reports):
        micro, _ = reports
        with pytest.raises(ValueError, match="duplicate"):
            serve_bench_record([micro, micro], baseline="microbatch")

    def test_empty_reports_raise(self):
        with pytest.raises(ValueError):
            serve_bench_record([])
