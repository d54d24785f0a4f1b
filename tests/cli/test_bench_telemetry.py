"""Tests for the telemetry benchmark suite and its CLI wiring."""

import json

import pytest

from repro.bench import (
    TELEMETRY_BENCHMARKS,
    bench_event_fanout,
    format_telemetry_summary,
    run_telemetry_benchmarks,
)
from repro.bench.telemetry import MODES
from repro.cli import main


@pytest.fixture(scope="module")
def quick_document():
    return run_telemetry_benchmarks(quick=True)


class TestTelemetryBenchLibrary:
    def test_registry_names(self):
        assert set(TELEMETRY_BENCHMARKS) == {"event_fanout"}

    def test_document_shape(self, quick_document):
        doc = quick_document
        assert doc["generated_by"] == "repro bench --suite telemetry"
        assert doc["mode"] == "quick"
        run = doc["benchmarks"][0]
        assert run["name"] == "event_fanout"
        assert set(run["modes"]) == set(MODES)
        for stats in run["modes"].values():
            assert stats["events"] > 0
            assert stats["events_per_sec"] > 0

    def test_profiler_actually_profiled_the_stream(self, quick_document):
        run = quick_document["benchmarks"][0]
        assert (
            run["profiled_requests_completed"]
            == run["config"]["requests"]
        )

    def test_overhead_is_relative_to_disabled(self, quick_document):
        run = quick_document["benchmarks"][0]
        modes = run["modes"]
        assert run["overhead_x"] == pytest.approx(
            modes["disabled"]["events_per_sec"]
            / modes["recorder+profiler"]["events_per_sec"]
        )

    def test_spool_mode_reports_bytes_per_event(self, quick_document):
        spool = quick_document["benchmarks"][0]["modes"]["spool"]
        assert spool["encoded_bytes_per_event"] > (
            spool["disk_bytes_per_event"]
        ) > 0

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_telemetry_benchmarks(names=["nope"])

    def test_summary_lists_every_mode(self, quick_document):
        summary = format_telemetry_summary(quick_document)
        for mode in MODES:
            assert mode in summary
        assert "overhead" in summary

    def test_event_mix_is_deterministic(self):
        first = bench_event_fanout(requests=10)
        second = bench_event_fanout(requests=10)
        assert (
            first["config"]["events_per_request"]
            == second["config"]["events_per_request"]
        )
        assert first["modes"]["bus"]["events"] == (
            second["modes"]["bus"]["events"]
        )


class TestTelemetryBenchCommand:
    def test_writes_results_file(self, tmp_path, capsys):
        out = tmp_path / "BENCH_telemetry.json"
        code = main([
            "bench", "--suite", "telemetry", "--quick",
            "--out", str(out),
        ])
        assert code == 0
        with open(out) as handle:
            doc = json.load(handle)
        assert doc["benchmarks"][0]["name"] == "event_fanout"
        assert "event_fanout" in capsys.readouterr().out

    def test_parser_accepts_suite(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["bench", "--suite", "telemetry", "--quick"]
        )
        assert args.suite == "telemetry"

    def test_allocators_flag_rejected(self, tmp_path, capsys):
        code = main([
            "bench", "--suite", "telemetry", "--quick",
            "--allocators", "legacy",
            "--out", str(tmp_path / "b.json"),
        ])
        assert code == 2
        assert "allocators" in capsys.readouterr().err
