"""Streaming sinks: spool fidelity, replay oracle, crash-safety."""

import gzip
import json
import zlib

import pytest

from repro.common.errors import ConfigError
from repro.dataplane import make_plane
from repro.platform import ServerlessPlatform
from repro.sim import Environment
from repro.telemetry import (
    ChromeStreamingSink,
    JsonlEventSink,
    TelemetrySession,
    capture,
    decode_event,
    encode_event,
    iter_jsonl_events,
    replay_metrics,
)
from repro.telemetry.chrome import convert_event, process_metadata
from repro.telemetry.events import (
    FlowStarted,
    PlacementDecision,
    PoolAlloc,
    StorePut,
)
from repro.telemetry.sinks import SCHEMA, SPOOL_FORMAT, spool_header
from repro.topology import make_cluster
from repro.workflow import get_workload


def make_alloc(t):
    return PoolAlloc(t=t, device_id="n0:g0", size=1.0,
                     reserved=2.0, in_use=1.0, grew=False)


def run_workflow(workload="driving"):
    env = Environment()
    cluster = make_cluster("dgx-v100")
    plane = make_plane("grouter", env, cluster)
    platform = ServerlessPlatform(env, cluster, plane)
    deployment = platform.deploy(get_workload(workload))
    proc = platform.submit(deployment)
    env.run()
    assert proc.ok
    return env, proc.value


@pytest.fixture(scope="module")
def spooled(tmp_path_factory):
    """One real run captured both in memory and through a JSONL sink."""
    path = tmp_path_factory.mktemp("spool") / "events.jsonl"
    sink = JsonlEventSink(path)
    session = TelemetrySession(sinks=[sink], keep_events=True)
    with capture(session=session):
        run_workflow()
    session.close()
    return path, session


class TestEncodeDecode:
    def test_round_trip_is_identity(self):
        event = StorePut(t=1.5, object_id="o1", device_id="n0:g1",
                         size=2048.0, placement="gpu")
        run, decoded = decode_event(
            json.loads(json.dumps(encode_event(3, event)))
        )
        assert run == 3
        assert decoded == event

    def test_nested_tuples_survive_json(self):
        event = PlacementDecision(
            t=0.5, policy="mapa", workflow="wf",
            assignment=(("det", "n0:g0"), ("rec", "n0:g1")),
        )
        _run, decoded = decode_event(
            json.loads(json.dumps(encode_event(0, event)))
        )
        assert decoded == event
        assert isinstance(decoded.assignment[0], tuple)

    def test_unknown_type_raises(self):
        with pytest.raises(ConfigError, match="unknown telemetry event"):
            decode_event([0, len(SCHEMA), 1.0])

    def test_row_is_positional_and_interns_links(self):
        event = FlowStarted(t=0.5, flow_id=7, tag="x", size=8.0,
                            links=("a", "b"), src="g0", dst="g1")
        links = {"b": 0}
        row = encode_event(2, event, links)
        type_id = [name for name, _fields in SCHEMA].index("FlowStarted")
        assert row == [2, type_id, 0.5, 7, "x", 8.0, [1, 0], "g0", "g1",
                       0.0, "", ()]
        assert links == {"b": 0, "a": 1}
        assert decode_event(
            json.loads(json.dumps(row)), links=["b", "a"]
        ) == (2, event)


class TestJsonlSpoolFidelity:
    def test_spool_replays_to_identical_event_stream(self, spooled):
        path, session = spooled
        replayed = list(iter_jsonl_events(path))
        assert len(replayed) == len(session.events) > 0
        for (run_a, ev_a), (run_b, ev_b) in zip(replayed, session.events):
            assert run_a == run_b
            assert ev_a == ev_b

    def test_gzip_spool_replays_identically(self, tmp_path):
        plain = tmp_path / "events.jsonl"
        packed = tmp_path / "events.jsonl.gz"
        session = TelemetrySession(
            sinks=[JsonlEventSink(plain), JsonlEventSink(packed)]
        )
        with capture(session=session):
            run_workflow()
        session.close()
        assert list(iter_jsonl_events(plain)) == list(
            iter_jsonl_events(packed)
        )
        assert packed.stat().st_size < plain.stat().st_size

    def test_replay_reproduces_exact_summary(self, spooled):
        path, session = spooled
        assert replay_metrics(path, mode="exact").summary() == \
            session.metrics.summary()

    def test_replay_reproduces_bounded_summary(self, tmp_path):
        # Reservoir seeds derive from metric names, so a bounded replay
        # of the spool matches a live bounded registry bit-for-bit.
        path = tmp_path / "events.jsonl"
        session = TelemetrySession(
            sinks=[JsonlEventSink(path)], metrics_mode="bounded"
        )
        with capture(session=session):
            run_workflow()
        session.close()
        assert replay_metrics(path, mode="bounded").summary() == \
            session.metrics.summary()

    def test_exact_replay_bounds_bounded_replay(self, spooled):
        # Cross-mode: bounded quantiles stay within the documented rank
        # error of the exact oracle (checked properly per-distribution
        # in tests/metrics/test_approx_recorder.py; this is the
        # integration-level smoke of the same contract).
        path, session = spooled
        exact = session.metrics.summary()
        bounded = replay_metrics(path, mode="bounded").summary()
        assert set(exact) == set(bounded)
        for namespace, metrics in exact.items():
            assert set(metrics) == set(bounded[namespace])
            for short, stats in metrics.items():
                other = bounded[namespace][short]
                assert other["type"] == stats["type"]
                if stats["type"] == "counter":
                    assert other["value"] == stats["value"]
                elif stats["type"] == "histogram":
                    assert other["count"] == stats["count"]


class TestSpoolFormat:
    def write_spool(self, path, header, rows):
        lines = [header, *rows]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))

    def test_header_declares_schema(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with JsonlEventSink(path) as sink:
            sink.handle(0, make_alloc(0.0))
        header = json.loads(path.read_text().splitlines()[0])
        assert header == spool_header()
        assert header["format"] == SPOOL_FORMAT
        assert [name for name, _fields in header["types"]] == [
            name for name, _fields in SCHEMA
        ]

    def test_reader_decodes_through_the_header(self, tmp_path):
        # A spool written under another type order (and declaring a
        # type this build lacks) still decodes, by the header's ids.
        header = spool_header()
        header["types"] = [["FutureEvent", ["t", "x"]]] + list(
            reversed(header["types"])
        )
        ids = {name: index for index, (name, _f) in enumerate(header["types"])}
        event = make_alloc(1.5)
        row = encode_event(4, event)
        row[1] = ids["PoolAlloc"]
        path = tmp_path / "e.jsonl"
        self.write_spool(path, header, [row])
        assert list(iter_jsonl_events(path)) == [(4, event)]

    def test_unknown_declared_type_raises_on_use(self, tmp_path):
        header = spool_header()
        header["types"].append(["NotAnEvent", ["t"]])
        path = tmp_path / "e.jsonl"
        self.write_spool(path, header, [[0, len(header["types"]) - 1, 1.0],
                                        [0, 0, 2.0]])
        with pytest.raises(ConfigError, match="'NotAnEvent'"):
            list(iter_jsonl_events(path))

    def test_spool_without_header_is_rejected(self, tmp_path):
        # The older one-object-per-line format.
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"run":0,"type":"PoolAlloc","t":0.0,"device_id":"n0:g0",'
            '"size":1.0,"reserved":2.0,"in_use":1.0,"grew":false,'
            '"requested_at":0.0}\n'
        )
        with pytest.raises(ConfigError, match=SPOOL_FORMAT):
            list(iter_jsonl_events(path))

    def test_links_are_defined_once_before_first_use(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with JsonlEventSink(path) as sink:
            for i in range(4):
                sink.handle(0, FlowStarted(
                    t=float(i), flow_id=i, tag="t", size=1.0,
                    links=("x", "y") if i % 2 else ("y",), src="a",
                    dst="b"))
            assert sink.interned_links == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        body = lines[1:]  # after the header
        assert [type(line) for line in body] == [
            dict, list, dict, list, list, list
        ]
        assert body[0] == {"links": ["y"]}
        assert body[2] == {"links": ["x"]}
        assert [row[6] for row in body if type(row) is list] == [
            [0], [1, 0], [0], [1, 0]
        ]


class TestBuffering:
    def test_flush_on_event_count(self, tmp_path):
        sink = JsonlEventSink(tmp_path / "e.jsonl", flush_events=3)
        for i in range(2):
            sink.handle(0, make_alloc(float(i)))
        assert sink.backlog == 2
        assert sink.flushes == 0
        sink.handle(0, make_alloc(2.0))
        assert sink.backlog == 0
        assert sink.flushes == 1
        assert sink.records_written == 3
        sink.close()

    def test_flush_on_byte_threshold(self, tmp_path):
        sink = JsonlEventSink(
            tmp_path / "e.jsonl", flush_events=10_000, flush_bytes=16
        )
        sink.handle(0, make_alloc(0.0))
        assert sink.flushes == 1  # one record is already > 16 bytes
        sink.close()

    def test_close_is_idempotent_and_write_after_close_raises(
        self, tmp_path
    ):
        sink = JsonlEventSink(tmp_path / "e.jsonl")
        sink.handle(0, make_alloc(0.0))
        sink.close()
        sink.close()
        assert sink.closed
        with pytest.raises(ConfigError, match="closed"):
            sink.handle(0, make_alloc(1.0))

    def test_invalid_thresholds_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            JsonlEventSink(tmp_path / "e.jsonl", flush_events=0)


class TestCrashSafety:
    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with JsonlEventSink(path) as sink:
            for i in range(5):
                sink.handle(0, make_alloc(float(i)))
        text = path.read_text()
        path.write_text(text[: len(text) - 9])  # kill the last record
        replayed = list(iter_jsonl_events(path))
        assert len(replayed) == 4

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with JsonlEventSink(path) as sink:
            for i in range(5):
                sink.handle(0, make_alloc(float(i)))
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError):
            list(iter_jsonl_events(path))

    @pytest.mark.parametrize("name", ["e.jsonl", "e.jsonl.gz"])
    def test_flushed_but_unclosed_spool_replays_flushed_events(
        self, tmp_path, name
    ):
        # The bytes on disk when a writer dies without close(): whole
        # flushes only, and for gzip no end-of-stream marker or trailer.
        path = tmp_path / name
        sink = JsonlEventSink(path, flush_events=2)
        for i in range(5):
            sink.handle(0, make_alloc(float(i)))
        crashed = tmp_path / ("crashed-" + name)
        crashed.write_bytes(path.read_bytes())
        sink.close()
        replayed = list(iter_jsonl_events(crashed))
        assert [event.t for _run, event in replayed] == [0.0, 1.0, 2.0, 3.0]

    def test_unclosed_spool_without_events_is_empty(self, tmp_path):
        path = tmp_path / "e.jsonl.gz"
        sink = JsonlEventSink(path)  # the header is flushed on open
        crashed = tmp_path / "crashed.jsonl.gz"
        crashed.write_bytes(path.read_bytes())
        sink.close()
        assert list(iter_jsonl_events(crashed)) == []

    def test_gzip_corruption_mid_file_raises(self, tmp_path):
        path = tmp_path / "e.jsonl.gz"
        with JsonlEventSink(path, flush_events=8) as sink:
            for i in range(200):
                sink.handle(0, make_alloc(float(i)))
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises((zlib.error, gzip.BadGzipFile, ValueError)):
            list(iter_jsonl_events(path))

    def test_every_truncation_decodes_to_a_prefix(self, tmp_path):
        # Link-table lines precede the first row that uses their ids, so
        # cutting the file anywhere never orphans a reference.
        path = tmp_path / "e.jsonl"
        events = [
            FlowStarted(t=float(i), flow_id=i, tag="t", size=1.0,
                        links=(f"l{i % 3}", f"l{i % 5}"), src="a", dst="b")
            for i in range(8)
        ]
        with JsonlEventSink(path) as sink:
            for event in events:
                sink.handle(0, event)
        data = path.read_bytes()
        cut = tmp_path / "cut.jsonl"
        for size in range(len(data) + 1):
            cut.write_bytes(data[:size])
            replayed = [event for _run, event in iter_jsonl_events(cut)]
            assert replayed == events[: len(replayed)]
        assert replayed == events

    def test_unclosed_chrome_spool_is_loadable(self, tmp_path):
        # The Array Format contract: viewers accept a missing `]`, so
        # appending one must yield valid JSON even without close().
        path = tmp_path / "trace.json"
        sink = ChromeStreamingSink(path)
        with capture(sinks=[sink]) as session:
            run_workflow()
        # capture() closed the sink; simulate the crashed variant too.
        crashed = tmp_path / "crashed.json"
        sink2 = ChromeStreamingSink(crashed)
        sink2.handle(0, make_alloc(0.0))
        sink2.flush()  # process dies here: no terminator written
        body = crashed.read_text().rstrip().rstrip(",")
        events = json.loads(body + "]")
        assert events
        assert session.run_count == 1


class TestChromeStreaming:
    def test_streamed_trace_is_valid_and_named(self, tmp_path):
        path = tmp_path / "trace.json"
        with capture(sinks=[ChromeStreamingSink(path)]):
            run_workflow()
        doc = json.loads(path.read_text())
        phases = {record["ph"] for record in doc}
        assert "M" in phases  # process_name metadata finalized
        pids = {r["pid"] for r in doc if r["ph"] != "M"}
        assert all(pid.startswith("run0:") for pid in pids)

    def test_stream_bytes_match_json_dumps(self, tmp_path):
        path = tmp_path / "trace.json"
        session = TelemetrySession(
            sinks=[ChromeStreamingSink(path)], keep_events=True
        )
        with capture(session=session):
            run_workflow()
        session.close()
        records = [
            record
            for run, event in session.events
            for record in convert_event(event, f"run{run}:")
        ]
        records += process_metadata({r["pid"] for r in records})
        expected = "[\n" + ",\n".join(
            json.dumps(record, separators=(",", ":")) for record in records
        ) + "\n]\n"
        assert path.read_text() == expected

    def test_single_run_mode_matches_batch_exporter_pids(self, tmp_path):
        path = tmp_path / "trace.json"
        with capture(sinks=[ChromeStreamingSink(path, multi_run=False)]):
            run_workflow()
        doc = json.loads(path.read_text())
        assert not any(
            r["pid"].startswith("run0:") for r in doc if r["ph"] != "M"
        )


class TestSessionStreaming:
    def test_streaming_session_drops_in_memory_events(self, tmp_path):
        sink = JsonlEventSink(tmp_path / "e.jsonl")
        with capture(sinks=[sink]) as session:
            run_workflow()
        assert session.events == []
        assert session.events_seen == sink.events_handled > 0

    def test_streaming_session_refuses_batch_export(self, tmp_path):
        with capture(sinks=[JsonlEventSink(tmp_path / "e.jsonl")]) as s:
            run_workflow()
        with pytest.raises(ConfigError, match="streamed its events"):
            s.export_chrome_trace()

    def test_capture_closes_own_sinks_on_crash(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sink = JsonlEventSink(path)
        with pytest.raises(RuntimeError, match="boom"):
            with capture(sinks=[sink]):
                run_workflow()
                raise RuntimeError("boom")
        assert sink.closed
        assert list(iter_jsonl_events(path))  # fully flushed

    def test_caller_owned_session_is_flushed_not_closed(self, tmp_path):
        sink = JsonlEventSink(tmp_path / "e.jsonl")
        session = TelemetrySession(sinks=[sink])
        with capture(session=session):
            run_workflow()
        assert not sink.closed
        assert sink.backlog == 0
        session.close()

    def test_session_and_sink_kwargs_are_exclusive(self, tmp_path):
        session = TelemetrySession()
        with pytest.raises(ConfigError, match="not both"):
            with capture(session=session,
                         sinks=[JsonlEventSink(tmp_path / "e.jsonl")]):
                pass


class TestGaugeClampUnderStreaming:
    def test_multi_run_replay_keeps_clock_restart_clamped(self, tmp_path):
        # Two runs in one spool: the second run's timestamps restart at
        # zero, so the replaying registry's gauges see time go backwards
        # at the run boundary — the clamp must hold exactly as it does
        # live (tests/telemetry/test_metrics_registry.py).
        path = tmp_path / "e.jsonl"
        session = TelemetrySession(
            sinks=[JsonlEventSink(path)], keep_events=True
        )
        with capture(session=session):
            run_workflow()
            run_workflow()
        session.close()
        replayed = replay_metrics(path, mode="exact")
        saw_gauge = False
        for name in replayed.names():
            metric = replayed.get(name)
            timeline = getattr(metric, "timeline", None)
            if timeline is None:
                continue
            saw_gauge = True
            assert timeline.times == sorted(timeline.times), name
        assert saw_gauge
        assert replayed.summary() == session.metrics.summary()
