"""Spooling a run's telemetry must not change the run, and stays small.

A seeded trace replayed with telemetry off and again under a gzip
:class:`JsonlEventSink` must produce the same per-request results and
take the same flow-network code paths; the spool must decode to every
published event; and the sink's link table must be bounded by the
topology, not by the number of requests.
"""

import pytest

from repro.platform import build_platform
from repro.telemetry import JsonlEventSink, capture, iter_jsonl_events
from repro.traces import stream_trace
from repro.workflow import get_workload

NETWORK_COUNTERS = (
    "flows_started",
    "realloc_count",
    "macro_coalesced",
    "macro_splits",
    "timer_elisions",
    "timer_reschedules",
)


def replay(workflow, preset, nodes, requests, seed):
    platform = build_platform(preset=preset, num_nodes=nodes)
    deployment = platform.deploy(
        get_workload(workflow), seed=seed, replicas=2
    )
    trace = stream_trace(
        "bursty", rate=4.0, duration=1.25 * requests / 4.0 + 120.0,
        seed=seed, limit=requests,
    )
    platform.run_trace_streaming(deployment, trace)
    return platform


def spooled_replay(path, *args):
    sink = JsonlEventSink(path)
    with capture(sinks=[sink], metrics_mode="bounded"):
        platform = replay(*args)
    return platform, sink


class TestObservingChangesNothing:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        args = ("recognition", "dgx-v100", 1, 60, 7)
        path = tmp_path_factory.mktemp("spool") / "events.jsonl.gz"
        plain = replay(*args)
        spooled, _sink = spooled_replay(path, *args)
        return plain, spooled, path

    def test_same_request_results(self, runs):
        plain, spooled, _path = runs
        assert plain.env.telemetry is None
        assert len(plain.results) == 60
        assert spooled.results == plain.results

    def test_same_network_code_paths(self, runs):
        plain, spooled, _path = runs
        for name in NETWORK_COUNTERS:
            assert (getattr(spooled.plane.network, name)
                    == getattr(plain.plane.network, name)), name
        assert plain.plane.network.flows_started > 0

    def test_spool_decodes_every_published_event(self, runs):
        _plain, spooled, path = runs
        published = spooled.env.telemetry.published
        assert published > 0
        assert sum(1 for _ in iter_jsonl_events(path)) == published


def test_link_table_is_bounded_by_topology(tmp_path):
    args = ("video", "dgx-a100", 2)
    small, small_sink = spooled_replay(tmp_path / "a.jsonl", *args, 10, 3)
    large, large_sink = spooled_replay(tmp_path / "b.jsonl", *args, 40, 3)
    assert large.env.telemetry.published > 3 * small.env.telemetry.published
    assert small_sink.interned_links == large_sink.interned_links > 0
    assert large_sink.interned_links <= len(list(large.cluster.all_links()))
