"""Telemetry microbenchmark: event fan-out cost with consumers attached.

``event_fanout`` replays a deterministic synthetic event mix — the
publish pattern of one request walking a three-stage chain (spans,
flows, reallocations, transfers, pool churn) — through five
configurations:

``disabled``
    No bus on the environment.  Publishers pay one attribute load and
    an ``is None`` test; events are never constructed.  This is the
    default-path cost every uninstrumented run pays.
``bus``
    A bus with zero subscribers (publish bookkeeping only).
``recorder``
    Bus + :class:`~repro.telemetry.TraceRecorder` +
    :class:`~repro.telemetry.StandardMetrics` — the ``repro trace``
    configuration.
``recorder+profiler``
    The above plus a live
    :class:`~repro.telemetry.profiler.SpanTreeBuilder` — the
    ``repro profile`` configuration.
``spool``
    Bus + bounded :class:`~repro.telemetry.StandardMetrics` + a gzip
    :class:`~repro.telemetry.JsonlEventSink` in a temporary directory —
    the streaming ``capture(sinks=..., metrics_mode="bounded")``
    configuration.  Also reports the spool's encoded and on-disk
    bytes per event.

Each mode reports events/sec, so a regression in the bus fan-out, the
metrics handlers, the profiler's event intake or the spool encoder
shows up directly in ``BENCH_telemetry.json`` (wired into the CI
perf-smoke job, non-gating).
"""

from __future__ import annotations

import os
import platform as _platform
import tempfile
import time
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from repro.bench.netflow import SCHEMA_VERSION
from repro.common.config import mode_metadata
from repro.telemetry.bus import EventBus
from repro.telemetry.events import (
    FlowFinished,
    FlowsReallocated,
    FlowStarted,
    PoolAlloc,
    RequestArrived,
    RequestFinished,
    StageSpan,
    TransferFinished,
    TransferStarted,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiler import SpanTreeBuilder
from repro.telemetry.recorder import StandardMetrics, TraceRecorder
from repro.telemetry.session import TelemetrySession
from repro.telemetry.sinks import JsonlEventSink

MODES = ("disabled", "bus", "recorder", "recorder+profiler", "spool")


def _request_events(index: int, t: float) -> list:
    """The publish mix of one request over a three-stage chain."""
    rid = f"r{index}"
    events: list = [
        RequestArrived(t=t, request_id=rid, workflow="driving"),
    ]
    clock = t
    for stage_index, stage in enumerate(("detect", "track", "plan")):
        flow_id = index * 3 + stage_index
        events.extend([
            FlowStarted(
                t=clock, flow_id=flow_id, tag="gfn-gfn-intra",
                size=16e6, links=("n0.pcie0", "n0.pcie1"),
                src="n0.g0", dst="n0.g1", nominal_bw=12e9, owner=rid,
            ),
            FlowsReallocated(
                t=clock, trigger="start", flow_id=flow_id,
                component=(flow_id,), links=("n0.pcie0", "n0.pcie1"),
                rescheduled=(flow_id,), rates=(12e9,),
            ),
            TransferStarted(
                t=clock, transfer_id=flow_id, tag="gfn-gfn-intra",
                size=16e6, src="n0.g0", dst="n0.g1", num_paths=1,
                owner=rid,
            ),
            PoolAlloc(
                t=clock + 0.001, device_id="n0.g1", size=16e6,
                reserved=3e8, in_use=16e6, grew=False,
                requested_at=clock,
            ),
            StageSpan(
                t=clock + 0.002, request_id=rid, stage=stage,
                kind="get", start=clock, end=clock + 0.002,
                device_id="n0.g1", replica=f"{stage}#0",
            ),
            FlowFinished(
                t=clock + 0.002, flow_id=flow_id, tag="gfn-gfn-intra",
                size=16e6, links=("n0.pcie0", "n0.pcie1"),
                src="n0.g0", dst="n0.g1", started_at=clock, owner=rid,
            ),
            TransferFinished(
                t=clock + 0.002, transfer_id=flow_id,
                tag="gfn-gfn-intra", size=16e6, src="n0.g0",
                dst="n0.g1", started_at=clock, owner=rid,
            ),
            StageSpan(
                t=clock + 0.012, request_id=rid, stage=stage,
                kind="exec", start=clock + 0.002, end=clock + 0.012,
                device_id="n0.g1", replica=f"{stage}#0",
            ),
            StageSpan(
                t=clock + 0.014, request_id=rid, stage=stage,
                kind="put", start=clock + 0.012, end=clock + 0.014,
                device_id="n0.g1", replica=f"{stage}#0",
            ),
        ])
        clock += 0.014
    events.append(RequestFinished(
        t=clock, request_id=rid, workflow="driving",
        latency=clock - t, slo_met=True,
    ))
    return events


class _DisabledEnv:
    """Stand-in for an uninstrumented Environment: telemetry is None."""

    telemetry: Optional[EventBus] = None


def bench_event_fanout(requests: int = 2000) -> dict:
    """Publish the synthetic mix through every mode; report events/sec.

    The ``disabled`` mode measures the real publisher-side guard: the
    event objects are **not** constructed, exactly like production
    publish sites behind ``if bus is not None``.
    """
    batches = [
        _request_events(i, float(i) * 0.05) for i in range(requests)
    ]
    per_request = len(batches[0])
    results: dict[str, dict] = {}

    # disabled: guard-only loop, events never built.
    env = _DisabledEnv()
    start = time.perf_counter()
    for _batch in batches:
        for _ in range(per_request):
            bus = env.telemetry
            if bus is not None:  # pragma: no cover - never taken
                bus.publish(None)
    wall = max(time.perf_counter() - start, 1e-9)
    total = requests * per_request
    results["disabled"] = {
        "events": total,
        "wall_s": wall,
        "events_per_sec": total / wall,
    }

    def _timed(bus: EventBus) -> dict:
        start = time.perf_counter()
        for batch in batches:
            for event in batch:
                bus.publish(event)
        wall = max(time.perf_counter() - start, 1e-9)
        return {
            "events": bus.published,
            "wall_s": wall,
            "events_per_sec": bus.published / wall,
        }

    results["bus"] = _timed(EventBus())

    bus = EventBus()
    recorder = TraceRecorder()
    recorder.attach(bus)
    StandardMetrics(MetricsRegistry()).attach(bus)
    results["recorder"] = _timed(bus)

    bus = EventBus()
    recorder = TraceRecorder()
    recorder.attach(bus)
    StandardMetrics(MetricsRegistry()).attach(bus)
    profiler = SpanTreeBuilder()
    profiler.attach(bus)
    results["recorder+profiler"] = _timed(bus)
    completed = len(profiler.completed)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.jsonl.gz")
        sink = JsonlEventSink(path)
        session = TelemetrySession(sinks=[sink], metrics_mode="bounded")
        results["spool"] = stats = _timed(
            session.attach(SimpleNamespace(telemetry=None))
        )
        session.close()
        stats["encoded_bytes_per_event"] = (
            sink.bytes_written / stats["events"]
        )
        stats["disk_bytes_per_event"] = (
            os.path.getsize(path) / stats["events"]
        )

    baseline = results["disabled"]["events_per_sec"]
    full = results["recorder+profiler"]["events_per_sec"]
    return {
        "name": "event_fanout",
        "config": {"requests": requests, "events_per_request": per_request},
        "modes": results,
        "profiled_requests_completed": completed,
        "overhead_x": baseline / full if full > 0 else float("inf"),
    }


BenchFn = Callable[..., dict]

TELEMETRY_BENCHMARKS: dict[str, tuple[BenchFn, dict, dict]] = {
    # name -> (fn, full-run kwargs, quick-run kwargs)
    "event_fanout": (
        bench_event_fanout,
        {"requests": 2000},
        {"requests": 300},
    ),
}


def run_telemetry_benchmarks(
    quick: bool = False,
    names: Optional[Sequence[str]] = None,
) -> dict:
    """Run the selected benchmarks; returns BENCH_telemetry.json."""
    selected = list(names) if names else list(TELEMETRY_BENCHMARKS)
    unknown = [n for n in selected if n not in TELEMETRY_BENCHMARKS]
    if unknown:
        raise ValueError(
            f"unknown benchmark(s): {', '.join(unknown)}; "
            f"choose from {', '.join(TELEMETRY_BENCHMARKS)}"
        )
    runs: list[dict] = []
    for name in selected:
        fn, full_kwargs, quick_kwargs = TELEMETRY_BENCHMARKS[name]
        kwargs = quick_kwargs if quick else full_kwargs
        runs.append(fn(**kwargs))
    return {
        "schema": SCHEMA_VERSION,
        "generated_by": "repro bench --suite telemetry",
        "mode": "quick" if quick else "full",
        "modes": mode_metadata(),
        "python": _platform.python_version(),
        "benchmarks": runs,
    }


def format_telemetry_summary(document: dict) -> str:
    """Human-readable summary for logs and CI output."""
    lines = [
        f"{'benchmark':<14} {'mode':<20} {'events':>9} {'wall (s)':>9} "
        f"{'events/s':>12}"
    ]
    for run in document["benchmarks"]:
        for mode in MODES:
            stats = run["modes"].get(mode)
            if stats is None:
                continue
            lines.append(
                f"{run['name']:<14} {mode:<20} {stats['events']:>9} "
                f"{stats['wall_s']:>9.3f} {stats['events_per_sec']:>12.0f}"
            )
        lines.append(
            f"{run['name']:<14} {'overhead (x)':<20} "
            f"{run['overhead_x']:>32.1f}"
        )
    return "\n".join(lines)
