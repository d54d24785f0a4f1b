"""One replay process of the benchmark.

Usage (the runner starts it; the simulator sources come from ``--src``)::

    python3 e2ebench/worker.py --src SRC --spec JSON

The spec names a workload and a list of jobs, each one trace replay::

    {"workload": "rec-v100", "inject": null, "jobs": [
        {"role": "check", "seed": 1, "requests": 10,
         "telemetry": "off", "ledger": false, "calibrate": false}, ...]}

The worker imports the simulator, builds and deploys the first job's
platform and prints ``READY`` (the runner times set-up up to that
line), then replays every job in order and prints one JSON line with a
record per job.  A job with ``"ledger": true`` runs under the layer
ledger; one with ``"calibrate": true`` is also timed at reference
machine speed.  ``inject`` ("perturb" or "drop") plants a fault in the
first job so the runner's checks can be shown to catch it.  A spec with
``"setup_only": true`` is a set-up probe: the worker exits after
``READY`` and prints nothing more.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import sys
import time
from contextlib import ExitStack
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / ".work"


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--spec", required=True)
    return parser.parse_args(argv)


def _status_bytes(field: str) -> int:
    """A memory field of /proc/self/status (``VmRSS``, ``VmHWM``)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"{field} missing from /proc/self/status")


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _quantile(values, pct: int) -> float:
    """The *pct*-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


class ResultFold:
    """Result sink: digests and samples every completed request."""

    def __init__(self, inject=None, calibrator=None) -> None:
        self.inject = inject
        self.calibrator = calibrator
        self.hash = hashlib.sha256()
        self.completed = 0
        self.insane = 0
        self.latencies: list[float] = []
        self.data_times: list[float] = []
        self.get_times: list[float] = []
        self.queued_times: list[float] = []

    def __call__(self, result) -> None:
        if self.calibrator is not None:
            self.calibrator.tick()
        if self.inject == "drop":
            self.inject = None
            return  # a lost request
        finished = result.finished_at
        if self.inject == "perturb":
            self.inject = None
            finished += 1e-9
        latency = finished - result.arrived_at
        self.completed += 1
        self.latencies.append(latency)
        self.data_times.append(result.data_time)
        sane = latency > 0.0
        stages = []
        for name in sorted(result.stage_records):
            rec = result.stage_records[name]
            self.get_times.append(rec.get_time)
            self.queued_times.append(rec.queued_time)
            times = (rec.get_time, rec.compute_time, rec.put_time,
                     rec.queued_time, rec.egress_time)
            # Parallel stages overlap, but each stage runs its own
            # phases one after another inside the request's lifetime.
            sane = sane and min(times) >= 0.0 and sum(times) <= latency + 1e-9
            stages.append((name,) + times)
        if not sane:
            self.insane += 1
        self.hash.update(repr((
            result.request_id, result.arrived_at, finished,
            tuple(stages), tuple(result.skipped_stages),
        )).encode())


class Replay:
    """One job: a platform deployed on a trace, replayed once."""

    def __init__(self, workload: dict, job: dict, inject=None,
                 ledger=None, calibrator=None) -> None:
        from repro.platform import build_platform
        from repro.telemetry import JsonlEventSink, capture
        from repro.traces import stream_trace
        from repro.workflow import get_workload

        self.job = job
        self.ledger = ledger
        self.calibrator = calibrator if job["calibrate"] else None
        self.fold = ResultFold(inject, self.calibrator)
        self._stack = ExitStack()
        self.sink = None
        self.spool_path = None
        if job["telemetry"] == "spool":
            WORK_DIR.mkdir(exist_ok=True)
            self.spool_path = WORK_DIR / (
                f"events-{os.getpid()}-{job['role']}.jsonl.gz"
            )
            self.sink = JsonlEventSink(str(self.spool_path))
            self._stack.enter_context(
                capture(sinks=[self.sink], metrics_mode="bounded")
            )
        requests = job["requests"]
        rate = workload["rate"]
        self.trace = stream_trace(
            "bursty",
            rate=rate,
            duration=1.25 * requests / rate + 120.0,
            seed=job["seed"],
            limit=requests,
        )
        self.platform = build_platform(
            preset=workload["preset"],
            num_nodes=workload["nodes"],
            plane_name="grouter",
            result_sink=self.fold if ledger is None else ledger.harness(
                self.fold.__call__
            ),
            keep_results=False,
        )
        self.deployment = self.platform.deploy(
            get_workload(workload["workflow"]),
            seed=job["seed"],
            replicas=workload["replicas"],
        )

    def run(self) -> dict:
        from repro.dataplane.base import CAT_GFN_GFN_CROSS

        ledger = self.ledger
        plat = self.platform
        bus = plat.env.telemetry
        calibrator = self.calibrator
        speed_s = None
        if calibrator is not None:
            calibrator.begin()
        start = time.perf_counter()
        if ledger is not None:
            with ledger.replay():
                submitted = plat.run_trace_streaming(
                    self.deployment, self.trace
                )
                self._stack.close()
        else:
            submitted = plat.run_trace_streaming(self.deployment, self.trace)
            self._stack.close()  # flushes and closes the spool
        wall = time.perf_counter() - start
        if calibrator is not None:
            wall, speed_s = calibrator.end()

        fold = self.fold
        network = plat.plane.network
        metrics = plat.plane.metrics
        record = {
            "role": self.job["role"],
            "telemetry": self.job["telemetry"],
            "ledger": ledger is not None,
            "seed": self.job["seed"],
            "wall_s": wall,
            "speed_s": speed_s,
            "submitted": submitted,
            "completed": fold.completed,
            "platform_completed": plat.completed_count,
            "rejected": plat.rejection_count,
            "insane": fold.insane,
            "digest": fold.hash.hexdigest(),
            "bus": bus is not None,
            "events_published": bus.published if bus is not None else 0,
            "cross_node_bytes": metrics.bytes_moved(CAT_GFN_GFN_CROSS),
            "sim": {
                "latency_mean_ms": _mean(fold.latencies) * 1e3,
                "latency_p99_ms": _quantile(fold.latencies, 99) * 1e3,
                "data_ms_mean": _mean(fold.data_times) * 1e3,
                "get_ms_mean": _mean(fold.get_times) * 1e3,
                "get_ms_p99": _quantile(fold.get_times, 99) * 1e3,
                "queue_ms_p99": _quantile(fold.queued_times, 99) * 1e3,
            },
            "counts": {
                "flows_started": network.flows_started,
                "realloc_count": network.realloc_count,
                "cache_hits": network.cache_hits,
                "cache_rebuilds": network.cache_rebuilds,
                "macro_coalesced": network.macro_coalesced,
                "macro_splits": network.macro_splits,
                "timer_elisions": network.timer_elisions,
                "timer_reschedules": network.timer_reschedules,
                "puts": metrics.puts,
                "gets": metrics.gets,
                "copies": metrics.copies,
                "bytes_moved": metrics.bytes_moved(),
            },
        }
        if self.sink is not None:
            from repro.telemetry import iter_jsonl_events

            record["spool_bytes"] = self.sink.bytes_written
            record["spool_events_decoded"] = sum(
                1 for _ in iter_jsonl_events(str(self.spool_path))
            )
            self.spool_path.unlink()
        return record


def _ledger_record(ledger) -> dict:
    """Per-layer self times and the exact work counts of a traced replay."""
    routing = "repro.routing"
    return {
        "wall_s": ledger.wall_s,
        "self_s": ledger.layer_self_s(),
        "calls": {
            "sim_steps": ledger.calls("repro.sim.core:Environment.step"),
            "publish": ledger.calls("repro.telemetry.bus:EventBus.publish"),
            "reservation": ledger.calls(
                "repro.memory.elastic:FunctionHistogram.reservation"
            ),
            "pool_alloc": ledger.calls("repro.memory.pool:MemoryPool.alloc"),
            "host_store": ledger.calls("repro.storage.stores:HostStore.store"),
            "ingress_put": ledger.calls(
                "repro.dataplane.base:DataPlane.ingress_put"
            ),
            "route_decisions": sum(
                ledger.entries(f"{routing}.{fn}")
                for fn in (
                    "nvlink:select_parallel_nvlink_paths",
                    "nvlink:best_single_nvlink_path",
                    "harvest:select_pcie_routes",
                    "harvest:select_nic_routes",
                    "harvest:parallel_nic_paths",
                )
            ),
            "nic_decisions": sum(
                ledger.entries(f"{routing}.harvest:{fn}")
                for fn in ("select_nic_routes", "parallel_nic_paths")
            ),
        },
        "rows": ledger.rows()[:40],
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = Path(args.src).resolve()
    spec = json.loads(args.spec)
    sys.path.insert(0, str(src))
    calibrator = None
    calibrator_bytes = 0
    if any(job["calibrate"] for job in spec["jobs"]):
        from calibrate import Calibrator

        # Built before the simulator exists and frozen, so the replay's
        # garbage collector never walks it; its resident objects are not
        # the replay's memory.
        before = _status_bytes("VmRSS")
        calibrator = Calibrator()
        gc.freeze()
        calibrator_bytes = _status_bytes("VmRSS") - before
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    jobs = spec["jobs"]
    if jobs[0]["ledger"] or jobs[0]["calibrate"]:
        raise ValueError("the first job is built before READY, outside "
                         "the ledger and the calibrator")
    inject = spec.get("inject")
    replay = Replay(workload, jobs[0], inject)
    print("READY", flush=True)
    if spec.get("setup_only"):
        return 0

    records = []
    for index, job in enumerate(jobs):
        ledger = None
        if job["ledger"]:
            from ledger import Ledger

            # Wrap before building so every object sees the wrappers.
            ledger = Ledger()
            ledger.install()
        if index:
            replay = Replay(workload, job, ledger=ledger,
                            calibrator=calibrator)
        try:
            record = replay.run()
        finally:
            if ledger is not None:
                ledger.uninstall()
        if ledger is not None:
            record["layers"] = _ledger_record(ledger)
        records.append(record)
        del replay
    print(json.dumps({
        "records": records,
        "peak_rss_bytes": _status_bytes("VmHWM") - calibrator_bytes,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
