"""Repo benchmark: seeded GROUTER trace replays, end to end and per layer.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload rec-v100 --seed 1 --seconds 20 --trace 0

``--trace 0`` replays the workload's 1000-request main trace in fresh
worker processes until about ``--seconds`` of replay time is measured,
with set-up probe processes spread between them, and prints the
end-to-end metrics.  ``--trace 1`` replays a shorter trace untraced and
then under the outside-in layer ledger (see ``ledger.py``) and prints
the per-layer metrics.  Both check the simulated results; the last line
of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every check passed.  See README.md for
the workloads, the checks and the noise note.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from ledger import LAYER_NAMES, UNATTRIBUTED  # noqa: E402
from workloads import (  # noqa: E402
    CHECK_REQUESTS, CHECK_SEED, SIZES, TINY_SIZES, WORKLOADS, derive_seed,
)

# Check-trace digest per workload, written by reference.py.
REFERENCE_FILE = HERE / "reference.json"

# A worker that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 120.0
# No new replay starts after this much wall time, whatever --seconds says.
RUN_DEADLINE_S = 90.0
# Set-up probes per untraced run, at least, and per gap between replays.
MIN_PROBES = 12
PROBES_PER_GAP = 3


class WorkerError(RuntimeError):
    pass


def _job(role: str, seed: int, requests: int, telemetry: str) -> dict:
    return {"role": role, "seed": seed, "requests": requests,
            "telemetry": telemetry, "ledger": False, "calibrate": False}


def run_worker(workload: str, jobs: list[dict], inject=None,
               setup_only: bool = False) -> dict:
    """Start one worker process; returns its report plus ``setup_s``.

    ``setup_s`` is the wall time from starting the interpreter to the
    worker's ``READY`` line: imports, ``build_platform`` and ``deploy``.
    Jobs marked ``calibrate`` are also timed at reference machine
    speed (``speed_s``, see calibrate.py).  A ``setup_only`` worker
    exits at ``READY`` and replays nothing.
    """
    spec = json.dumps({"workload": workload, "jobs": jobs, "inject": inject,
                       "setup_only": setup_only})
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
         "--spec", spec],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            raise WorkerError(f"worker did not get ready: {ready!r}")
        out, _err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        if setup_only:
            out = json.dumps({"records": [], "peak_rss_bytes": 0})
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("worker timed out") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = setup_s
    return report


# -- checks ----------------------------------------------------------------

class Checks:
    """Named pass/fail checks; a failed check taints the jobs it covers."""

    def __init__(self) -> None:
        self.results: dict[str, bool] = {}
        self.tainted: set[int] = set()

    def add(self, name: str, ok: bool, records=()) -> None:
        self.results[name] = self.results.get(name, True) and bool(ok)
        if not ok:
            self.tainted.update(id(record) for record in records)
            print(f"check failed: {name}", file=sys.stderr)

    @property
    def ok(self) -> bool:
        return all(self.results.values())


def check_records(checks: Checks, name: str, records: list[dict]) -> None:
    """Checks every run makes on its replays, whatever the mode."""
    workload = WORKLOADS[name]
    reference = json.loads(REFERENCE_FILE.read_text())[name]
    for rec in records:
        tag = f"{rec['role']}/{rec['telemetry']}"
        checks.add(
            "submitted == completed + rejected",
            rec["submitted"] == rec["completed"] + rec["rejected"]
            and rec["completed"] == rec["platform_completed"],
            [rec],
        )
        checks.add("results are physically sane", rec["insane"] == 0, [rec])
        if rec["telemetry"] == "off":
            # No event bus is attached, so nothing can be published.
            checks.add(f"{tag}: publishes no telemetry",
                       not rec["bus"] and rec["events_published"] == 0, [rec])
        else:
            checks.add(
                f"{tag}: spool decodes to every published event",
                rec["events_published"] > 0
                and rec["spool_events_decoded"] == rec["events_published"],
                [rec],
            )
        if not workload["cross_node"]:
            checks.add(f"{tag}: no cross-node transfer",
                       rec["cross_node_bytes"] == 0, [rec])
        else:
            checks.add(f"{tag}: cross-node transfers happen",
                       rec["cross_node_bytes"] > 0, [rec])
        if rec["role"] == "check":
            # Recorded without telemetry, so this also shows that
            # observing a run does not change it.
            checks.add("check trace matches reference.json",
                       rec["digest"] == reference, [rec])
    by_role: dict[str, list[dict]] = {}
    for rec in records:
        by_role.setdefault(rec["role"], []).append(rec)
    for role, group in by_role.items():
        # Same seed in every process (and with or without telemetry or
        # the ledger attached): the simulated results must be identical.
        checks.add(f"{role} digests agree across processes",
                   len({rec["digest"] for rec in group}) == 1, group)


def check_ledger(checks: Checks, name: str, traced: list[dict]) -> None:
    workload = WORKLOADS[name]
    for rec in traced:
        layers = rec["layers"]
        total = sum(layers["self_s"].values())
        checks.add("layer self times sum to the traced wall time",
                   abs(total - layers["wall_s"]) <= 1e-6 * layers["wall_s"],
                   [rec])
        calls = layers["calls"]
        if rec["telemetry"] == "off":
            checks.add("traced: publishes no telemetry",
                       calls["publish"] == 0, [rec])
        if workload["cross_node"]:
            checks.add("traced: makes NIC route decisions",
                       calls["nic_decisions"] > 0, [rec])
        else:
            checks.add("traced: makes no NIC route decisions",
                       calls["nic_decisions"] == 0, [rec])
    checks.add("traced counts repeat exactly",
               len({json.dumps([r["layers"]["calls"], r["counts"]])
                    for r in traced}) == 1, traced)


# -- metrics ---------------------------------------------------------------

def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end_metrics(mains: list[dict], probes: list[float],
                       rss: list[int]) -> dict:
    """Host times are at reference machine speed (see calibrate.py)."""
    completed = sum(rec["completed"] for rec in mains)
    wall = sum(rec["wall_s"] for rec in mains)
    # Reference seconds per host second, from every kernel call of the run.
    speed = sum(rec["speed_s"] for rec in mains) / wall
    # The fastest probe: a slow phase of the machine only ever adds time,
    # and one that outlasts the run is what ``speed`` takes out.
    setup = min(probes)
    print(f"uncalibrated req/s {completed / wall:.2f} "
          f"setup_s {setup:.4f}", file=sys.stderr)
    sim = mains[0]["sim"]
    return {
        "req_per_s": _metric(completed / (wall * speed), "1/s"),
        "setup_s": _metric(setup * speed, "s"),
        "peak_rss_mb": _metric(statistics.median(rss) / 1e6, "MB"),
        "sim_latency_mean_ms": _metric(sim["latency_mean_ms"], "ms"),
        "sim_latency_p99_ms": _metric(sim["latency_p99_ms"], "ms"),
        "sim_data_ms_mean": _metric(sim["data_ms_mean"], "ms"),
    }


def per_layer_metrics(traced: list[dict], untraced_wall: float) -> dict:
    n = sum(rec["completed"] for rec in traced)
    first = traced[0]
    per = first["completed"]  # counts repeat exactly across replays
    calls = first["layers"]["calls"]
    counts = first["counts"]
    self_s = {layer: 0.0 for layer in LAYER_NAMES + (UNATTRIBUTED,)}
    wall = 0.0
    for rec in traced:
        wall += rec["layers"]["wall_s"]
        for layer, seconds in rec["layers"]["self_s"].items():
            self_s[layer] += seconds
    runs = len(traced)

    def ms_per_req(seconds: float) -> float:
        return seconds * 1e3 / n

    def us_per(layer: str, count: int) -> float:
        return _ratio(self_s[layer] * 1e6, count * runs)

    metrics = {
        f"{layer}.self_ms_per_req": _metric(ms_per_req(self_s[layer]), "ms")
        for layer in LAYER_NAMES
    }
    lookups = counts["cache_hits"] + counts["cache_rebuilds"]
    timers = counts["timer_elisions"] + counts["timer_reschedules"]
    host_puts = calls["host_store"] - calls["ingress_put"]
    per_req = {
        "sim.events_per_req": calls["sim_steps"],
        "net.flows_per_req": counts["flows_started"],
        "net.reallocs_per_req": counts["realloc_count"],
        "net.fastpath_lookups_per_req": lookups,
        "net.macro_coalesced_per_req": counts["macro_coalesced"],
        "net.timer_decisions_per_req": timers,
        "routing.decisions_per_req": calls["route_decisions"],
        "routing.nic_decisions_per_req": calls["nic_decisions"],
        "memory.predictor_calls_per_req": calls["reservation"],
        "memory.pool_allocs_per_req": calls["pool_alloc"],
        "storage.puts_per_req": counts["puts"],
        "dataplane.copies_per_req": counts["copies"],
        "telemetry.events_per_req": calls["publish"],
    }
    for name, count in per_req.items():
        metrics[name] = _metric(count / per, "count/req")
    metrics.update({
        "sim.us_per_event": _metric(us_per("sim", calls["sim_steps"]), "us"),
        "net.fastpath_hit_ratio": _metric(
            _ratio(counts["cache_hits"], lookups), "ratio"),
        "net.macro_split_ratio": _metric(
            _ratio(counts["macro_splits"], counts["macro_coalesced"]),
            "ratio"),
        "net.timer_elision_ratio": _metric(
            _ratio(counts["timer_elisions"], timers), "ratio"),
        "routing.us_per_decision": _metric(
            us_per("routing", calls["route_decisions"]), "us"),
        "storage.host_spill_ratio": _metric(
            _ratio(host_puts, counts["puts"]), "ratio"),
        "dataplane.gb_per_req": _metric(
            counts["bytes_moved"] / 1e9 / per, "GB"),
        "dataplane.get_ms_mean": _metric(first["sim"]["get_ms_mean"], "ms"),
        "dataplane.get_ms_p99": _metric(first["sim"]["get_ms_p99"], "ms"),
        "platform.queue_ms_p99": _metric(first["sim"]["queue_ms_p99"], "ms"),
        "platform.rejected_ratio": _metric(
            _ratio(first["rejected"], first["submitted"]), "ratio"),
        "platform.submitted_per_replay": _metric(
            first["submitted"], "count"),
        "telemetry.us_per_event": _metric(
            us_per("telemetry", calls["publish"]), "us"),
        "telemetry.spool_bytes_per_req": _metric(
            first.get("spool_bytes", 0) / per, "B"),
        "trace.unattributed_ms_per_req": _metric(
            ms_per_req(self_s[UNATTRIBUTED]), "ms"),
        "trace.traced_ms_per_req": _metric(ms_per_req(wall), "ms"),
        "trace.overhead_ratio": _metric(wall / untraced_wall, "ratio"),
    })
    return metrics


# -- runs ------------------------------------------------------------------

def untraced_run(name: str, seed: int, seconds: float, inject, sizes):
    """Main-trace replays interleaved with set-up probes."""
    telemetry = WORKLOADS[name]["telemetry"]
    check = _job("check", CHECK_SEED, CHECK_REQUESTS, telemetry)
    main = _job("main", derive_seed(seed, "main"), sizes["main"], telemetry)
    started = time.perf_counter()
    probes: list[float] = []
    records: list[dict] = []
    mains: list[dict] = []
    rss: list[int] = []

    def probe(replay_check: bool = False) -> None:
        report = run_worker(name, [check], setup_only=not replay_check)
        probes.append(report["setup_s"])
        records.extend(report["records"])

    # The first and the last probe also replay the check trace, so it
    # runs in at least three processes of every run.
    probe(replay_check=True)
    for _ in range(PROBES_PER_GAP - 1):
        probe()
    while True:
        report = run_worker(name, [check, dict(main, calibrate=True)],
                            inject if not mains else None)
        records.extend(report["records"])
        mains.append(report["records"][-1])
        rss.append(report["peak_rss_bytes"])
        for _ in range(PROBES_PER_GAP):
            probe()
        measured = sum(rec["wall_s"] for rec in mains)
        # Stop once another replay would overshoot more than it fills.
        if measured + mains[-1]["wall_s"] / 2 >= seconds:
            break
        if time.perf_counter() - started > RUN_DEADLINE_S:
            break
    while len(probes) < MIN_PROBES - 1:
        probe()
    probe(replay_check=True)

    checks = Checks()
    check_records(checks, name, records)
    metrics = end_to_end_metrics(mains, probes, rss)
    return checks, records, metrics, None


def traced_run(name: str, seed: int, seconds: float, inject, sizes):
    """Untraced/traced pairs of one trace; the ledger gives layer costs."""
    telemetry = WORKLOADS[name]["telemetry"]
    check = _job("check", CHECK_SEED, CHECK_REQUESTS, telemetry)
    traced = _job("traced", derive_seed(seed, "traced"), sizes["traced"],
                  telemetry)
    jobs = [check, traced, dict(traced, ledger=True)]
    started = time.perf_counter()
    records: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    # The same traces without telemetry: observing a run must not change
    # it, so their digests must equal the spooled replays'.
    reference = [dict(check, telemetry="off")]
    if telemetry != "off":
        reference.append(dict(traced, telemetry="off"))
    records.extend(run_worker(name, reference)["records"])
    while True:
        report = run_worker(name, jobs, inject if not pairs else None)
        records.extend(report["records"])
        pairs.append((report["records"][1], report["records"][2]))
        measured = sum(a["wall_s"] + b["wall_s"] for a, b in pairs)
        last = pairs[-1][0]["wall_s"] + pairs[-1][1]["wall_s"]
        if measured + last / 2 >= seconds:
            break
        if time.perf_counter() - started > RUN_DEADLINE_S:
            break

    traced = [b for _a, b in pairs]
    checks = Checks()
    check_records(checks, name, records)
    check_ledger(checks, name, traced)
    untraced_wall = sum(a["wall_s"] for a, _b in pairs)
    metrics = per_layer_metrics(traced, untraced_wall)
    rows = {}
    for rec in traced:
        for row in rec["layers"]["rows"]:
            total = rows.setdefault(row["fn"], dict(row, calls=0, self_ms=0.0,
                                                    entries=0))
            for key in ("calls", "self_ms", "entries"):
                total[key] += row[key]
    ledger_doc = {
        "workload": name,
        "seed": seed,
        "replays": len(traced),
        "self_ms": {k: v["value"] for k, v in metrics.items()
                    if k.endswith(".self_ms_per_req")},
        "functions": sorted(rows.values(), key=lambda r: -r["self_ms"]),
    }
    return checks, records, metrics, ledger_doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject", choices=("perturb", "drop"), default=None,
        help="plant a fault in the first replay (self-test of the checks)",
    )
    parser.add_argument(
        "--tiny", action="store_true",
        help="toy trace sizes (self-test); metrics are not comparable",
    )
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    if not (SRC / "repro" / "platform" / "platform.py").is_file():
        print(f"simulator sources not found under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2

    run = traced_run if args.trace else untraced_run
    try:
        checks, records, metrics, ledger_doc = run(
            args.workload, args.seed, args.seconds, args.inject,
            TINY_SIZES if args.tiny else SIZES,
        )
    except WorkerError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3
    if ledger_doc is not None:
        out = HERE / ".work"
        out.mkdir(exist_ok=True)
        path = out / f"ledger-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(ledger_doc, indent=1) + "\n")

    attempted = sum(rec["submitted"] for rec in records)
    failed = sum(
        rec["submitted"] if id(rec) in checks.tainted
        else rec["submitted"] - rec["completed"]
        for rec in records
    )
    print(json.dumps({
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
