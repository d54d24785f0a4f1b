"""Workload table and seed derivation shared by the runner and its workers.

Every workload replays a seeded Azure-style bursty trace on the grouter
plane through the public API (``build_platform`` -> ``deploy`` ->
``run_trace_streaming``).  The run's ``--seed`` is the only input; the
trace and deployment seeds are derived from it per role, so the same
run seed always yields the same traces, and ``rec-v100`` and
``rec-v100-spool`` replay identical traces.  Only the check trace is
fixed (:data:`CHECK_SEED`).
"""

from __future__ import annotations

import hashlib

# Requests per trace, by role.  ``main`` feeds the end-to-end metrics
# (>= 1000 so that >= 10 samples lie beyond the p99); ``traced`` is the
# trace the layer ledger replays.
SIZES = {"main": 1000, "traced": 300}
# ``run.py --tiny``: the same runs on toy traces, for the self-test.
TINY_SIZES = {"main": 40, "traced": 30}

# The check trace is the same in every run, whatever its seed: many
# worker processes of a run replay it, so digests are compared across
# processes, and its digest must equal the one recorded per workload in
# reference.json, so a change to the simulated results fails the run.
# On ``video-a100x2`` it moves bytes across nodes (checked).
CHECK_SEED = 12345
CHECK_REQUESTS = 20

WORKLOADS: dict[str, dict] = {
    "rec-v100": {
        "workflow": "recognition",
        "preset": "dgx-v100",
        "nodes": 1,
        "replicas": 2,
        "rate": 4.0,
        "telemetry": "off",
        "cross_node": False,
    },
    "rec-v100-spool": {
        "workflow": "recognition",
        "preset": "dgx-v100",
        "nodes": 1,
        "replicas": 2,
        "rate": 4.0,
        "telemetry": "spool",
        "cross_node": False,
    },
    "video-a100x2": {
        "workflow": "video",
        "preset": "dgx-a100",
        "nodes": 2,
        "replicas": 2,
        "rate": 4.0,
        "telemetry": "off",
        "cross_node": True,
    },
}


def derive_seed(run_seed: int, role: str) -> int:
    """A 31-bit seed for *role* that depends only on the run's seed."""
    digest = hashlib.sha256(f"{run_seed}/{role}".encode()).hexdigest()
    return int(digest[:8], 16) & 0x7FFFFFFF
