"""Self-test of the benchmark, on toy traces (about two minutes).

Run from the root of a checkout::

    python3 e2ebench/selftest.py

It checks that

- every metric named in ``BENCHMARK.json`` prints with its unit: the
  end-to-end ones from an untraced run and the per-layer ones from a
  traced run, on every workload;
- planted faults (a perturbed result, a dropped request) make the run
  report ``"correct": false`` with failed requests and a nonzero exit;
- a check-trace digest that differs from ``reference.json`` (as a
  change to the simulated results would make it) fails the run;
- the benchmark refuses to start, printing no result, in a directory
  that holds only ``BENCHMARK.json`` and the benchmark's own files.

The exit code is 0 only when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 300


def bench(*args: str, cwd: Path = ROOT):
    """Run the benchmark command; returns (exit code, last JSON or None)."""
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args, "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload in SPEC["workloads"]:
        name = workload["name"]
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            code, result = bench("--workload", name, "--seed", "3",
                                 "--seconds", "1", "--trace", trace)
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} --trace {trace}: runs clean")
            printed = (result or {}).get("metrics", {})
            missing = [
                metric["name"] for metric in SPEC[group]
                if printed.get(metric["name"], {}).get("unit") != metric["unit"]
                or not isinstance(printed[metric["name"]]["value"],
                                  (int, float))
            ]
            extra = sorted(set(printed) - {m["name"] for m in SPEC[group]})
            expect(not missing and not extra,
                   f"{name} --trace {trace}: prints exactly the "
                   f"{len(SPEC[group])} {group} metrics, with their units "
                   f"{missing + extra or ''}")

    name = SPEC["workloads"][0]["name"]
    for fault in ("perturb", "drop"):
        for trace in ("0", "1"):
            code, result = bench("--workload", name, "--seed", "3",
                                 "--seconds", "1", "--trace", trace,
                                 "--inject", fault)
            expect(code != 0 and result is not None
                   and result["correct"] is False and result["failed"] > 0,
                   f"{name} --trace {trace}: a {fault} fault fails the run")

    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
        code, result = bench("--workload", name, "--seed", "3",
                             "--seconds", "1", "--trace", "0", cwd=bare)
        expect(code != 0 and result is None,
               "refuses to run without the simulator sources")

        # With the sources, but a reference digest the model does not give.
        shutil.copytree(ROOT / "src", bare / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        reference = bare / HERE.name / "reference.json"
        digests = json.loads(reference.read_text())
        digests[name] = "0" * 64
        reference.write_text(json.dumps(digests))
        code, result = bench("--workload", name, "--seed", "3",
                             "--seconds", "1", "--trace", "0", cwd=bare)
        expect(code != 0 and result is not None
               and result["correct"] is False and result["failed"] > 0,
               "a check trace that differs from reference.json fails the run")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
