"""Records the check trace's digest per workload in ``reference.json``.

Run from the root of a checkout::

    python3 e2ebench/reference.py

Every benchmark run replays the fixed check trace (``CHECK_SEED`` in
workloads.py) in several processes and fails unless each digest equals
the one recorded here.  The digests are taken without telemetry, so a
spooled replay must match them too.  Re-record only for a change that
is meant to change the simulated results, and say so.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE_FILE, _job, run_worker
from workloads import CHECK_REQUESTS, CHECK_SEED, WORKLOADS


def main() -> int:
    digests = {}
    for name in sorted(WORKLOADS):
        check = _job("check", CHECK_SEED, CHECK_REQUESTS, "off")
        # Two processes, so a digest that depends on the process (hash
        # seed, import order) is caught before it is recorded.
        found = {run_worker(name, [check])["records"][0]["digest"]
                 for _ in range(2)}
        if len(found) != 1:
            print(f"{name}: check digests differ across processes",
                  file=sys.stderr)
            return 1
        digests[name] = found.pop()
    REFERENCE_FILE.write_text(json.dumps(digests, indent=1) + "\n")
    print(json.dumps(digests, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
