"""CI perf-smoke gate on scheduler events per OSDU (counts, not seconds).

Runs the ledger's traced ``film_orch`` rep (``perf/run.py``, seed 1) and
fails unless

- ``sim.events_per_unit`` is at most 9.9 (the wake-up cost model of
  DESIGN.md section 5.1 -- one scheduler event per semaphore grant on
  the section 3.7 buffer path), and
- the run's ``sim_digest`` equals the one recorded for that workload and
  seed in ``perf/LEDGER.json`` (read-only): the count was not bought by
  changing what is simulated.

Both repeat exactly on any host, so there is no calibration and no
threshold to tune.

Usage::

    python benchmarks/check_film_orch_events.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
WORKLOAD = "film_orch"
SEED = 1
MAX_EVENTS = 9.9


def main() -> int:
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perf", "run.py"),
         "--workload", WORKLOAD, "--seed", str(SEED),
         "--seconds", "20", "--trace", "1"],
        capture_output=True, text=True,
    )
    lines = run.stdout.splitlines()
    if run.returncode != 0 or len(lines) < 2:
        sys.stderr.write(run.stdout + run.stderr)
        print(f"perf/run.py exited {run.returncode}")
        return 1
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].split(" ", 1)[1])
    with open(os.path.join(ROOT, "perf", "LEDGER.json")) as fh:
        ledger = json.load(fh)
    recorded = ledger["workloads"][WORKLOAD]["sim_digest"][str(SEED)]

    events = result["metrics"]["sim.events_per_unit"]["value"]
    digest_ok = detail["digests"] == recorded
    print(f"{WORKLOAD} seed {SEED}: sim.events_per_unit {events:.3f} "
          f"(limit {MAX_EVENTS}), sim_digest "
          f"{'matches' if digest_ok else 'DIFFERS from'} perf/LEDGER.json")
    if not digest_ok:
        print(f"FAIL: sim_digest {detail['digests']} != recorded {recorded}")
    if events > MAX_EVENTS:
        print(f"FAIL: sim.events_per_unit {events:.3f} > {MAX_EVENTS}")
    return 0 if digest_ok and events <= MAX_EVENTS else 1


if __name__ == "__main__":
    sys.exit(main())
