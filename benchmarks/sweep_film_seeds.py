"""Nightly sweep: which ``film_orch`` seeds fail a check of the workload.

Runs ``perf/run.py --workload film_orch --seed N --seconds 1`` (set-up
passes and one rep) for every seed in the range, each in its own
process, and lists every seed whose run printed a ``CHECK FAILED``,
with the lip-sync check's ``max_skew`` when that check is the one that
failed.  A performance comparison that draws such a seed exits 1 on
both sides of the comparison, so it should be known before one does.

Exits 1 when a seed outside :data:`KNOWN_FAILING` fails a check, or when
a run ends without its result line (a crash).  A known seed that passes
is reported, not failed: the set is then stale and can shrink.  The
gate loosens nothing: it only adds seeds that must pass.

Usage::

    python benchmarks/sweep_film_seeds.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
WORKLOAD = "film_orch"
SEEDS = range(1, 101)
#: Runs at a time, each one process (CI runners have two cores).
JOBS = 2

#: Seeds whose run fails a check at this commit, and why.  Seed 38's
#: group 1 reaches a skew of exactly two video frames, which the
#: float media times read as 0.08000000000000007 s > MAX_SKEW_S
#: (ROADMAP item 15(a)).
KNOWN_FAILING = frozenset({38})

_SKEW = re.compile(r"lip-sync skew ([0-9.]+) ms")


def run_seed(seed: int) -> Tuple[int, Optional[List[str]], str]:
    """One run: (seed, its failed checks or None if it crashed, output)."""
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perf", "run.py"),
         "--workload", WORKLOAD, "--seed", str(seed), "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True,
    )
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or len(lines) < 2 \
            or not lines[-2].startswith("detail "):
        return seed, None, run.stdout + run.stderr
    problems = json.loads(lines[-2].split(" ", 1)[1])["problems"]
    if bool(problems) != bool(run.returncode):
        return seed, None, run.stdout + run.stderr
    return seed, problems, ""


def main() -> int:
    unexpected = crashed = 0
    failing = []
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for seed, problems, output in pool.map(run_seed, SEEDS):
            if problems is None:
                crashed += 1
                sys.stderr.write(output)
                print(f"seed {seed}: perf/run.py ended without a result")
                continue
            if not problems:
                if seed in KNOWN_FAILING:
                    print(f"seed {seed}: known to fail, now passes")
                continue
            failing.append(seed)
            known = seed in KNOWN_FAILING
            unexpected += not known
            skews = [m.group(1) for p in problems if (m := _SKEW.search(p))]
            print(f"seed {seed}: CHECK FAILED "
                  f"({'known' if known else 'NEW'}), max_skew "
                  f"{skews[0] + ' ms' if skews else 'n/a'}: "
                  + "; ".join(problems), flush=True)
    print(f"{WORKLOAD} seeds {SEEDS.start}-{SEEDS.stop - 1}: "
          f"{len(failing)} failing {failing}, {unexpected} not known, "
          f"{crashed} crashed; known failing {sorted(KNOWN_FAILING)}")
    return 1 if unexpected or crashed else 0


if __name__ == "__main__":
    sys.exit(main())
