"""Run every workload of ``BENCHMARK.json`` and keep the numbers.

Each run is ``perf/run.py --workload W ...`` in a fresh subprocess with
a scrubbed environment, one after another (the host has two cores and
the fleet workload uses both).  Per workload: RUNS untraced runs, each
on its own seed, give the end-to-end metrics as median, quartiles and
sample count; one traced run gives the per-layer table.  The ledger is
stored as ``perf/out/ledger.json``, which is what ``perf/compare.py``
reads.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List

from perf import harness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join(ROOT, "perf", "run.py")
LEDGER_PATH = os.path.join(harness.OUT_DIR, "ledger.json")

#: Untraced runs per workload, on seeds ``seed`` .. ``seed + RUNS - 1``.
#: Both sides of a comparison share it, and with it their seeds.
RUNS = 10
#: A run that takes longer than the driver allows is a failure.
RUN_TIMEOUT_S = 180.0

#: No-change rows: per-layer metrics (by prefix) that must read exactly 0
#: because the layer does no work on that workload.  A change to that
#: layer must leave the workload's end-to-end rows alone.
ZERO_ROWS = {
    "kernel_link": ("transport.", "orchestration."),
    "lossy_mixed": ("orchestration.",),
    "film_orch": ("obs.trace_events",),
}


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def run_once(workload: str, seed: int, seconds: float,
             traced: bool) -> Dict[str, Any]:
    """One subprocess run; returns its result line plus its detail line."""
    done = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(traced))],
        cwd=ROOT, env=harness.scrub_env(dict(os.environ)),
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if (len(lines) < 2 or not lines[-1].startswith("{")
            or not lines[-2].startswith("detail ")):
        raise RuntimeError(
            f"{workload} seed {seed} printed no result (exit "
            f"{done.returncode}):\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("detail "):])
    result["exit_code"] = done.returncode
    return result


def run_all(seed: int, seconds: float) -> int:
    """Ledger mode of ``perf/run.py``; returns the exit code."""
    benchmark = load_benchmark()
    started = perf_counter()
    ledger: Dict[str, Any] = {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "host.spin_per_s": harness.spin_per_s(),
        "seed": seed, "runs": RUNS, "run_seconds": seconds,
        "workloads": {},
    }
    exit_code = 0
    for workload in [w["name"] for w in benchmark["workloads"]]:
        plain = [run_once(workload, seed + k, seconds, False)
                 for k in range(RUNS)]
        traced = run_once(workload, seed, seconds, True)
        results = plain + [traced]
        digests: Dict[str, List[str]] = {}
        for result in results:
            digests.setdefault(
                str(result["detail"]["seed"]), []).extend(
                    result["detail"]["digests"])
        entry: Dict[str, Any] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "problems": [p for r in results for p in r["detail"]["problems"]],
            "sim_digest": {s: sorted(set(d)) for s, d in digests.items()},
            "end_to_end": {}, "per_layer": {},
            "reps": [r["detail"]["reps"] for r in results],
        }
        # The traced run shares the first untraced run's seed.
        if len(entry["sim_digest"][str(seed)]) > 1:
            entry["correct"] = False
            entry["problems"].append(
                "sim_digest differs between the traced and untraced run")
        for metric in benchmark["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in plain]
            entry["end_to_end"][metric["name"]] = {
                **{k: metric[k] for k in ("unit", "better", "bound")},
                **harness.quantiles(values), "values": values,
            }
        for metric in benchmark["per_layer"]:
            entry["per_layer"][metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "value": traced["metrics"][metric["name"]]["value"],
            }
        entry["zero_rows"] = {
            name: row["value"] for name, row in entry["per_layer"].items()
            if name.startswith(ZERO_ROWS.get(workload, ()))
        } if workload in ZERO_ROWS else {}
        for name, value in entry["zero_rows"].items():
            if value != 0:
                entry["correct"] = False
                entry["problems"].append(
                    f"no-change row {name} reads {value}, not 0")
        if not entry["correct"] or any(r["exit_code"] for r in results):
            exit_code = 1
        ledger["workloads"][workload] = entry
        _print_workload(workload, entry)
    ledger["total_wall_s"] = perf_counter() - started
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    with open(LEDGER_PATH, "w") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"ledger for {ledger['commit'][:12]} written to {LEDGER_PATH} "
          f"({ledger['total_wall_s']:.0f} s)")
    return exit_code


def _print_workload(workload: str, entry: Dict[str, Any]) -> None:
    ratio = entry["failed"] / entry["attempted"]
    print(f"== {workload}: {'ok' if entry['correct'] else 'CHECKS FAILED'}, "
          f"failed_ratio {ratio:.6g} "
          f"({entry['failed']}/{entry['attempted']})")
    for problem in entry["problems"]:
        print(f"   CHECK FAILED: {problem}")
    for seed, digests in entry["sim_digest"].items():
        print(f"   sim_digest[seed {seed}] {' != '.join(digests)}")
    for name, row in entry["end_to_end"].items():
        print(f"   {name:40s} {row['median']:14.6g} {row['unit']:6s} "
              f"[q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n {row['n']}] "
              f"bound {row['bound']:.0%} {row['better']} is better")
    for name, row in entry["per_layer"].items():
        print(f"   {name:40s} {row['value']:14.6g} {row['unit']}")
    if entry["zero_rows"]:
        print(f"   no-change rows all 0: {', '.join(entry['zero_rows'])}")
