#!/usr/bin/env python3
"""Compare two ledgers: ``python3 perf/compare.py A.json B.json``.

A is the baseline (the parent commit, or the first of two runs of one
commit), B the candidate.  One row per (end-to-end metric, workload):

- ``better``       B's median beats A's by more than A's own spread;
- ``within bound`` B's median is no worse than A's by more than the
  metric's bound;
- ``worse``        B's median is worse than A's by more than the bound
  and by more than the metric's absolute floor;
- ``unresolved``   the medians are within the bound but a side's
  run-to-run spread (quartile distance over median) is wider than the
  bound and the floor, so "unchanged" cannot be told from "changed" --
  unless every run of B reads better than every run of A.

``failed_ratio`` is ``worse`` on any increase (every OSDU the transport
reports lost counts as failed).  Count metrics and ``sim_digest`` must
agree exactly for the same seeds; a difference is reported as
``changed`` (simulated behaviour moved) and does not by itself fail the
comparison.  Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List


#: A worsening (or a spread) smaller than this, in the metric's unit, is
#: below what matters whatever share of the baseline it is: set-up is
#: 4 ms on ``lossy_mixed``.
FLOORS = {"peak_rss_mib": 2.0, "setup_s": 0.050}


def spread(row: Dict[str, Any]) -> float:
    """Quartile distance as a share of the median."""
    return (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0


def verdict(a: Dict[str, Any], b: Dict[str, Any], floor: float = 0.0) -> str:
    """Classify candidate row ``b`` against baseline row ``a``."""
    higher = a["better"] == "higher"
    bound = a["bound"]
    base = a["median"]
    # Positive = candidate is worse, in the metric's unit.
    worse_by = (base - b["median"]) if higher else (b["median"] - base)
    if worse_by > bound * base and worse_by > floor:
        return "worse"
    all_better = (
        min(b["values"]) > max(a["values"]) if higher
        else max(b["values"]) < min(a["values"])
    )
    wide = any(spread(row) > bound and row["q3"] - row["q1"] > floor
               for row in (a, b))
    if wide and not all_better:
        return "unresolved"
    if -worse_by > a["q3"] - a["q1"] or all_better:
        return "better"
    return "within bound"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Rows for every (metric, workload) the two ledgers share."""
    rows: List[Dict[str, Any]] = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric, row_a in entry_a["end_to_end"].items():
            row_b = entry_b["end_to_end"][metric]
            rows.append({
                "workload": workload, "metric": metric,
                "a": row_a["median"], "b": row_b["median"],
                "unit": row_a["unit"], "bound": row_a["bound"],
                "spread_a": spread(row_a), "spread_b": spread(row_b),
                "verdict": verdict(row_a, row_b, FLOORS.get(metric, 0.0)),
            })
        ratio_a = entry_a["failed"] / entry_a["attempted"]
        ratio_b = entry_b["failed"] / entry_b["attempted"]
        rows.append({
            "workload": workload, "metric": "failed_ratio",
            "a": ratio_a, "b": ratio_b, "unit": "ratio", "bound": 0.0,
            "spread_a": 0.0, "spread_b": 0.0,
            "verdict": ("worse" if ratio_b > ratio_a or not entry_b["correct"]
                        else "within bound"),
        })
        shared_seeds = set(entry_a["sim_digest"]) & set(entry_b["sim_digest"])
        same = all(entry_a["sim_digest"][s] == entry_b["sim_digest"][s]
                   for s in shared_seeds)
        rows.append({
            "workload": workload, "metric": "sim_digest",
            "a": len(shared_seeds), "b": len(shared_seeds), "unit": "seeds",
            "bound": 0.0, "spread_a": 0.0, "spread_b": 0.0,
            "verdict": "identical" if same else "changed",
        })
        for metric, row_a in entry_a["per_layer"].items():
            row_b = entry_b["per_layer"].get(metric)
            if row_b is None or row_a["unit"] != "count":
                continue
            if row_a["value"] != row_b["value"]:
                rows.append({
                    "workload": workload, "metric": metric,
                    "a": row_a["value"], "b": row_b["value"],
                    "unit": "count", "bound": 0.0,
                    "spread_a": 0.0, "spread_b": 0.0, "verdict": "changed",
                })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: perf/compare.py A.json B.json")
    ledgers = []
    for path in argv:
        with open(path) as handle:
            ledgers.append(json.load(handle))
    a, b = ledgers
    print(f"A = {a['commit'][:12]} ({argv[0]}), "
          f"B = {b['commit'][:12]} ({argv[1]})")
    rows = compare(a, b)
    for row in rows:
        print(f"{row['workload']:14s} {row['metric']:28s} "
              f"A {row['a']:12.6g}  B {row['b']:12.6g} {row['unit']:6s} "
              f"bound {row['bound']:5.0%}  spread A {row['spread_a']:5.1%} "
              f"B {row['spread_b']:5.1%}  {row['verdict']}")
    worse = [r for r in rows if r["verdict"] == "worse"]
    print(f"{len(rows)} rows: {len(worse)} worse, "
          f"{sum(r['verdict'] == 'unresolved' for r in rows)} unresolved, "
          f"{sum(r['verdict'] == 'changed' for r in rows)} changed")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
