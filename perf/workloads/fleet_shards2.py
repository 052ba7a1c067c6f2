"""``fleet_shards2``: the shard runtime -- barriers, pickle wire, fold.

One soak fleet (16 cells x 64 audited pump VCs, cross-shard ring
traffic, streamed telemetry deltas) split over two spawned worker
processes.  Window barriers, the pickle wire and the coordinator's
``DeltaFolder`` are most of the wall here and absent everywhere else.
The fleet still runs the pump world, not real VCs; when the fleet is
rebuilt on the transport stack this workload is re-baselined.

Phases follow the coordinator's ``progress`` callback: setup is call ->
first barrier (worker spawn, import, fleet build), timed is first ->
last barrier, finish is last barrier -> merged audit on disk.
"""

from __future__ import annotations

import json
import os
from time import perf_counter

from repro.soak import FleetSpec, run_fleet

from perf.harness import Phases, RepStats

#: Virtual seconds per rep (~36 barriers per virtual second).
DURATION = 120.0
SHARDS = 2


def spec_for(seed: int, profile: bool) -> FleetSpec:
    return FleetSpec(
        cells=16, vcs_per_cell=64, cp_pairs=0, duration=DURATION,
        pump_packets=2, tight_every=16, max_timeline=4, shards=SHARDS,
        cross_traffic=True, cross_packets=2, stream=True, seed=seed,
        profile=profile,
    )


def run(seed: int, phases: Phases, tmp: str) -> RepStats:
    spec = spec_for(seed, profile=phases.traced)
    cpu0 = os.times()
    started = perf_counter()
    whole_seconds = 0

    def progress(t_end: float, windows: int) -> None:
        nonlocal whole_seconds
        if windows == 1:
            phases.setup_done()
        if int(t_end) > whole_seconds:
            whole_seconds = int(t_end)
            phases.slice_done()

    result = run_fleet(spec, progress=progress)
    audit_path = os.path.join(tmp, "fleet_audit.json")
    dump_started = perf_counter()
    with open(audit_path, "w") as handle:
        json.dump(result.audit, handle)
    dump_s = perf_counter() - dump_started
    cpu1 = os.times()

    host = {
        "wall_s": perf_counter() - started,
        "worker_cpu_s": (cpu1.children_user + cpu1.children_system
                         - cpu0.children_user - cpu0.children_system),
        "coordinator_cpu_s": (cpu1.user + cpu1.system
                              - cpu0.user - cpu0.system),
        "export_s": dump_s,
        "export_mib": os.path.getsize(audit_path) / 2 ** 20,
    }
    sent = sum(p["counts"]["pump_sent"] + p["counts"]["cross_sent"]
               for p in result.payloads)
    counts = {
        "windows": result.windows, "cross_msgs": result.messages,
        "audit_periods": result.audit["summary"].get("periods", 0),
        "conformance": result.audit["summary"].get("conformance") or 0.0,
        "shards": SHARDS, "submitted": sent,
        "presented": result.packets_delivered,
    }
    problems = result.invariant_failures()
    if phases.per_layer and not phases.traced:
        # The same fleet on one simulator in this process, with no class
        # patches installed: what the shard runtime costs is the ratio
        # of the two walls.
        with phases.untimed():
            inline_started = perf_counter()
            inline = run_fleet(spec, inline=True)
            host["inline_wall_s"] = perf_counter() - inline_started
        if inline.packets_delivered != result.packets_delivered:
            problems.append("inline fleet delivered a different count")
    if phases.traced:
        for key, stats in result.profile["subsystems"].items():
            host[f"profile.{key}"] = stats["total_s"]
        counts["events"] = (
            result.profile["subsystems"]["scheduler.dispatch"]["count"])
    return RepStats(
        units=result.packets_delivered,
        attempted=sent,
        failed=len(problems),
        sim={
            "summary": result.audit["summary"],
            "windows": result.windows, "messages": result.messages,
            "counts": [p["counts"] for p in result.payloads],
        },
        counts=counts, host=host, problems=problems,
    )
