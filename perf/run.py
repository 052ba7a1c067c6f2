#!/usr/bin/env python3
"""The performance ledger's one command.

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload for about S seconds and prints one JSON object as its
last line: the end-to-end metrics (``--trace 0``) or the per-layer
metrics from a traced run (``--trace 1``).  Without ``--workload`` it
runs every workload of ``BENCHMARK.json`` that way, each run in a fresh
subprocess, and prints and stores the whole ledger (see
:mod:`perf.ledger`).

It is a simulator: end-to-end numbers are *host* time and memory;
simulated statistics are exact-repeat guards (``sim_digest``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _bootstrap() -> None:
    """Make ``perf`` and the program under ``src/`` importable."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perf/run.py: no program to measure under {SRC}")
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def end_to_end(reps, setups) -> dict:
    """The run's end-to-end metrics: medians over its (identical) reps.

    Seconds are at the reference host speed (:mod:`perf.probe`).
    ``setups`` are the set-up passes' times; the reps' own set-ups join
    them.  The job is the whole rep -- setup, play, finish -- so work
    moved between phases cannot hide from ``job_units_per_s``.
    """
    from perf.harness import peak_rss_mib

    setup = statistics.median(setups + [r.phases.setup_s for r in reps])
    timed = statistics.median(r.phases.timed_s for r in reps)
    finish = statistics.median(r.phases.finish_s for r in reps)
    units = reps[0].stats.units
    return {
        "units_per_s": (units / timed, "1/s"),
        "job_units_per_s": (units / (setup + timed + finish), "1/s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "setup_s": (setup, "s"),
    }


def per_layer(plain, traced, spin: float, delta_bytes: int) -> dict:
    """The per-layer table from a traced run's untraced and traced rep."""
    from perf.harness import percentile
    from perf.tracing import OTHER_GROUP, group_of, self_seconds_by_group

    stats = plain.stats

    def count(key: str, rep_stats=stats) -> float:
        return rep_stats.counts.get(key, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    spans: dict = {}
    for name, (n, _total, _self) in traced.phases.spans.items():
        if not name.startswith("#"):
            group = group_of(name)
            spans[group] = spans.get(group, 0) + n
    self_s = self_seconds_by_group(traced.phases.spans)
    traced_wall = traced.phases.timed_s
    # Time under a span whose owner is none of the layers (the workload
    # driver, an unlabelled callback) is not attributed to any.
    labelled = sum(seconds for group, seconds in self_s.items()
                   if group != OTHER_GROUP)
    cancels = traced.phases.spans["#cancels"][0]

    def self_us(group: str, denominator: float) -> float:
        return ratio(1e6 * self_s.get(group, 0.0), denominator)

    units = stats.units
    timed = plain.phases.timed_s
    slices_ms = [1e3 * s for s in plain.phases.slice_s]
    # Fleet workers count their own events, under FleetSpec(profile=True).
    events = count("events") or count("events", traced.stats)
    pkts = count("link_pkts")
    intervals = count("intervals")
    windows = count("windows")
    shards = count("shards")
    host = stats.host
    wall = host.get("wall_s", 0.0)
    worker_cpu = host.get("worker_cpu_s", 0.0)

    def profile(key: str) -> float:
        return traced.stats.host.get(f"profile.{key}", 0.0)

    return {
        "sim.events_per_unit": (ratio(events, units), "count"),
        "sim.ns_per_event": (ratio(1e9 * timed, events), "ns"),
        "sim.dispatch_self_us_per_unit": (
            ratio(1e6 * (traced_wall - sum(self_s.values())), units), "us"),
        "sim.process_self_us_per_unit": (
            self_us("sim.process", units), "us"),
        "sim.cancels_per_unit": (ratio(cancels, units), "count"),
        "sim.window_ms_p50": (percentile(slices_ms, 0.50), "ms"),
        "sim.window_ms_p95": (percentile(slices_ms, 0.95), "ms"),
        "netsim.pkts_per_unit": (ratio(pkts, units), "count"),
        "netsim.link_self_us_per_pkt": (
            self_us("netsim.link", pkts), "us"),
        "netsim.node_self_us_per_pkt": (
            self_us("netsim.node", pkts), "us"),
        "netsim.lost_ratio": (ratio(count("link_lost"), pkts), "ratio"),
        "netsim.queue_delay_sim_us_per_pkt": (
            ratio(1e6 * count("queue_delay_sim_s"), count("link_delivered")),
            "us"),
        "transport.tpdus_per_unit": (ratio(count("tpdus"), units), "count"),
        "transport.send_self_us_per_unit": (
            self_us("transport.send", units), "us"),
        "transport.recv_self_us_per_unit": (
            self_us("transport.recv", units), "us"),
        "transport.monitor_self_us_per_unit": (
            self_us("transport.monitor", units), "us"),
        "transport.entity_self_us_per_unit": (
            self_us("transport.entity", units), "us"),
        "transport.retx_ratio": (
            ratio(count("retransmits"), count("tpdus")), "ratio"),
        "transport.lost_osdus": (count("lost_osdus"), "count"),
        "transport.connect_ms": (
            ratio(1e3 * host.get("connect_s", 0.0), count("connects")), "ms"),
        "transport.blocked_sim_ms_per_unit": (
            ratio(1e3 * count("blocked_sim_s"), units), "ms"),
        "orchestration.intervals": (intervals, "count"),
        "orchestration.llo_self_us_per_interval": (
            self_us("orchestration.llo", intervals), "us"),
        "orchestration.agent_self_us_per_interval": (
            self_us("orchestration.agent", intervals), "us"),
        "orchestration.establish_ms": (
            ratio(1e3 * host.get("establish_s", 0.0), count("groups")), "ms"),
        "orchestration.regulation_drops": (
            count("regulation_drops"), "count"),
        "orchestration.max_skew_sim_ms": (count("max_skew_sim_ms"), "ms"),
        "media.self_us_per_unit": (self_us("media", units), "us"),
        "media.submitted": (count("submitted"), "count"),
        "media.presented": (count("presented"), "count"),
        "obs.audit_periods": (count("audit_periods"), "count"),
        "obs.audit_self_us_per_period": (
            self_us("obs.audit", count("audit_periods")), "us"),
        "obs.trace_events": (count("trace_events"), "count"),
        "obs.trace_self_ns_per_event": (
            ratio(1e9 * self_s.get("obs.trace", 0.0),
                  spans.get("obs.trace", 0)), "ns"),
        "obs.export_s": (host.get("export_s", 0.0), "s"),
        "obs.export_mib": (host.get("export_mib", 0.0), "MiB"),
        "obs.fold_calls": (spans.get("obs.fold", 0), "count"),
        "obs.fold_self_ms": (1e3 * self_s.get("obs.fold", 0.0), "ms"),
        "obs.delta_kib_per_window": (
            ratio(delta_bytes / 1024.0, windows), "KiB"),
        "shard.windows": (windows, "count"),
        "shard.cross_msgs": (count("cross_msgs"), "count"),
        "shard.overhead_ratio": (
            ratio(wall, host.get("inline_wall_s", 0.0)), "ratio"),
        "shard.us_per_window": (
            ratio(1e6 * (wall - ratio(worker_cpu, shards)), windows), "us"),
        "shard.coordinator_cpu_s": (host.get("coordinator_cpu_s", 0.0), "s"),
        "shard.worker_cpu_s": (worker_cpu, "s"),
        "shard.worker_idle_ratio": (
            1.0 - ratio(worker_cpu, shards * wall) if shards else 0.0,
            "ratio"),
        "soak.profile_dispatch_s": (profile("scheduler.dispatch"), "s"),
        "soak.profile_link_commit_s": (profile("link.commit"), "s"),
        "soak.profile_audit_evaluate_s": (profile("audit.evaluate"), "s"),
        "soak.conformance": (count("conformance"), "ratio"),
        "host.spin_per_s": (spin, "1/s"),
        "host.finish_s": (plain.phases.finish_s, "s"),
        "host.trace_overhead_ratio": (ratio(traced_wall, timed), "ratio"),
        "host.attributed_ratio": (ratio(labelled, traced_wall), "ratio"),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    """One run of one workload; prints the result line, returns the exit
    code (non-zero when an output check failed)."""
    from perf import harness
    from perf.workloads import WORKLOADS

    if name not in WORKLOADS:
        sys.exit(f"perf/run.py: unknown workload {name!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name]
    if traced:
        # One untraced rep, then a traced one in the same process: the
        # tracing overhead is a ratio of two walls taken seconds apart.
        from perf.tracing import SpanRecorder

        spin = harness.spin_per_s()
        reps = [harness.run_rep(workload.run, seed, per_layer=True)]
        recorder = SpanRecorder().install()
        try:
            reps.append(harness.run_rep(
                workload.run, seed, recorder=recorder, per_layer=True))
        finally:
            recorder.uninstall()
        metrics = per_layer(*reps, spin, recorder.delta_bytes)
        recorder.export_chrome_trace(
            os.path.join(harness.OUT_DIR, f"{name}.trace.json"))
    else:
        from perf.probe import HostProbe

        probe = HostProbe()
        setups = [harness.setup_pass(workload.run, seed, probe)
                  for _ in range(harness.SETUP_PASSES)]
        reps = [harness.run_rep(workload.run, seed, probe)
                for _ in range(max(1, int(seconds // workload.rep_seconds)))]
        metrics = end_to_end(reps, setups)
    harness.stop_resource_tracker()

    problems = [p for r in reps for p in r.stats.problems]
    digests = sorted({r.digest for r in reps})
    if len(digests) > 1:
        problems.append(
            f"sim_digest differs between reps of one seed: {digests}")
    attempted = sum(r.stats.attempted for r in reps)
    # A run whose simulated behaviour did not repeat failed as a whole.
    failed = (attempted if len(digests) > 1
              else sum(r.stats.failed for r in reps))

    for rep in reps:
        phases = rep.phases
        print(f"rep {'traced' if rep.traced else 'plain '} walls: "
              f"setup {phases.setup_s:8.4f}s  timed {phases.timed_s:8.4f}s  "
              f"finish {phases.finish_s:8.4f}s  "
              f"{rep.stats.units / phases.timed_s:12.1f} units/s  "
              f"host speed x{phases.speed_factor:.2f}")
    print(f"workload {name}  seed {seed}  unit: {workload.unit}  "
          f"reps {len(reps)}  sim_digest {digests[0]}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:42s} {value:16.6g} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    # What the ledger keeps beside the result line.
    print("detail " + json.dumps({
        "workload": name, "seed": seed, "traced": traced,
        "digests": digests, "problems": problems,
        "reps": [
            {"traced": r.traced, "units": r.stats.units,
             "setup_s": r.phases.setup_s, "timed_s": r.phases.timed_s,
             "finish_s": r.phases.finish_s,
             "speed_factor": r.phases.speed_factor}
            for r in reps
        ],
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in metrics.items()
        },
    }))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall seconds one run measures "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    from perf import harness, ledger

    seconds = args.seconds
    if seconds is None:
        seconds = ledger.load_benchmark()["run_seconds"]
    if args.workload is None:
        return ledger.run_all(args.seed, seconds)
    if os.environ.get("PYTHONHASHSEED") != "0" or any(
            name in os.environ for name in harness.SCRUBBED_ENV):
        # Same interpreter, same arguments, clean environment: the hash
        # seed can only be pinned before the interpreter starts.
        sys.stdout.flush()
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)]
                  + (sys.argv[1:] if argv is None else list(argv)),
                  harness.scrub_env(dict(os.environ)))
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
