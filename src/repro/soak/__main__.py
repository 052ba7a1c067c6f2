"""CLI for fleet-scale soak runs: ``python -m repro.soak --shards N``.

Builds a :class:`~repro.soak.FleetSpec` from the flags, runs it
(sharded by default, ``--inline`` for the single-process baseline),
prints a one-screen summary, optionally writes the merged audit
snapshot (``--out``) and renders it through ``repro.obs.report``
(``--render``).  Exits non-zero when a fleet invariant fails, which is
what lets CI use a small soak as a smoke test.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro.obs.export import write_json_document
from repro.soak import FleetSpec, run_fleet

#: Named flag-default bundles (``--preset NAME``); explicit flags win.
PRESETS: Dict[str, Dict[str, Any]] = {
    "smoke": {
        "cells": 2, "vcs_per_cell": 3, "cp_pairs": 0,
        "duration": 8.0, "period": 0.5, "tight_every": 6,
    },
    "pipeline-smoke": {
        "cells": 2, "vcs_per_cell": 3, "cp_pairs": 0,
        "duration": 8.0, "period": 0.5, "tight_every": 6,
        "topology": "pipeline",
    },
    "soak": {
        "cells": 8, "vcs_per_cell": 16, "cp_pairs": 2,
        "duration": 60.0, "cross": True,
    },
    "trace-abr": {
        "cells": 4, "vcs_per_cell": 8, "cp_pairs": 0,
        "duration": 20.0, "period": 0.5,
        "workload": "trace:news", "flow": "abr",
    },
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.soak",
        description="Run a sharded (or inline-baseline) soak fleet.",
    )
    parser.add_argument("--list", action="store_true",
                        help="list the available presets and exit")
    parser.add_argument("--preset", default=None, choices=sorted(PRESETS),
                        help="apply a named bundle of flag defaults "
                             "(explicit flags still win)")
    parser.add_argument("--shards", type=int, default=1,
                        help="virtual-time domains / worker processes")
    parser.add_argument("--cells", type=int, default=4,
                        help="pump cells (two hosts each)")
    parser.add_argument("--vcs-per-cell", type=int, default=8,
                        help="audited VCs per cell")
    parser.add_argument("--cp-pairs", type=int, default=1,
                        help="control-plane pub/sub pairs")
    parser.add_argument("--duration", type=float, default=20.0,
                        help="virtual seconds to simulate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cross", action="store_true",
                        help="add the cross-shard gateway ring")
    parser.add_argument("--inline", action="store_true",
                        help="run unsharded in this process (baseline)")
    parser.add_argument("--pump-packets", type=int, default=2,
                        help="packets per VC per period")
    parser.add_argument("--pump-bytes", type=int, default=1200)
    parser.add_argument("--period", type=float, default=1.0,
                        help="pump/verdict period (virtual seconds)")
    parser.add_argument("--tight-every", type=int, default=16,
                        help="every Nth VC gets a violated-by-design "
                             "delay contract (0 disables)")
    parser.add_argument("--workload", default="cbr",
                        help="pump workload: 'cbr' or 'trace:<name>' "
                             "(GoP frame-trace replay)")
    parser.add_argument("--flow", default="open",
                        choices=("open", "paced", "abr"),
                        help="flow-control variant per pump VC")
    parser.add_argument("--topology", default="cells",
                        choices=("cells", "pipeline"),
                        help="per-cell traffic shape")
    parser.add_argument("--fanout", type=int, default=2,
                        help="pipeline republish fan-out")
    parser.add_argument("--timeline", type=int, default=16,
                        help="retained verdict-timeline entries per VC "
                             "(0 keeps full timelines)")
    parser.add_argument("--flight-recorder", action="store_true",
                        help="keep the per-packet flight-recorder ring "
                             "(off by default at fleet scale)")
    parser.add_argument("--trace", action="store_true",
                        help="record and merge lifecycle traces")
    parser.add_argument("--window", type=float, default=None,
                        help="cap the synchronization window below the "
                             "lookahead (protocol stress testing)")
    parser.add_argument("--mp-context", default="spawn",
                        choices=("spawn", "fork", "forkserver"))
    parser.add_argument("--stream", action="store_true",
                        help="ship telemetry deltas once per audit period, "
                             "not only at finish (sharded runs only; same "
                             "merged documents)")
    parser.add_argument("--live", default=None, metavar="PATH|FD",
                        help="write rolling JSONL telemetry records here "
                             "('-' for stdout, digits for an inherited fd); "
                             "tail with python -m repro.obs.live")
    parser.add_argument("--profile", default=None, metavar="PATH",
                        help="enable wall-clock span profiling and write a "
                             "Chrome trace here (also prints the "
                             "per-subsystem table)")
    parser.add_argument("--out", default=None,
                        help="write the merged audit snapshot JSON here")
    parser.add_argument("--render", action="store_true",
                        help="render the merged report to stdout")
    parser.add_argument("--max-rows", type=int, default=40,
                        help="per-VC rows in the rendered report "
                             "(0 = unlimited)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    # Two-phase parse: a preset only changes *defaults*, so any flag
    # the user passes explicitly still wins over the preset's value.
    preview, _ = parser.parse_known_args(argv)
    if preview.list:
        for name in sorted(PRESETS):
            settings = ", ".join(
                f"{key}={value}" for key, value in PRESETS[name].items()
            )
            print(f"{name}: {settings}")
        return 0
    if preview.preset:
        parser.set_defaults(**PRESETS[preview.preset])
    args = parser.parse_args(argv)
    if args.timeline < 0:
        parser.error(f"--timeline must be >= 0, got {args.timeline}")
    if args.window is not None and not args.window > 0:
        parser.error(f"--window must be positive, got {args.window}")
    spec = FleetSpec(
        cells=args.cells,
        vcs_per_cell=args.vcs_per_cell,
        shards=args.shards,
        cp_pairs=args.cp_pairs,
        duration=args.duration,
        seed=args.seed,
        cross_traffic=args.cross,
        pump_packets=args.pump_packets,
        pump_bytes=args.pump_bytes,
        pump_period=args.period,
        tight_every=args.tight_every,
        max_timeline=args.timeline or None,
        flight_recorder=args.flight_recorder,
        trace=args.trace,
        workload=args.workload,
        flow=args.flow,
        topology=args.topology,
        fanout=args.fanout,
        stream=args.stream,
        profile=args.profile is not None,
    )
    if args.stream and args.inline:
        parser.error("--stream requires a sharded run (drop --inline)")
    try:
        spec.validate()
    except ValueError as exc:
        parser.error(str(exc))

    def progress(t_end: float, windows: int) -> None:
        print(f"  window {windows}: virtual time {t_end:.3f}/"
              f"{spec.duration:.3f} s", file=sys.stderr)

    live_sink = None
    close_live = False
    if args.live is not None:
        from repro.obs.stream import open_live_sink

        try:
            live_sink, close_live = open_live_sink(args.live)
        except OSError as exc:
            parser.error(f"--live {args.live}: {exc.strerror}")
    try:
        result = run_fleet(
            spec, inline=args.inline, window=args.window,
            mp_context=args.mp_context,
            progress=progress if not args.inline else None,
            live=live_sink,
        )
    finally:
        if close_live and live_sink is not None:
            live_sink.close()

    summary = result.audit.get("summary", {})
    counts = summary.get("counts", {})
    conformance = summary.get("conformance")
    print(
        f"{result.mode} run: {spec.cells} cell(s) x "
        f"{spec.vcs_per_cell} VC(s) + {spec.cp_pairs} control-plane "
        f"pair(s) over {spec.shards if not args.inline else 1} "
        f"process(es), {spec.duration:g} virtual s"
    )
    print(
        f"  synchronization: lookahead "
        f"{result.lookahead if result.lookahead != float('inf') else 'inf'}"
        f", {result.windows} window(s), {result.messages} cross-shard "
        f"packet(s)"
    )
    print(
        f"  delivered {result.packets_delivered} audited packets in "
        f"{result.wall_s:.2f} wall s "
        f"({result.packets_per_wall_second:,.0f} packets/wall-s)"
    )
    print(
        f"  audit: {summary.get('connections', 0)} connection(s), "
        f"{summary.get('periods', 0)} period(s), conformance "
        f"{conformance if conformance is None else round(conformance, 4)} "
        f"(met {counts.get('met', 0)}, violated "
        f"{counts.get('violated', 0)})"
    )
    try:
        import resource

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"  coordinator peak RSS: {rss_kb / 1024:.1f} MiB"
              f"{' (streaming deltas)' if spec.stream else ''}")
    except ImportError:  # pragma: no cover - non-POSIX
        pass

    if args.profile and result.profile is not None:
        from repro.obs.profile import (
            export_chrome_trace,
            render_profile_table,
        )

        export_chrome_trace(result.profile, args.profile)
        print(f"  profile trace written to {args.profile}")
        print(render_profile_table(result.profile))

    path = args.out or ("fleet_audit.json" if args.render else None)
    if path:
        write_json_document(path, result.audit)
    if args.out:
        print(f"  merged audit written to {args.out}")
    if args.render:
        from repro.obs.report import render_run

        print()
        print(render_run(path, max_rows=args.max_rows or None))

    failures = result.invariant_failures()
    for failure in failures:
        print(f"INVARIANT FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
