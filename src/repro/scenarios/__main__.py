"""CLI for the scenario matrix: ``python -m repro.scenarios --matrix``.

Modes (mutually exclusive):

- ``--matrix`` -- run every cell of the checked-in matrix, diff each
  against the baselines file, shrink degraded chaotic cells to minimal
  repro files, and exit 1 on any drift/invariant failure;
- ``--cell ID`` -- run one cell (by scenario id) and print its summary;
- ``--replay FILE`` -- re-run a repro file's minimal fault plan and
  report whether it still reproduces the conformance violation;
- ``--list`` -- print the matrix's scenario ids and exit.

``--update-baselines`` rewrites the baselines file from the observed
matrix instead of failing on drift (review the diff before
committing!).  Exit codes: 0 clean, 1 drift or invariant failure or
non-reproducing replay, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.obs.baseline import load_baselines, save_baselines
from repro.scenarios.runner import (
    cell_outcome,
    replay_repro,
    run_cell,
    run_matrix,
)
from repro.scenarios.spec import default_matrix, parse_scenario_id


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run the scenario matrix against its conformance "
                    "baselines.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--matrix", action="store_true",
                      help="run every matrix cell and diff baselines")
    mode.add_argument("--cell", metavar="ID",
                      help="run one cell by scenario id "
                           "(see --list)")
    mode.add_argument("--replay", metavar="FILE",
                      help="re-run a shrunk repro file's minimal plan")
    mode.add_argument("--list", action="store_true",
                      help="print the matrix's scenario ids")
    parser.add_argument("--seed", type=int, default=0,
                        help="matrix seed (default 0, the baselined one)")
    parser.add_argument("--baselines", default="BASELINES.json",
                        help="baselines file (default BASELINES.json)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the baselines file's drift band")
    parser.add_argument("--update-baselines", action="store_true",
                        help="rewrite the baselines file from this run "
                             "instead of failing on drift")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report degraded cells without shrinking "
                             "their fault plans")
    parser.add_argument("--repro-dir", default=".",
                        help="directory for shrunk repro files")
    parser.add_argument("--max-probes", type=int, default=200,
                        help="shrinker probe budget per degraded cell")
    cell = parser.add_argument_group(
        "cell sizing (--cell mode only)",
        "override the matrix-default fleet sizing of the one cell "
        "being run; the scenario id (and thus its baseline entry) is "
        "unchanged, so keep overrides shard-count-only when diffing "
        "against baselines",
    )
    cell.add_argument("--shards", type=int, default=None,
                      help="worker processes (>1 enables sharding)")
    cell.add_argument("--cells", type=int, default=None)
    cell.add_argument("--vcs-per-cell", type=int, default=None)
    cell.add_argument("--duration", type=float, default=None,
                      help="virtual seconds to simulate")
    cell.add_argument("--stream", action="store_true",
                      help="telemetry deltas once per audit period, not "
                           "only at finish (sharded cells only)")
    cell.add_argument("--live", default=None, metavar="PATH|FD",
                      help="rolling JSONL telemetry sink ('-' for "
                           "stdout); tail with python -m repro.obs.live")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.tolerance is not None and args.tolerance < 0:
        parser.error("--tolerance must be >= 0")
    specs = default_matrix(seed=args.seed)

    if args.list:
        for spec in specs:
            print(spec.scenario_id)
        return 0

    if args.replay:
        try:
            verdict = replay_repro(args.replay)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            parser.error(f"cannot replay {args.replay!r}: {exc}")
        print(
            f"{verdict['scenario']}: {verdict['episodes']} episode(s), "
            f"conformance {verdict['conformance']} vs floor "
            f"{verdict['floor']} -> "
            + ("REPRODUCED" if verdict["reproduced"] else "not reproduced")
        )
        return 0 if verdict["reproduced"] else 1

    baselines = None
    try:
        baselines = load_baselines(args.baselines)
    except FileNotFoundError:
        if not args.update_baselines:
            print(f"no baselines file at {args.baselines!r} "
                  "(run with --update-baselines to create it)",
                  file=sys.stderr)
    except ValueError as exc:
        parser.error(str(exc))

    if args.cell:
        try:
            spec = parse_scenario_id(args.cell)
            overrides = {
                name: value for name, value in (
                    ("shards", args.shards),
                    ("cells", args.cells),
                    ("vcs_per_cell", args.vcs_per_cell),
                    ("duration", args.duration),
                ) if value is not None
            }
            if overrides:
                spec = dataclasses.replace(spec, **overrides)
            spec.validate()
        except ValueError as exc:
            parser.error(str(exc))
        if args.stream and spec.shards == 1:
            parser.error("--stream needs a sharded cell (--shards > 1)")
        live_sink = None
        close_live = False
        if args.live is not None:
            from repro.obs.stream import open_live_sink

            try:
                live_sink, close_live = open_live_sink(args.live)
            except OSError as exc:
                parser.error(f"--live {args.live}: {exc.strerror}")
        try:
            result = run_cell(
                spec, stream=args.stream, live=live_sink,
            )
        finally:
            if close_live and live_sink is not None:
                live_sink.close()
        outcome = cell_outcome(spec, result, baselines, args.tolerance)
        print(f"{outcome.scenario_id}: {outcome.status} "
              f"(conformance {outcome.conformance}, "
              f"{outcome.summary.get('periods', 0)} periods)")
        for failure in outcome.invariant_failures:
            print(f"INVARIANT FAILED: {failure}", file=sys.stderr)
        return 0 if outcome.ok or outcome.status == "new" else 1

    report = run_matrix(
        specs, baselines,
        tolerance=args.tolerance,
        shrink=not args.no_shrink,
        repro_dir=args.repro_dir,
        max_probes=args.max_probes,
        log=print,
    )
    bad = [o for o in report.outcomes if not o.ok]
    print(f"matrix: {len(report.outcomes)} cell(s), "
          f"{len(report.outcomes) - len(bad)} ok, {len(bad)} failing "
          f"(tolerance {report.tolerance})")
    if args.update_baselines:
        tolerance = report.tolerance
        if baselines is not None:
            tolerance = baselines.get("tolerance", tolerance)
        if args.tolerance is not None:
            tolerance = args.tolerance
        save_baselines(args.baselines, {
            "tolerance": tolerance,
            "cells": report.refreshed_cells(),
        })
        print(f"baselines rewritten to {args.baselines}")
        # Invariant failures still fail an update run; drift does not.
        return 1 if any(o.invariant_failures for o in report.outcomes) else 0
    if baselines is None:
        print("no baselines to diff against", file=sys.stderr)
        return 1
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
