"""Live SLO watcher over streamed soak telemetry.

``repro.soak``/``repro.scenarios`` runs started with ``--live <path>``
append one JSON line per audit period -- at each synchronization barrier
where the coordinator folded a telemetry delta (the folder's rolling
summary) -- plus a ``final`` record.  This CLI consumes that stream::

    # watch a run as it happens (Ctrl-C to stop)
    python -m repro.obs.live tail soak.jsonl --follow

    # gate on the finished run: exit 1 on any unforgiven SLO breach
    python -m repro.obs.live check soak.jsonl \
        --slo 'conformance>=0.95' \
        --baselines BASELINES.json --cell 'cbr/cells/chaos@s0'

``tail`` renders one line per record and a closing SLO report; it never
fails a build.  ``check`` is the CI gate: every SLO must hold on the
final record.  A *conformance* breach is forgiven when ``--baselines``
names a cell whose checked-in conformance is within tolerance of the
observed value -- the degradation is a known, baselined property of the
cell (chaos variants run below pristine conformance by design), not
drift.  Anything else -- an unforgiven breach, a missing final record,
or an SLO still pending at exit -- fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.slo import (
    SLO,
    default_slos,
    evaluate,
    parse_slo,
    render_statuses,
)

__all__ = ["LogError", "main", "iter_records"]


class LogError(ValueError):
    """A telemetry log that cannot be opened or holds a non-record line."""


def iter_records(path: str, follow: bool = False,
                 poll: float = 0.25) -> Iterator[Dict[str, Any]]:
    """Yield JSONL records from ``path``, optionally tailing growth.

    Partial trailing lines (a writer mid-``write``) are buffered until
    their newline arrives.  In follow mode the iterator only returns
    after a ``final`` record; interrupt to stop early.  Raises
    :class:`LogError` naming ``path`` (and ``path:line`` for a line
    that is not a JSON object).
    """
    try:
        handle = open(path)
    except OSError as exc:
        raise LogError(f"{path}: {exc.strerror}") from None
    with handle:
        pending = ""
        lineno = 0
        while True:
            chunk = handle.readline()
            if chunk:
                pending += chunk
                if not pending.endswith("\n"):
                    continue
                lineno += 1
                try:
                    record = json.loads(pending)
                except ValueError:
                    record = None
                if not isinstance(record, dict):
                    raise LogError(
                        f"{path}:{lineno}: not a JSON telemetry record"
                    )
                pending = ""
                yield record
                if record.get("kind") == "final":
                    return
                continue
            if not follow:
                return
            time.sleep(poll)


def _slos(specs: Optional[List[str]]) -> List[SLO]:
    if not specs:
        return list(default_slos())
    return [parse_slo(spec) for spec in specs]


def _describe(record: Dict[str, Any], slos: List[SLO]) -> str:
    conf = record.get("conformance")
    parts = [
        f"t={record.get('t', 0.0):.1f}s",
        f"w={record.get('windows', 0)}",
        f"conn={record.get('connections', 0)}",
        f"periods={record.get('periods', 0)}",
        "conf=" + (f"{conf:.4f}" if conf is not None else "-"),
    ]
    line = " ".join(parts)
    statuses = evaluate(slos, record)
    flagged = [s for s in statuses if s.ok is False]
    if flagged:
        line += "  !! " + render_statuses(flagged)
    return line


def _main_tail(args: argparse.Namespace, slos: List[SLO]) -> int:
    last: Optional[Dict[str, Any]] = None
    try:
        for record in iter_records(args.log, follow=args.follow,
                                   poll=args.interval):
            last = record
            if record.get("kind") == "final":
                print(f"final: {_describe(record, slos)}")
            else:
                print(_describe(record, slos))
    except KeyboardInterrupt:
        pass
    if last is None:
        print(f"{args.log}: no records", file=sys.stderr)
        return 1
    print(render_statuses(evaluate(slos, last)))
    return 0


def _main_check(args: argparse.Namespace, slos: List[SLO]) -> int:
    final: Optional[Dict[str, Any]] = None
    last: Optional[Dict[str, Any]] = None
    count = 0
    for record in iter_records(args.log):
        last = record
        count += 1
        if record.get("kind") == "final":
            final = record
    if last is None:
        print(f"{args.log}: no records", file=sys.stderr)
        return 2
    record = final if final is not None else last
    statuses = evaluate(slos, record)
    breaches = [s for s in statuses if s.ok is False]
    pending = [s for s in statuses if s.ok is None]
    forgiven = []
    if breaches and args.baselines and args.cell:
        forgiven = _forgive(breaches, record, args)
        breaches = [s for s in breaches if s not in forgiven]
    print(f"{args.log}: {count} record(s), "
          + ("finished" if final is not None else "NO final record"))
    print(render_statuses(statuses))
    for status in forgiven:
        print(f"forgiven: {status.slo.name} matches baselined "
              f"conformance for {args.cell}")
    if final is None and not args.allow_pending:
        print("breach: run did not reach a final record",
              file=sys.stderr)
        return 1
    if pending and not args.allow_pending:
        names = ", ".join(s.slo.name for s in pending)
        print(f"breach: SLO(s) still pending at exit: {names}",
              file=sys.stderr)
        return 1
    return 1 if breaches else 0


def _forgive(breaches, record: Dict[str, Any],
             args: argparse.Namespace) -> List[Any]:
    """Conformance breaches consistent with the checked-in baseline."""
    try:
        with open(args.baselines) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"baselines unreadable: {exc}", file=sys.stderr)
        return []
    cell = data.get("cells", {}).get(args.cell)
    if cell is None or cell.get("conformance") is None:
        return []
    tolerance = (
        args.tolerance if args.tolerance is not None
        else data.get("tolerance", 0.02)
    )
    observed = record.get("conformance")
    if observed is None:
        return []
    if abs(observed - cell["conformance"]) > tolerance:
        return []
    return [s for s in breaches if s.slo.metric == "conformance"]


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Friendliness: `live soak.jsonl` tails by default.
    if argv and argv[0] not in {"tail", "check", "-h", "--help"}:
        argv.insert(0, "tail")
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.live",
        description="Watch or gate a streamed soak telemetry log.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    tail = sub.add_parser("tail", help="render records as they arrive")
    tail.add_argument("log", help="JSONL telemetry log (--live sink)")
    tail.add_argument("--follow", "-f", action="store_true",
                      help="poll for growth until the final record")
    tail.add_argument("--interval", type=float, default=0.25,
                      help="poll interval in seconds (with --follow)")
    tail.add_argument("--slo", action="append", metavar="SPEC",
                      help="objective like 'conformance>=0.95' "
                           "(repeatable; default: stock SLOs)")
    check = sub.add_parser("check", help="exit 1 on unforgiven breach")
    check.add_argument("log")
    check.add_argument("--slo", action="append", metavar="SPEC")
    check.add_argument("--baselines",
                       help="BASELINES.json for drift forgiveness")
    check.add_argument("--cell",
                       help="scenario id to look up in --baselines")
    check.add_argument("--tolerance", type=float, default=None,
                       help="override the baseline file's tolerance")
    check.add_argument("--allow-pending", action="store_true",
                       help="don't fail on pending SLOs / missing final")
    args = parser.parse_args(argv)
    try:
        slos = _slos(args.slo)
    except ValueError as exc:
        parser.error(f"--slo: {exc}")
    run = _main_tail if args.mode == "tail" else _main_check
    try:
        return run(args, slos)
    except LogError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
