"""Summarise an exported Chrome-trace JSON or audit snapshot.

Usage::

    python -m repro.obs.report trace.json [--category CAT] [--top N]
    python -m repro.obs.report run audit.json

The first form prints a trace's time range, the event counts per
category, and a duration summary per span name -- the quick look
before (or instead of) opening the file in Perfetto.

The ``run`` form renders a :class:`~repro.obs.audit.QoSAuditor`
snapshot (``Runtime.export_audit``) as a paper-style run report: a
per-VC conformance table with Table-2 columns, the causal drill-down
of each violated period (lost packets and overlapping fault episodes),
renegotiation outcomes, and a per-group orchestration section
comparing the skew histogram against the HLO tightness bound.

Merged snapshots (:func:`repro.obs.audit.merge_snapshots` -- what a
sharded ``python -m repro.soak`` run emits) render through the same
path: the header names the source shards, attached sections render one
block per source, and the per-VC table is capped at ``--max-rows``
rows (worst conformance first) so a 100k-VC fleet report stays
readable.

Both forms exit non-zero with a one-line message when the file is
missing, truncated, or not valid JSON of the expected shape.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from typing import Any, Dict, List, Optional

from repro.metrics.stats import summarize
from repro.metrics.table import Table


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_events(path: str) -> List[Dict[str, Any]]:
    """Read and validate a Chrome-trace JSON file; returns its events."""
    with open(path) as handle:
        data = json.load(handle)
    if isinstance(data, list):
        events = data  # bare-array variant of the format
    elif isinstance(data, dict) and isinstance(data.get("traceEvents"), list):
        events = data["traceEvents"]
    else:
        raise ValueError(
            f"{path!r} is not Chrome-trace JSON "
            "(expected an object with a traceEvents array)"
        )
    for index, event in enumerate(events):
        if not isinstance(event, dict) or "ph" not in event:
            raise ValueError(f"malformed trace event: {event!r}")
        if event["ph"] == "M":
            continue
        if not _is_number(event.get("ts")):
            raise ValueError(
                f"trace event {index} has no numeric 'ts': {event!r}")
        if "dur" in event and not _is_number(event["dur"]):
            raise ValueError(
                f"trace event {index} has a non-numeric 'dur': {event!r}")
    return events


def _process_names(events: List[Dict[str, Any]]) -> Dict[int, str]:
    names: Dict[int, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "process_name":
            names[event.get("pid", 0)] = event.get("args", {}).get("name", "?")
    return names


def render(path: str, category: Optional[str] = None, top: int = 20) -> str:
    """Build the textual report for one trace file."""
    events = load_events(path)
    tracks = _process_names(events)
    payload = [e for e in events if e.get("ph") != "M"]
    if category:
        payload = [e for e in payload if e.get("cat") == category]
    blocks: List[str] = []
    if not payload:
        return f"{path}: no events" + (f" in category {category!r}" if category else "")

    ts_values = [e["ts"] for e in payload if "ts" in e]
    t0, t1 = min(ts_values), max(
        e["ts"] + e.get("dur", 0.0) for e in payload if "ts" in e
    )
    blocks.append(
        f"{path}: {len(payload)} events on {len(tracks)} tracks, "
        f"{(t1 - t0) / 1e6:.6g} s of virtual time "
        f"({t0 / 1e6:.6g} .. {t1 / 1e6:.6g})"
    )

    by_cat: Dict[str, int] = defaultdict(int)
    for event in payload:
        by_cat[event.get("cat", "?")] += 1
    cat_table = Table(["category", "events"], title="Events per category")
    for cat, count in sorted(by_cat.items(), key=lambda kv: -kv[1]):
        cat_table.add(cat, count)
    blocks.append(cat_table.render())

    durations: Dict[str, List[float]] = defaultdict(list)
    for event in payload:
        if event.get("ph") == "X":
            durations[event.get("name", "?")].append(
                event.get("dur", 0.0) / 1e6
            )
    if durations:
        span_table = Table(
            ["span", "count", "mean (s)", "p95 (s)", "max (s)"],
            title=f"Span durations (top {top} by count)",
        )
        ranked = sorted(durations.items(), key=lambda kv: -len(kv[1]))[:top]
        for name, values in ranked:
            summary = summarize(values)
            span_table.add(
                name, summary.count, summary.mean, summary.p95,
                summary.maximum,
            )
        blocks.append(span_table.render())
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Audit reports (``run`` mode)
# ---------------------------------------------------------------------------

#: Table-2 parameter names, in paper order.
_DIMENSIONS = (
    "throughput", "delay", "jitter", "packet_error_rate", "bit_error_rate",
)


def load_audit(path: str) -> Dict[str, Any]:
    """Read and validate a QoSAuditor snapshot; returns the document."""
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or not isinstance(
        data.get("connections"), list
    ):
        raise ValueError(
            f"{path!r} is not an audit snapshot "
            "(expected an object with a connections array; "
            "produce one with Runtime.export_audit)"
        )
    return data


def _fmt(value: Any, digits: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def _reneg_cell(renegotiations: List[Dict[str, Any]]) -> str:
    if not renegotiations:
        return "-"
    counts: Dict[str, int] = defaultdict(int)
    for item in renegotiations:
        counts[item.get("outcome", "?")] += 1
    return ", ".join(f"{n} {outcome}" for outcome, n in sorted(counts.items()))


def _worst_connections(
    connections: List[Dict[str, Any]], max_rows: Optional[int],
) -> List[Dict[str, Any]]:
    """The ``max_rows`` worst VCs (all of them when under the cap).

    "Worst" ranks by violated-period count, then lowest conformance,
    then vc id -- a fleet report surfaces the misbehaving connections
    and summarises the healthy bulk elsewhere.
    """
    if max_rows is None or len(connections) <= max_rows:
        return connections

    def _rank(conn: Dict[str, Any]):
        counts = conn.get("counts", {})
        conformance = conn.get("conformance")
        return (
            -counts.get("violated", 0),
            conformance if conformance is not None else 2.0,
            str(conn.get("vc", "")),
        )

    return sorted(connections, key=_rank)[:max_rows]


def _conformance_table(connections: List[Dict[str, Any]],
                       max_rows: Optional[int] = None) -> str:
    """Per-VC Table-2 rows; capped at ``max_rows`` worst VCs if set."""
    shown = _worst_connections(connections, max_rows)
    note = ""
    if len(shown) < len(connections):
        note = (
            f"\n  ... and {len(connections) - max_rows} more "
            "connection(s) not shown (rows capped; fleet totals in the "
            "header count every VC)"
        )
    table = Table(
        ["vc", "periods", "met", "degr", "viol", "idle", "conform",
         "ttfv (s)", *(_DIM_HEADERS), "reneg", "release"],
        title="Per-VC conformance (Table-2 dimensions; counts are "
              "violated periods naming the dimension)",
    )
    for conn in shown:
        counts = conn.get("counts", {})
        by_dim: Dict[str, int] = defaultdict(int)
        for entry in conn.get("timeline", ()):
            for violation in entry.get("violations", ()):
                by_dim[violation.get("parameter", "?")] += 1
        released = conn.get("released")
        table.add(
            conn.get("vc", "?"),
            sum(counts.values()),
            counts.get("met", 0),
            counts.get("degraded", 0),
            counts.get("violated", 0),
            counts.get("idle", 0),
            _fmt(conn.get("conformance"), 3),
            _fmt(conn.get("time_to_first_violation"), 3),
            *(by_dim.get(dim, 0) for dim in _DIMENSIONS),
            _reneg_cell(conn.get("renegotiations", ())),
            released.get("reason", "?") if released else "-",
        )
    return table.render() + note


_DIM_HEADERS = ("thr", "delay", "jitter", "per", "ber")


def _drilldown_lines(conn: Dict[str, Any]) -> List[str]:
    lines: List[str] = []
    for drill in conn.get("drilldowns", ()):
        violations = drill.get("violations", ())
        what = "; ".join(
            f"{v.get('parameter', '?')} (contracted "
            f"{_fmt(v.get('contracted'))}, observed "
            f"{_fmt(v.get('observed'))})"
            for v in violations
        ) or "?"
        lines.append(
            f"  vc {conn.get('vc', '?')} period "
            f"[{_fmt(drill.get('t0'), 6)} .. {_fmt(drill.get('t1'), 6)}] "
            f"violated {what}"
        )
        sent = drill.get("sent", 0)
        delivered = drill.get("delivered", 0)
        lost = drill.get("lost", ())
        causes: Dict[str, List[str]] = defaultdict(list)
        for fate in lost:
            where = fate.get("where") or "?"
            causes[f"{fate.get('cause', '?')} on {where}"].append(
                str(fate.get("packet_id"))
            )
        lost_text = "; ".join(
            f"{len(ids)} by {cause} (packet ids {', '.join(ids[:8])})"
            for cause, ids in sorted(causes.items())
        )
        lines.append(
            f"    packets: {sent} sent, {delivered} delivered, "
            f"{len(lost)} lost" + (f" -- {lost_text}" if lost_text else "")
        )
        faults = drill.get("faults", ())
        if faults:
            fault_text = "; ".join(
                f"{f.get('name', '?')} "
                f"[{_fmt(f.get('start'), 6)} .. {_fmt(f.get('end'), 6)}]"
                for f in faults
            )
            lines.append(f"    faults: {fault_text}")
    suppressed = conn.get("drilldowns_suppressed", 0)
    if suppressed:
        lines.append(
            f"    (+{suppressed} further violated periods not drilled down)"
        )
    if not lines:
        # No violated periods: renegotiation/release outcomes are already
        # on the conformance table; a contextless detail line only confuses.
        return lines
    for item in conn.get("renegotiations", ()):
        outcome = item.get("outcome", "?")
        if outcome == "confirmed":
            detail = (
                f"{_fmt(item.get('from_bps'))} -> "
                f"{_fmt(item.get('to_bps'))} bps"
            )
        else:
            detail = item.get("reason") or "?"
        lines.append(
            f"    renegotiation {outcome} @{_fmt(item.get('at'), 6)} "
            f"({detail})"
        )
    released = conn.get("released")
    if released:
        lines.append(
            f"    released @{_fmt(released.get('at'), 6)} "
            f"({released.get('reason', '?')})"
        )
    return lines


def _hist_row(name: str, hist: Dict[str, Any]) -> List[Any]:
    return [
        name, hist.get("count", 0), _fmt(hist.get("p50")),
        _fmt(hist.get("p95")), _fmt(hist.get("p99")), _fmt(hist.get("p999")),
        _fmt(hist.get("max")),
    ]


def _orchestration_section(groups: List[Dict[str, Any]]) -> List[str]:
    blocks: List[str] = []
    table = Table(
        ["session", "streams", "intervals", "bound (s)", "p50", "p95",
         "p99", "p999", "max", "over", "outages", "recoveries", "drops"],
        title="Orchestration: per-group skew vs. HLO tightness bound (s)",
    )
    for group in groups:
        skew = group.get("skew", {})
        table.add(
            group.get("session", "?"),
            len(group.get("streams", ())),
            group.get("intervals", 0),
            _fmt(group.get("bound"), 3),
            _fmt(skew.get("p50")), _fmt(skew.get("p95")),
            _fmt(skew.get("p99")), _fmt(skew.get("p999")),
            _fmt(skew.get("max")),
            group.get("over_bound", 0),
            len(group.get("outages", ())),
            len(group.get("recoveries", ())),
            sum(group.get("regulation_drops", {}).values()),
        )
    blocks.append(table.render())
    for group in groups:
        events = [
            (e.get("at", 0.0), "outage", e.get("vc", "?"))
            for e in group.get("outages", ())
        ] + [
            (e.get("at", 0.0), "recovery", e.get("vc", "?"))
            for e in group.get("recoveries", ())
        ]
        if events:
            timeline = "; ".join(
                f"{kind} {vc} @{_fmt(at, 6)}"
                for at, kind, vc in sorted(events)
            )
            blocks.append(f"  {group.get('session', '?')}: {timeline}")
    return blocks


def _controlplane_section(
    section: Any, labels: Optional[List[str]] = None
) -> List[str]:
    """Render the control plane's desired/actual view.

    ``section`` is one control-plane snapshot, or -- when the audit was
    merged from several shards -- a list with one snapshot per source,
    in merge order.  Each source renders as its own block, headed by
    the matching merge label (``merged_from.labels``) when available,
    else by its 1-based position.  Stream ids inside each block are
    shard-local names; the merge identity rule (see
    :func:`repro.obs.audit.merge_snapshots`) guarantees they are
    already disjoint across sources, so no re-prefixing happens here.
    """
    merged = isinstance(section, list)
    snapshots = section if merged else [section]
    blocks: List[str] = []
    for index, snap in enumerate(snapshots):
        if merged:
            if labels is not None and index < len(labels):
                origin = f" [{labels[index]}]"
            else:
                origin = f" [{index + 1}/{len(snapshots)}]"
        else:
            origin = ""
        leases = snap.get("leases", {})
        violations = leases.get("violations", [])
        events = snap.get("events", {})
        blocks.append(
            f"Control plane{origin}: "
            f"{'converged' if snap.get('converged') else 'NOT converged'}; "
            f"{leases.get('granted_total', 0)} lease(s) granted, "
            f"{len(violations)} double-grant violation(s)"
            + (f" on {', '.join(violations)}" if violations else "")
            + f"; {events.get('published', 0)} hook event(s) published, "
            f"{events.get('delivered', 0)} delivered"
        )
        paths = snap.get("paths", ())
        if not paths:
            continue
        table = Table(
            ["stream", "desired", "actual", "run", "session", "conv",
             "starts", "stops", "outages", "recov", "fails", "last error"],
            title=f"Control plane{origin}: per-stream desired vs. "
                  "actual state",
        )
        for path_entry in paths:
            desired = path_entry.get("desired") or {}
            actual = path_entry.get("actual") or {}
            table.add(
                path_entry.get("stream_id", "?"),
                ("run" if desired.get("running") else "stop")
                if desired else "-",
                "run" if actual.get("running") else "stop",
                actual.get("run_id") or desired.get("run_id") or "-",
                actual.get("session_id") or "-",
                "yes" if path_entry.get("converged") else "NO",
                path_entry.get("starts", 0),
                path_entry.get("stops", 0),
                path_entry.get("outages", 0),
                path_entry.get("recoveries", 0),
                path_entry.get("failures", 0),
                path_entry.get("last_error") or "-",
            )
        blocks.append(table.render())
    return blocks


def render_run(path: str, max_rows: Optional[int] = 200) -> str:
    """Build the run report for one audit snapshot.

    ``max_rows`` caps the per-VC conformance table for fleet-scale
    audits (``None`` disables the cap); the header and histograms
    always cover every connection.
    """
    data = load_audit(path)
    connections = data["connections"]
    groups = data.get("groups", [])
    summary = data.get("summary", {})
    blocks: List[str] = []
    counts = summary.get("counts", {})
    blocks.append(
        f"{path}: audit of {len(connections)} connection(s), "
        f"{summary.get('periods', 0)} sample periods "
        f"(met {counts.get('met', 0)}, degraded {counts.get('degraded', 0)}, "
        f"violated {counts.get('violated', 0)}, idle {counts.get('idle', 0)}); "
        f"conformance {_fmt(summary.get('conformance'), 3)}, "
        f"mean time-to-first-violation "
        f"{_fmt(summary.get('mean_time_to_first_violation'), 3)} s"
    )
    merged_from = data.get("merged_from")
    merge_labels: Optional[List[str]] = None
    if merged_from:
        merge_labels = merged_from.get("labels")
        origin = (
            ", ".join(merge_labels) if merge_labels
            else f"{merged_from.get('snapshots', '?')} snapshot(s)"
        )
        blocks.append(
            f"Merged from {merged_from.get('snapshots', '?')} "
            f"snapshot(s): {origin}"
        )
    baseline_diff = data.get("baseline_diff")
    if baseline_diff is not None:
        from repro.obs.baseline import render_baseline_diff

        blocks.append(render_baseline_diff(baseline_diff))
    if connections:
        blocks.append(_conformance_table(connections, max_rows=max_rows))
        drill_blocks: List[str] = []
        for conn in connections:
            lines = _drilldown_lines(conn)
            if lines:
                drill_blocks.extend(lines)
        if drill_blocks:
            blocks.append(
                "Violated periods, drilled down to causal packets and "
                "faults:\n" + "\n".join(drill_blocks)
            )
    if groups:
        blocks.extend(_orchestration_section(groups))
    controlplane = data.get("sections", {}).get("controlplane")
    if controlplane is not None:
        blocks.extend(
            _controlplane_section(controlplane, labels=merge_labels)
        )
    histograms = data.get("histograms", {})
    if histograms:
        hist_table = Table(
            ["metric", "samples", "p50", "p95", "p99", "p999", "max"],
            title="Fleet latency histograms (s)",
        )
        for name, hist in sorted(histograms.items()):
            hist_table.add(*_hist_row(name, hist))
        blocks.append(hist_table.render())
    return "\n\n".join(blocks)


def render_run_json(
    path: str, max_rows: Optional[int] = 200,
) -> Dict[str, Any]:
    """The run report as a machine-readable document.

    Mirrors :func:`render_run` section for section -- summary header,
    merge provenance, baseline diff, the ranked/capped per-VC rows
    (with the same per-dimension violated-period counts the table
    derives from timelines), groups, attached sections, histograms --
    so scripts can consume what the text report shows without scraping
    tables.  Raises the same exceptions as :func:`render_run` on a
    malformed snapshot, so the CLI's exit codes are unchanged.
    """
    data = load_audit(path)
    connections = data["connections"]
    shown = _worst_connections(connections, max_rows)
    rows: List[Dict[str, Any]] = []
    for conn in shown:
        by_dim: Dict[str, int] = defaultdict(int)
        for entry in conn.get("timeline", ()):
            for violation in entry.get("violations", ()):
                by_dim[violation.get("parameter", "?")] += 1
        released = conn.get("released")
        rows.append({
            "vc": conn.get("vc"),
            "counts": dict(conn.get("counts", {})),
            "conformance": conn.get("conformance"),
            "time_to_first_violation":
                conn.get("time_to_first_violation"),
            "violations_by_dimension":
                {dim: by_dim[dim] for dim in _DIMENSIONS if by_dim[dim]},
            "renegotiations": len(conn.get("renegotiations", ())),
            "released": released.get("reason") if released else None,
            "drilldowns": conn.get("drilldowns", []),
            "drilldowns_suppressed":
                conn.get("drilldowns_suppressed", 0),
        })
    return {
        "kind": "repro-run-report",
        "path": path,
        "now": data.get("now"),
        "summary": data.get("summary", {}),
        "merged_from": data.get("merged_from"),
        "baseline_diff": data.get("baseline_diff"),
        "connections_total": len(connections),
        "connections_shown": len(shown),
        "connections": rows,
        "groups": data.get("groups", []),
        "sections": data.get("sections", {}),
        "histograms": data.get("histograms", {}),
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _main_run(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report run",
        description="Render a QoS conformance run report from an audit "
                    "snapshot (Runtime.export_audit).",
    )
    parser.add_argument("audit", help="path to an exported audit JSON")
    parser.add_argument(
        "--max-rows", type=int, default=200,
        help="cap the per-VC table at the N worst connections "
             "(0 = unlimited; default 200)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the report sections as machine-readable JSON "
             "instead of rendered tables (same exit codes)",
    )
    args = parser.parse_args(argv)
    max_rows = args.max_rows if args.max_rows > 0 else None
    try:
        if args.json:
            text = json.dumps(
                render_run_json(args.audit, max_rows=max_rows), indent=2,
            )
        else:
            text = render_run(args.audit, max_rows=max_rows)
    except OSError as exc:
        print(f"cannot read {args.audit!r}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        print(f"invalid audit snapshot: {exc}", file=sys.stderr)
        return 1
    try:
        print(text)
    except BrokenPipeError:
        # Reader (e.g. ``| head``) closed the pipe early; not an error.
        sys.stderr.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "run":
        return _main_run(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("trace", help="path to an exported Chrome-trace JSON")
    parser.add_argument("--category", help="only report this event category")
    parser.add_argument("--top", type=int, default=20,
                        help="span names to list (by event count)")
    args = parser.parse_args(argv)
    try:
        text = render(args.trace, category=args.category, top=args.top)
    except OSError as exc:
        print(f"cannot read trace {args.trace!r}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        # Truncated download, wrong file, hand-edited JSON: report and
        # exit non-zero instead of surfacing a traceback.
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 1
    try:
        print(text)
    except BrokenPipeError:
        # Reader (e.g. ``| head``) closed the pipe early; not an error.
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
