"""Fleet telemetry as deltas: the worker-side encoder, the coordinator fold.

A sharded run's audit and metrics reach the coordinator only as deltas,
folded by one :class:`DeltaFolder`.  ``FleetSpec.stream`` sets only the
cadence -- a delta once per audit period, or one final delta per
worker -- and both fold to the same bytes.

- :class:`DeltaEncoder` runs inside a shard worker.  Each delta is what
  changed since the previous one: counter/gauge/window values, audit
  verdict periods filed, renegotiations, releases and drill-downs
  appended.  The fleet's encoder ships at the first barrier at or after
  each whole multiple of the audit period (when every audited VC files
  a verdict), piggybacked on the ``("window", ...)`` pipe message of
  :mod:`repro.sim.shard.runner` (zero extra round trips); the final
  delta travels in the worker's ``collect()`` payload.
- :class:`DeltaFolder` runs inside the coordinator.  It folds each
  delta into per-shard state as it arrives and at finish time hands
  that state to the one document builder,
  :func:`repro.obs.audit.merge_snapshots` /
  :func:`repro.obs.registry.merge_snapshots`.  It also maintains an
  O(1) rolling summary (conformance so far, first breach time, skew
  bound overshoots) for the live SLO watcher (:mod:`repro.obs.live`).
- :class:`LiveWriter` appends rolling records as JSON lines to any
  file-like sink, one line per barrier that folded a delta plus one
  final record, flushed eagerly so ``tail -f`` and the watch CLI see
  them immediately.

Delta protocol (one dict per delta, ``None`` when nothing changed or
the period has not turned)::

    {"v": 1, "final": bool, "now": <shard virtual time>,
     "audit": {"connections": {vc: {"full": <to_dict>} | <sparse>},
               "groups": {...}, "histograms": {...}, "sections": {...}},
     "metrics": {"counters": {...}, "gauges": {...},
                 "windows": {...}, "series": {...}}}

A connection's first appearance ships its complete ``to_dict`` (the
"registration storm" -- that data must cross once either way);
afterwards only increments travel: absolute verdict counts (small ints,
exact), the timeline *tail* (new entries, already truncated to the
auditor's ``max_timeline`` discipline so the folded tail matches the
snapshot's), appended renegotiations/drill-downs, and first-violation /
release marks.  Metrics ship sparse absolute values -- floats are
*copied*, never re-derived by subtraction, which is what makes the fold
bit-exact.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, TextIO, Tuple

from repro.obs.audit import _contract_dict, merge_snapshots
from repro.obs.registry import merge_snapshots as _merge_metrics

__all__ = [
    "DeltaEncoder",
    "DeltaFolder",
    "LiveWriter",
    "open_live_sink",
]

#: Delta wire-format version (bump on incompatible change).
DELTA_VERSION = 1

#: Audit histogram names, in per-shard snapshot order.
_AUDIT_HISTS = ("delay_s", "jitter_s")


class _ConnCursor:
    """What the encoder has already shipped for one connection."""

    __slots__ = (
        "filed", "reneg", "drill", "released", "fv", "contract",
        "suppressed",
    )

    def __init__(self, conn):
        self.filed = sum(conn.counts.values())
        self.reneg = len(conn.renegotiations)
        self.drill = len(conn.drilldowns)
        self.released = conn.released
        self.fv = conn.first_violation_at is not None
        self.contract = conn.contract
        self.suppressed = conn.drilldowns_suppressed

    def delta(self, conn) -> Dict[str, Any]:
        d: Dict[str, Any] = {}
        filed = sum(conn.counts.values())
        if filed != self.filed:
            new = filed - self.filed
            self.filed = filed
            d["counts"] = dict(conn.counts)
            timeline = conn.timeline
            if timeline:
                # The newest entries are the last ones; truncation only
                # ever drops from the front, so the tail slice is exactly
                # the filed-period entries the auditor still retains.
                d["timeline"] = timeline[-min(new, len(timeline)):]
        if conn.contract is not self.contract:
            self.contract = conn.contract
            d["contract"] = _contract_dict(conn.contract)
        if not self.fv and conn.first_violation_at is not None:
            self.fv = True
            d["first_violation_at"] = conn.first_violation_at
        if len(conn.renegotiations) > self.reneg:
            d["renegotiations"] = conn.renegotiations[self.reneg:]
            self.reneg = len(conn.renegotiations)
        if conn.released is not self.released:
            self.released = conn.released
            d["released"] = conn.released
        if len(conn.drilldowns) > self.drill:
            d["drilldowns"] = conn.drilldowns[self.drill:]
            self.drill = len(conn.drilldowns)
        if conn.drilldowns_suppressed != self.suppressed:
            self.suppressed = conn.drilldowns_suppressed
            d["drilldowns_suppressed"] = conn.drilldowns_suppressed
        return d


class _GroupCursor:
    """What the encoder has already shipped for one orchestration group."""

    __slots__ = ("skew_count", "over_bound", "outages", "recoveries",
                 "reg_total")

    def __init__(self, group):
        self.skew_count = group.skew_hist.count
        self.over_bound = group.over_bound
        self.outages = len(group.outages)
        self.recoveries = len(group.recoveries)
        self.reg_total = sum(group.regulation_drops.values())

    def delta(self, group) -> Dict[str, Any]:
        d: Dict[str, Any] = {}
        if group.skew_hist.count != self.skew_count:
            self.skew_count = group.skew_hist.count
            d["skew"] = group.skew_hist.to_dict()
        if group.over_bound != self.over_bound:
            self.over_bound = group.over_bound
            d["over_bound"] = group.over_bound
        if len(group.outages) > self.outages:
            d["outages"] = group.outages[self.outages:]
            self.outages = len(group.outages)
        if len(group.recoveries) > self.recoveries:
            d["recoveries"] = group.recoveries[self.recoveries:]
            self.recoveries = len(group.recoveries)
        reg_total = sum(group.regulation_drops.values())
        if reg_total != self.reg_total:
            self.reg_total = reg_total
            d["regulation_drops"] = dict(group.regulation_drops)
        return d


class DeltaEncoder:
    """Worker-side incremental snapshot encoder.

    Wraps a :class:`~repro.obs.audit.QoSAuditor` and/or a
    :class:`~repro.obs.registry.MetricsRegistry` and turns "what changed
    since the last delta" into one picklable delta dict.  With a
    ``period``, a non-final call ships only once the clock has reached
    the next whole multiple of it, and is ``None`` (encoding nothing)
    before then; without one every call ships.  Audit changes are
    discovered through the auditor's dirty sets (a dict insert per
    recording call -- connections and groups untouched since the last
    delta cost nothing); registry changes by a linear scan of the
    instruments against last-shipped values, which for fleet-scale
    registries is a few thousand compares per delta.

    ``delta(final=True)`` must be called exactly once, after the run
    finishes: it re-ships every windowed stat (their ``end`` edge is the
    clock, which moves even without observations), the audit histograms
    and the lazily rendered report sections, so the folder's final state
    matches a finish-time snapshot exactly.
    """

    def __init__(self, auditor=None, registry=None,
                 period: Optional[float] = None):
        if auditor is None and registry is None:
            raise ValueError("need an auditor and/or a registry to stream")
        self.auditor = auditor
        self.registry = registry
        self.period = period
        #: Clock reading at which the next non-final delta ships.
        self._due = period
        self._conns: Dict[str, _ConnCursor] = {}
        self._groups: Dict[str, _GroupCursor] = {}
        # Seed with the attach-time counts so an idle histogram does
        # not look changed on the first barrier (final re-ships all).
        self._hist_counts: Dict[str, int] = {}
        if auditor is not None:
            for name, hist in zip(
                _AUDIT_HISTS, (auditor.delay_hist, auditor.jitter_hist),
            ):
                self._hist_counts[name] = hist.count
        self._counter_last: Dict[str, float] = {}
        self._gauge_last: Dict[str, float] = {}
        self._window_last: Dict[str, Tuple[float, int, float]] = {}
        self._series_last: Dict[str, int] = {}

    def _now(self) -> float:
        if self.auditor is not None:
            return self.auditor.sim.now
        return self.registry.now

    def delta(self, final: bool = False) -> Optional[Dict[str, Any]]:
        """The changes since the previous call (``None`` when nothing).

        A final delta is never ``None``: it always carries the closing
        windowed stats, histograms and sections.
        """
        now = self._now()
        if not final and self.period is not None:
            if now < self._due:
                return None
            self._due = (now // self.period + 1) * self.period
        out: Dict[str, Any] = {"v": DELTA_VERSION, "final": final, "now": now}
        changed = False
        if self.auditor is not None:
            audit = self._audit_delta(final)
            if audit:
                out["audit"] = audit
                changed = True
        if self.registry is not None:
            metrics = self._metrics_delta(final)
            # A final delta always carries the metrics key (possibly
            # empty): its presence tells the folder a registry exists
            # on this shard, so the merged metrics document and its
            # closing ``now`` match the snapshot-merge path even for a
            # registry that never recorded anything.
            if metrics or final:
                out["metrics"] = metrics
                changed = changed or bool(metrics)
        if not changed and not final:
            return None
        return out

    # -- audit -------------------------------------------------------------

    def _audit_delta(self, final: bool) -> Dict[str, Any]:
        aud = self.auditor
        out: Dict[str, Any] = {}
        dirty = aud._dirty_connections
        if dirty:
            aud._dirty_connections = {}
            conns: Dict[str, Any] = {}
            records = aud._connections
            cursors = self._conns
            for key in dirty:
                conn = records.get(key)
                if conn is None:  # pragma: no cover - defensive
                    continue
                cursor = cursors.get(key)
                if cursor is None:
                    cursors[key] = _ConnCursor(conn)
                    conns[key] = {"full": conn.to_dict()}
                else:
                    d = cursor.delta(conn)
                    if d:
                        conns[key] = d
            if conns:
                out["connections"] = conns
        dirty_groups = aud._dirty_groups
        if dirty_groups:
            aud._dirty_groups = {}
            groups: Dict[str, Any] = {}
            for key in dirty_groups:
                group = aud._groups.get(key)
                if group is None:  # pragma: no cover - defensive
                    continue
                cursor = self._groups.get(key)
                if cursor is None:
                    self._groups[key] = _GroupCursor(group)
                    groups[key] = {"full": group.to_dict()}
                else:
                    d = cursor.delta(group)
                    if d:
                        groups[key] = d
            if groups:
                out["groups"] = groups
        hists: Dict[str, Any] = {}
        for name, hist in zip(_AUDIT_HISTS, (aud.delay_hist, aud.jitter_hist)):
            if final or hist.count != self._hist_counts.get(name):
                self._hist_counts[name] = hist.count
                hists[name] = hist.to_dict()
        if hists:
            out["histograms"] = hists
        if final and aud._sections:
            out["sections"] = {
                name: provider()
                for name, provider in sorted(aud._sections.items())
            }
        return out

    # -- metrics -----------------------------------------------------------

    def _metrics_delta(self, final: bool) -> Dict[str, Any]:
        reg = self.registry
        out: Dict[str, Any] = {}
        counters: Dict[str, float] = {}
        last = self._counter_last
        for name, counter in reg._counters.items():
            value = counter.value
            if last.get(name) != value:
                last[name] = value
                counters[name] = value
        if counters:
            out["counters"] = counters
        gauges: Dict[str, float] = {}
        last = self._gauge_last
        for name, gauge in reg._gauges.items():
            value = gauge.value
            if last.get(name) != value:
                last[name] = value
                gauges[name] = value
        if gauges:
            out["gauges"] = gauges
        windows: Dict[str, Any] = {}
        wlast = self._window_last
        for name, window in reg._windows.items():
            key = (window.window_start, window.count, window.total)
            if final or wlast.get(name) != key:
                wlast[name] = key
                snap = window.snapshot()
                windows[name] = {
                    "start": snap.start,
                    "end": snap.end,
                    "count": snap.count,
                    "total": snap.total,
                    "min": None if snap.count == 0 else snap.minimum,
                    "max": None if snap.count == 0 else snap.maximum,
                }
        if windows:
            out["windows"] = windows
        series: Dict[str, int] = {}
        slast = self._series_last
        for name, samples in reg._series.items():
            length = len(samples)
            if final or slast.get(name) != length:
                slast[name] = length
                series[name] = length
        if series:
            out["series"] = series
        return out


class DeltaFolder:
    """Coordinator-side fold of per-shard deltas into merged documents.

    Resident state is exactly one evolving copy of the merged document
    (which the run's output needs anyway) plus O(1) rolling aggregates;
    the per-window transient is one delta.  ``result_audit()`` /
    ``result_metrics()`` pass each shard's folded state to the
    ``merge_snapshots`` builders, so they equal (same values, same key
    order) a merge of the shards' finish-time snapshots.
    """

    def __init__(self, shards: int, labels: Optional[List[str]] = None,
                 max_timeline: Optional[int] = None):
        if labels is not None and len(labels) != shards:
            raise ValueError(
                f"got {len(labels)} labels for {shards} shards"
            )
        self.shards = shards
        self.labels = list(labels) if labels is not None else None
        self.max_timeline = max_timeline
        #: Barriers passed so far (maintained by the caller's progress
        #: hook; purely informational).
        self.windows = 0
        self._now = [0.0] * shards
        self._conns: List[Dict[str, Dict[str, Any]]] = [
            {} for _ in range(shards)
        ]
        self._groups: List[Dict[str, Dict[str, Any]]] = [
            {} for _ in range(shards)
        ]
        self._hists: List[Dict[str, Any]] = [{} for _ in range(shards)]
        self._sections: List[Dict[str, Any]] = [{} for _ in range(shards)]
        self._metrics: List[Dict[str, Any]] = [
            {"now": 0.0, "counters": {}, "gauges": {}, "windows": {},
             "series": {}}
            for _ in range(shards)
        ]
        self._have_metrics = False
        # Rolling aggregates (O(1) to read; fed by every fold).
        self._counts = {"met": 0, "degraded": 0, "violated": 0, "idle": 0}
        self._conn_total = 0
        self._first_breach: Optional[float] = None
        self._over_bound = 0
        self._reneg = 0
        self._releases = 0

    # -- folding -----------------------------------------------------------

    def fold(self, shard: int, delta: Optional[Dict[str, Any]]) -> None:
        """Fold one shard's barrier delta (``None`` is a no-op)."""
        if delta is None:
            return
        now = delta.get("now")
        final = bool(delta.get("final"))
        if now is not None and now > self._now[shard]:
            self._now[shard] = now
        audit = delta.get("audit")
        if audit:
            self._fold_audit(shard, audit, final)
        metrics = delta.get("metrics")
        if metrics is not None:
            self._fold_metrics(shard, metrics, now)

    def _fold_audit(self, shard: int, audit: Dict[str, Any],
                    final: bool) -> None:
        conns = self._conns[shard]
        for vc, d in audit.get("connections", {}).items():
            full = d.get("full")
            if full is not None:
                conns[vc] = full
                self._conn_total += 1
                for verdict, count in full["counts"].items():
                    self._counts[verdict] = (
                        self._counts.get(verdict, 0) + count
                    )
                self._reneg += len(full["renegotiations"])
                if full["released"] is not None:
                    self._releases += 1
                ttfv = full["time_to_first_violation"]
                if ttfv is not None:
                    self._breach(full["registered_at"] + ttfv)
                continue
            conn = conns.get(vc)
            if conn is None:  # mid-stream reader missed the full record
                continue
            counts = d.get("counts")
            if counts is not None:
                old = conn["counts"]
                for verdict, count in counts.items():
                    self._counts[verdict] = (
                        self._counts.get(verdict, 0)
                        + count - old.get(verdict, 0)
                    )
                conn["counts"] = counts
            tail = d.get("timeline")
            if tail:
                timeline = conn["timeline"]
                timeline.extend(tail)
                limit = self.max_timeline
                if limit is not None and len(timeline) > limit:
                    del timeline[: len(timeline) - limit]
            contract = d.get("contract")
            if contract is not None:
                conn["contract"] = contract
            fv = d.get("first_violation_at")
            if fv is not None:
                conn["time_to_first_violation"] = fv - conn["registered_at"]
                self._breach(fv)
            reneg = d.get("renegotiations")
            if reneg:
                conn["renegotiations"].extend(reneg)
                self._reneg += len(reneg)
            released = d.get("released")
            if released is not None:
                if conn["released"] is None:
                    self._releases += 1
                conn["released"] = released
            drills = d.get("drilldowns")
            if drills:
                conn["drilldowns"].extend(drills)
            suppressed = d.get("drilldowns_suppressed")
            if suppressed is not None:
                conn["drilldowns_suppressed"] = suppressed
        groups = self._groups[shard]
        for session, d in audit.get("groups", {}).items():
            full = d.get("full")
            if full is not None:
                groups[session] = full
                self._over_bound += full["over_bound"]
                continue
            group = groups.get(session)
            if group is None:
                continue
            skew = d.get("skew")
            if skew is not None:
                group["skew"] = skew
                group["intervals"] = skew["count"]
            over = d.get("over_bound")
            if over is not None:
                self._over_bound += over - group["over_bound"]
                group["over_bound"] = over
            for key in ("outages", "recoveries"):
                tail = d.get(key)
                if tail:
                    group[key].extend(tail)
            drops = d.get("regulation_drops")
            if drops is not None:
                group["regulation_drops"] = drops
        hists = audit.get("histograms")
        if hists:
            if final:
                # The final delta ships every histogram in canonical
                # snapshot order; rebuilding pins the merged key order
                # to the snapshot-merge path's.
                self._hists[shard] = dict(hists)
            else:
                self._hists[shard].update(hists)
        sections = audit.get("sections")
        if sections is not None:
            self._sections[shard] = sections

    def _fold_metrics(self, shard: int, metrics: Dict[str, Any],
                      now: Optional[float]) -> None:
        self._have_metrics = True
        state = self._metrics[shard]
        if now is not None:
            state["now"] = now
        for section in ("counters", "gauges", "windows", "series"):
            update = metrics.get(section)
            if update:
                state[section].update(update)

    def _breach(self, at: float) -> None:
        if self._first_breach is None or at < self._first_breach:
            self._first_breach = at

    # -- rolling summary ---------------------------------------------------

    def rolling(self) -> Dict[str, Any]:
        """O(1) snapshot of the run so far (for live SLO evaluation)."""
        counts = self._counts
        judged = counts["met"] + counts["degraded"] + counts["violated"]
        return {
            "t": max(self._now, default=0.0),
            "windows": self.windows,
            "connections": self._conn_total,
            "periods": sum(counts.values()),
            "counts": dict(counts),
            "conformance": counts["met"] / judged if judged else None,
            "first_breach_at": self._first_breach,
            "skew_over_bound": self._over_bound,
            "renegotiations": self._reneg,
            "releases": self._releases,
        }

    # -- finish-time documents ---------------------------------------------

    def result_audit(self) -> Dict[str, Any]:
        """The merged audit document (see class docstring for identity)."""
        snapshots: List[Dict[str, Any]] = []
        for shard in range(self.shards):
            conns = self._conns[shard]
            # Counts fold sparsely, so conformance is derived once here.
            for conn in conns.values():
                counts = conn["counts"]
                judged = (
                    counts["met"] + counts["degraded"] + counts["violated"]
                )
                conn["conformance"] = (
                    counts["met"] / judged if judged else None
                )
            snapshots.append({
                "now": self._now[shard],
                "connections": conns.values(),
                "groups": self._groups[shard].values(),
                "histograms": self._hists[shard],
                "sections": self._sections[shard],
            })
        return merge_snapshots(snapshots, labels=self.labels)

    def result_metrics(self) -> Dict[str, Any]:
        """The merged registry document (empty-shaped without metrics)."""
        return _merge_metrics(self._metrics if self._have_metrics else [])


class LiveWriter:
    """Append rolling records as flushed JSON lines to a sink."""

    def __init__(self, sink: TextIO):
        self.sink = sink

    def write(self, record: Dict[str, Any]) -> None:
        self.sink.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.sink.flush()


def open_live_sink(spec: str) -> Tuple[TextIO, bool]:
    """Resolve a ``--live`` argument to ``(sink, caller_should_close)``.

    ``"-"`` is stdout, a bare integer is an inherited file descriptor,
    anything else a path opened for writing.
    """
    if spec == "-":
        return sys.stdout, False
    if spec.isdigit():
        import os

        return os.fdopen(int(spec), "w"), True
    return open(spec, "w"), True
