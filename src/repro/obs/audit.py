"""Contract-aware QoS auditing: conformance verdicts, timelines, post-mortems.

The tracer and registry record *what happened*; the auditor records
*whether it was good enough*.  It registers every T-Connect's
negotiated contract and, at each monitor sample period, files a
conformance verdict for the VC:

``met``
    every observed Table-2 parameter within contract;
``degraded``
    at least one parameter worse than contracted but inside the
    monitor's tolerance margin (no ``T-QoS.indication`` fired);
``violated``
    the monitor reported one or more :class:`QoSViolation`\\ s;
``idle``
    nothing observable this period (no traffic and no synthetic
    outage violation) -- excluded from the conformance fraction.

Each verdict lands on the connection's **timeline**; fleet-level
summaries (fraction of periods in conformance, time-to-first-violation,
renegotiation outcomes, release reasons) fall out of the timelines.

Violated periods are drilled down on the spot: the auditor snapshots
the installed tracer's ring (see :class:`FlightRecorder`) through a
:class:`~repro.obs.causality.ChainIndex` and stores which packets the
period lost, where, and which fault episodes overlapped -- bounded to
``max_drilldowns`` per connection so a long outage cannot balloon the
audit.  Over an append-only tracer one index is kept and fed only the
records filed since the last drill-down; once no registered connection
has a drill-down left, its packet chains are dropped (fault episodes
stay), so a long run does not keep every packet it indexed.

Orchestration groups register separately: per-group skew observations
feed an HDR-style histogram compared against the HLO policy's
strictness bound, alongside outage/recovery marks and regulation drops.

Nothing here schedules simulator events: registration, verdicts and
drill-downs all run synchronously inside calls the transport and
orchestration layers were already making, so enabling the audit can
never perturb a run (the determinism tests pin this down).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.obs.causality import ChainIndex
from repro.obs.export import FixedBucketHistogram
from repro.obs.trace import (
    ARGS, DUR, TS, Clock, Head, Record, TraceLevel, Tracer, assemble,
    event_of,
)

__all__ = [
    "FlightRecorder",
    "QoSAuditor",
    "install_audit",
    "merge_snapshots",
]

_CONTRACT_FIELDS = (
    "throughput_bps", "delay_s", "jitter_s",
    "packet_error_rate", "bit_error_rate", "max_osdu_bytes",
)

#: (verdict parameter, measurement attr, contract attr, higher_is_better)
_DIMENSIONS = (
    ("throughput", "throughput_bps", "throughput_bps", True),
    ("delay", "mean_delay_s", "delay_s", False),
    ("jitter", "jitter_s", "jitter_s", False),
    ("packet_error_rate", "packet_error_rate", "packet_error_rate", False),
    ("bit_error_rate", "bit_error_rate", "bit_error_rate", False),
)


class FlightRecorder(Tracer):
    """A tracer whose event store is a bounded ring buffer.

    Records at PACKET verbosity by default but only ever retains the
    last ``capacity`` events, so it can stay installed for a whole run
    at O(capacity) memory: enough context for the auditor to explain a
    violation the moment it happens, without full-trace overhead.  The
    ring holds the events as records, which a bounded store can afford.
    """

    def __init__(self, clock: Clock, capacity: int = 4096,
                 level: TraceLevel = TraceLevel.PACKET):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        super().__init__(clock, level)

    def _store(self) -> None:
        self._ring: Deque[Record] = deque(maxlen=self.capacity)

    def _record(self, head: Head, ts: float, dur: float,
                args: Optional[Dict[str, Any]]) -> None:
        self._ring.append(
            assemble(head, ts, dur, args.values() if args else ()))

    def __len__(self) -> int:
        return len(self._ring)

    def records(self, start: int = 0) -> List[Record]:
        return list(self._ring)[start:]

    def _events(self) -> Iterator[Dict[str, Any]]:
        return map(event_of, self._ring)

    def _columns(self):
        """The ring as the columns :meth:`Tracer.export` writes.

        A record carries its head's fields, and the records of one head
        share its key tuple, so ``(name, ph, pid, cat, id(keys))`` finds
        the head again without merging key tuples that are only equal
        (``(True,)`` and ``(1,)``).
        """
        ring = self._ring
        shared: Dict[Tuple[Any, ...], Head] = {}
        heads = []
        for record in ring:
            name, ph, _, _, pid, cat, keys = record[:ARGS]
            fields = (name, ph, pid, cat, id(keys))
            head = shared.get(fields)
            if head is None:
                head = shared[fields] = (name, ph, pid, cat, keys,
                                         len(record) - ARGS)
            heads.append(head)
        return (heads, [record[TS] for record in ring],
                [record[DUR] for record in ring],
                [value for record in ring for value in record[ARGS:]])

    def snapshot(self) -> List[Dict[str, Any]]:
        """The ring's current contents as event dicts (oldest first)."""
        return self.events


def _contract_dict(contract) -> Dict[str, Any]:
    return {
        field: getattr(contract, field, None) for field in _CONTRACT_FIELDS
    }


def _degradations(contract, measurement) -> List[Dict[str, float]]:
    """Observed dimensions worse than contracted (margin or not)."""
    degraded = []
    for name, m_attr, c_attr, higher_is_better in _DIMENSIONS:
        observed = getattr(measurement, m_attr, None)
        contracted = getattr(contract, c_attr, None)
        if observed is None or contracted is None:
            continue
        worse = (
            observed < contracted if higher_is_better
            else observed > contracted + 1e-12
        )
        if worse:
            degraded.append({
                "parameter": name,
                "contracted": contracted,
                "observed": observed,
                "delta": observed - contracted,
            })
    return degraded


class _ConnectionAudit:
    """Everything the auditor knows about one VC."""

    def __init__(self, vc_id: str, registered_at: float, contract,
                 src: Optional[str], dst: Optional[str],
                 sample_period: Optional[float]):
        self.vc_id = vc_id
        self.registered_at = registered_at
        self.contract = contract
        self.src = src
        self.dst = dst
        self.sample_period = sample_period
        self.timeline: List[Dict[str, Any]] = []
        self.counts = {"met": 0, "degraded": 0, "violated": 0, "idle": 0}
        self.first_violation_at: Optional[float] = None
        self.renegotiations: List[Dict[str, Any]] = []
        self.released: Optional[Dict[str, Any]] = None
        self.drilldowns: List[Dict[str, Any]] = []
        self.drilldowns_suppressed = 0

    @property
    def conformance(self) -> Optional[float]:
        judged = (
            self.counts["met"] + self.counts["degraded"]
            + self.counts["violated"]
        )
        return self.counts["met"] / judged if judged else None

    @property
    def time_to_first_violation(self) -> Optional[float]:
        if self.first_violation_at is None:
            return None
        return self.first_violation_at - self.registered_at

    def to_dict(self) -> Dict[str, Any]:
        return {
            "vc": self.vc_id,
            "src": self.src,
            "dst": self.dst,
            "registered_at": self.registered_at,
            "sample_period": self.sample_period,
            "contract": _contract_dict(self.contract),
            "counts": dict(self.counts),
            "conformance": self.conformance,
            "time_to_first_violation": self.time_to_first_violation,
            "timeline": list(self.timeline),
            "renegotiations": list(self.renegotiations),
            "released": self.released,
            "drilldowns": list(self.drilldowns),
            "drilldowns_suppressed": self.drilldowns_suppressed,
        }


class _GroupAudit:
    """Per-orchestration-group skew conformance against the HLO bound."""

    def __init__(self, session_id: str, registered_at: float, bound: float,
                 streams: List[str], interval_length: Optional[float]):
        self.session_id = session_id
        self.registered_at = registered_at
        self.bound = bound
        self.streams = streams
        self.interval_length = interval_length
        self.skew_hist = FixedBucketHistogram(lo=1e-6, hi=1.0, buckets=96)
        self.over_bound = 0
        self.outages: List[Dict[str, Any]] = []
        self.recoveries: List[Dict[str, Any]] = []
        self.regulation_drops: Dict[str, int] = {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "session": self.session_id,
            "registered_at": self.registered_at,
            "bound": self.bound,
            "streams": list(self.streams),
            "interval_length": self.interval_length,
            "skew": self.skew_hist.to_dict(),
            "intervals": self.skew_hist.count,
            "over_bound": self.over_bound,
            "outages": list(self.outages),
            "recoveries": list(self.recoveries),
            "regulation_drops": dict(self.regulation_drops),
        }


class QoSAuditor:
    """Registers contracts and files per-period conformance verdicts.

    Hangs off ``sim.auditor``; every hook is guarded at the call site
    with ``if sim.auditor is not None`` so the un-audited path costs
    one attribute load, exactly like the tracer's ``enabled`` guard.
    """

    def __init__(self, sim, tracer: Optional[Tracer] = None,
                 max_drilldowns: int = 8,
                 max_timeline: Optional[int] = None):
        self.sim = sim
        self._tracer = tracer
        self.max_drilldowns = max_drilldowns
        #: When set, each connection keeps only the most recent N
        #: timeline entries (verdict *counts* are never truncated).
        #: Fleet-scale soaks set this so a 100k-VC audit snapshot stays
        #: a bounded document; interactive runs keep the default full
        #: timelines.
        self.max_timeline = max_timeline
        self._connections: Dict[str, _ConnectionAudit] = {}
        self._groups: Dict[str, _GroupAudit] = {}
        #: Insertion-ordered "sets" of ids touched since the last drain
        #: by a streaming :class:`repro.obs.stream.DeltaEncoder`.  One
        #: dict store per recording call; nothing reads them unless a
        #: delta encoder is attached, and untouched connections cost
        #: nothing per barrier.
        self._dirty_connections: Dict[str, None] = {}
        self._dirty_groups: Dict[str, None] = {}
        self.delay_hist = FixedBucketHistogram(lo=1e-5, hi=10.0, buckets=128)
        self.jitter_hist = FixedBucketHistogram(lo=1e-6, hi=1.0, buckets=128)
        self._sections: Dict[str, Any] = {}
        #: The causal index behind drill-downs on an append-only tracer,
        #: and how many of the tracer's records it has been fed.
        self._chain = ChainIndex()
        self._indexed = 0
        #: Registered connections that may still drill down.
        self._budgeted = 0

    # -- extension sections ------------------------------------------------

    def attach_section(self, name: str, provider) -> None:
        """Attach a named report section evaluated at snapshot time.

        ``provider`` is a zero-argument callable returning a
        JSON-serialisable value; it is invoked lazily on each
        :meth:`snapshot` so the section always reflects current state
        (the control plane attaches its desired/actual view this way).
        Re-attaching a name replaces the provider.
        """
        self._sections[name] = provider

    # -- transport hooks ---------------------------------------------------

    def register_connection(self, vc_id, contract, src=None, dst=None,
                            sample_period=None) -> None:
        """File a T-Connect's negotiated contract for later verdicts."""
        key = str(vc_id)
        if key not in self._connections:
            self._connections[key] = _ConnectionAudit(
                key, self.sim.now, contract, src, dst, sample_period,
            )
            self._dirty_connections[key] = None
            self._budgeted += 1

    def _connection(self, vc_id) -> _ConnectionAudit:
        key = str(vc_id)
        try:
            return self._connections[key]
        except KeyError:
            # Audit installed after connect: register a bare record so
            # the timeline still accumulates.
            conn = self._connections[key] = _ConnectionAudit(
                key, self.sim.now, None, None, None, None,
            )
            self._dirty_connections[key] = None
            self._budgeted += 1
            return conn

    def record_period(self, vc_id, contract, measurement,
                      violations) -> None:
        """File one sample period's verdict on the VC's timeline."""
        prof = getattr(self.sim, "profile", None)
        if prof is not None:
            _t0 = prof.clock()
        conn = self._connection(vc_id)
        self._dirty_connections[conn.vc_id] = None
        if conn.contract is None:
            conn.contract = contract
        observed = measurement.as_dict()
        if violations:
            verdict = "violated"
        elif all(value is None for value in observed.values()):
            verdict = "idle"
        elif _degradations(contract, measurement):
            verdict = "degraded"
        else:
            verdict = "met"
        conn.counts[verdict] += 1
        entry: Dict[str, Any] = {
            "t0": measurement.period_start,
            "t1": measurement.period_end,
            "verdict": verdict,
            "osdus": measurement.osdus_delivered,
            "observed": observed,
        }
        if verdict == "violated":
            entry["violations"] = [
                {
                    "parameter": v.parameter,
                    "contracted": v.contracted,
                    "observed": v.observed,
                    "delta": v.observed - v.contracted,
                    "ratio": (
                        v.observed / v.contracted if v.contracted else None
                    ),
                }
                for v in violations
            ]
            if conn.first_violation_at is None:
                conn.first_violation_at = measurement.period_end
            self._drilldown(conn, entry)
        elif verdict == "degraded":
            entry["degraded"] = _degradations(contract, measurement)
        conn.timeline.append(entry)
        limit = self.max_timeline
        if limit is not None and len(conn.timeline) > limit:
            del conn.timeline[: len(conn.timeline) - limit]
        if measurement.mean_delay_s is not None:
            self.delay_hist.record(measurement.mean_delay_s)
        if measurement.jitter_s is not None:
            self.jitter_hist.record(measurement.jitter_s)
        if prof is not None:
            prof.add("audit.evaluate", _t0, prof.clock())

    def _drilldown(self, conn: _ConnectionAudit,
                   entry: Dict[str, Any]) -> None:
        """Explain a violated period from the flight-recorder ring."""
        tracer = self._tracer
        if tracer is None or not getattr(tracer, "enabled", False):
            return
        if len(conn.drilldowns) >= self.max_drilldowns:
            conn.drilldowns_suppressed += 1
            return
        if isinstance(tracer, FlightRecorder):
            # The ring forgets, so an index kept across drill-downs
            # would not; it is bounded by ``capacity``, rebuild it.
            chain = ChainIndex()
            chain.extend_records(tracer.records())
        else:
            chain = self._chain
            chain.extend_records(tracer.records(self._indexed))
            self._indexed = len(tracer)
        explanation = chain.explain_period(
            conn.vc_id, entry["t0"], entry["t1"],
        )
        explanation["violations"] = entry["violations"]
        conn.drilldowns.append(explanation)
        if len(conn.drilldowns) == self.max_drilldowns:
            self._budgeted -= 1
            if not self._budgeted:
                # Only a connection registered from now on can drill
                # down again, and it sends nothing indexed so far.
                self._chain.forget_packets()

    def record_renegotiation(self, vc_id, outcome, from_bps=None,
                             to_bps=None, reason=None) -> None:
        """File a T-Renegotiate outcome (confirmed / rejected / failed)."""
        conn = self._connection(vc_id)
        self._dirty_connections[conn.vc_id] = None
        conn.renegotiations.append({
            "at": self.sim.now,
            "outcome": outcome,
            "from_bps": from_bps,
            "to_bps": to_bps,
            "reason": reason,
        })

    def record_release(self, vc_id, reason, initiator=None) -> None:
        """File the VC's release (e.g. ``qos-outage`` past grace)."""
        conn = self._connection(vc_id)
        self._dirty_connections[conn.vc_id] = None
        conn.released = {
            "at": self.sim.now,
            "reason": reason,
            "initiator": initiator,
        }

    # -- orchestration hooks ----------------------------------------------

    def register_group(self, session_id, bound, streams=(),
                       interval_length=None) -> None:
        """File an orchestration group and its HLO tightness bound."""
        key = str(session_id)
        if key not in self._groups:
            self._groups[key] = _GroupAudit(
                key, self.sim.now, bound, list(streams), interval_length,
            )
            self._dirty_groups[key] = None

    def _group(self, session_id) -> _GroupAudit:
        key = str(session_id)
        try:
            return self._groups[key]
        except KeyError:
            group = self._groups[key] = _GroupAudit(
                key, self.sim.now, float("inf"), [], None,
            )
            self._dirty_groups[key] = None
            return group

    def record_skew(self, session_id, skew: float) -> None:
        """File one regulation interval's group skew observation."""
        group = self._group(session_id)
        self._dirty_groups[group.session_id] = None
        group.skew_hist.record(skew)
        if skew > group.bound:
            group.over_bound += 1

    def record_group_outage(self, session_id, vc_id) -> None:
        group = self._group(session_id)
        self._dirty_groups[group.session_id] = None
        group.outages.append({"at": self.sim.now, "vc": str(vc_id)})

    def record_group_recovery(self, session_id, vc_id) -> None:
        group = self._group(session_id)
        self._dirty_groups[group.session_id] = None
        group.recoveries.append({"at": self.sim.now, "vc": str(vc_id)})

    def record_regulation_drop(self, session_id, vc_id,
                               count: int = 1) -> None:
        """File OSDUs dropped by LLO regulation for one stream."""
        group = self._group(session_id)
        self._dirty_groups[group.session_id] = None
        drops = group.regulation_drops
        key = str(vc_id)
        drops[key] = drops.get(key, 0) + count

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The full audit as a plain JSON-serialisable dict."""
        connections = [
            conn.to_dict() for conn in self._connections.values()
        ]
        groups = [group.to_dict() for group in self._groups.values()]
        snapshot = {
            "kind": "repro-audit",
            "now": self.sim.now,
            "summary": _summarize(connections),
            "connections": connections,
            "groups": groups,
            "histograms": {
                "delay_s": self.delay_hist.to_dict(),
                "jitter_s": self.jitter_hist.to_dict(),
            },
        }
        if self._sections:
            snapshot["sections"] = {
                name: provider()
                for name, provider in sorted(self._sections.items())
            }
        return snapshot

    def export(self, path: str) -> str:
        """Write :meth:`snapshot` as JSON; returns ``path``.

        Streams one connection/group dict at a time instead of
        materialising the whole snapshot, so exporting a fleet-scale
        audit needs O(largest record) transient memory.  The bytes are
        identical to ``json.dumps(self.snapshot(), indent=2)`` (pinned
        by ``tests/obs/test_export.py``).
        """
        with open(path, "w") as handle:
            for chunk in self.iter_json():
                handle.write(chunk)
        return path

    def iter_json(self):
        """Yield :meth:`snapshot` as JSON text in bounded chunks."""
        yield (
            '{\n  "kind": "repro-audit",\n  "now": '
            + json.dumps(self.sim.now) + ",\n"
        )
        summary = _summarize_objects(self._connections.values())
        yield '  "summary": ' + _dumps_at(summary, 1) + ",\n"
        yield from _iter_array(
            "connections",
            (conn.to_dict() for conn in self._connections.values()),
            len(self._connections),
        )
        yield from _iter_array(
            "groups",
            (group.to_dict() for group in self._groups.values()),
            len(self._groups),
        )
        hists = {
            "delay_s": self.delay_hist.to_dict(),
            "jitter_s": self.jitter_hist.to_dict(),
        }
        tail = ",\n" if self._sections else "\n"
        yield '  "histograms": ' + _dumps_at(hists, 1) + tail
        if self._sections:
            sections = {
                name: provider()
                for name, provider in sorted(self._sections.items())
            }
            yield '  "sections": ' + _dumps_at(sections, 1) + "\n"
        yield "}"


def _summarize(connections: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fleet-level rollup computed from per-connection dicts."""
    totals = {"met": 0, "degraded": 0, "violated": 0, "idle": 0}
    reneg: Dict[str, int] = {}
    releases: Dict[str, int] = {}
    ttfv: List[float] = []
    for conn in connections:
        for verdict, count in conn["counts"].items():
            totals[verdict] = totals.get(verdict, 0) + count
        for item in conn["renegotiations"]:
            reneg[item["outcome"]] = reneg.get(item["outcome"], 0) + 1
        if conn["released"] is not None:
            reason = conn["released"]["reason"]
            releases[reason] = releases.get(reason, 0) + 1
        if conn["time_to_first_violation"] is not None:
            ttfv.append(conn["time_to_first_violation"])
    judged = totals["met"] + totals["degraded"] + totals["violated"]
    return {
        "connections": len(connections),
        "periods": sum(totals.values()),
        "counts": totals,
        "conformance": totals["met"] / judged if judged else None,
        "mean_time_to_first_violation": (
            sum(ttfv) / len(ttfv) if ttfv else None
        ),
        "renegotiations": reneg,
        "releases": releases,
    }


def _summarize_objects(records) -> Dict[str, Any]:
    """:func:`_summarize` computed from live audit records.

    Same arithmetic over the same iteration order, so the streaming
    exporter's summary is byte-identical to the snapshot path's without
    materialising every ``to_dict`` first.
    """
    totals = {"met": 0, "degraded": 0, "violated": 0, "idle": 0}
    reneg: Dict[str, int] = {}
    releases: Dict[str, int] = {}
    ttfv: List[float] = []
    count = 0
    for conn in records:
        count += 1
        for verdict, filed in conn.counts.items():
            totals[verdict] = totals.get(verdict, 0) + filed
        for item in conn.renegotiations:
            reneg[item["outcome"]] = reneg.get(item["outcome"], 0) + 1
        if conn.released is not None:
            reason = conn.released["reason"]
            releases[reason] = releases.get(reason, 0) + 1
        if conn.time_to_first_violation is not None:
            ttfv.append(conn.time_to_first_violation)
    judged = totals["met"] + totals["degraded"] + totals["violated"]
    return {
        "connections": count,
        "periods": sum(totals.values()),
        "counts": totals,
        "conformance": totals["met"] / judged if judged else None,
        "mean_time_to_first_violation": (
            sum(ttfv) / len(ttfv) if ttfv else None
        ),
        "renegotiations": reneg,
        "releases": releases,
    }


def _dumps_at(obj: Any, depth: int) -> str:
    """``json.dumps(obj, indent=2)`` re-indented to nest at ``depth``."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)


def _iter_array(name: str, items, count: int):
    """Yield a top-level JSON array one element at a time.

    Renders exactly like the same array inside
    ``json.dumps(document, indent=2)`` at nesting depth one.
    """
    if count == 0:
        yield f'  "{name}": [],\n'
        return
    yield f'  "{name}": [\n'
    last = count - 1
    for index, item in enumerate(items):
        text = "    " + _dumps_at(item, 2)
        yield text + (",\n" if index != last else "\n")
    yield "  ],\n"


def merge_snapshots(
    snapshots: List[Dict[str, Any]],
    labels: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Fold several audit snapshots into one document.

    Connections and groups concatenate; the fleet summary is recomputed;
    histograms with the same bucket layout add, mismatched layouts keep
    the first seen.  Attached sections collect per-snapshot values into
    a list per name (the report CLI renders one block per source).
    This is the one builder of merged audits: a sharded fleet's
    :class:`~repro.obs.stream.DeltaFolder` hands it each shard's folded
    state.

    Identity rule: VC and session ids must be disjoint across the
    inputs.  Sharded fleets guarantee this structurally (host names --
    and therefore vc ids -- are global, each host built on exactly one
    shard), so ids survive unchanged, keeping merged conformance
    comparable to an unsharded baseline.

    With ``labels`` given (or more than one snapshot), the merged
    document records its provenance under ``merged_from``; the report
    header surfaces it.  Inputs are never mutated.
    """
    if labels is not None and len(labels) != len(snapshots):
        raise ValueError(
            f"got {len(labels)} labels for {len(snapshots)} snapshots"
        )
    connections: List[Dict[str, Any]] = []
    groups: List[Dict[str, Any]] = []
    hists: Dict[str, FixedBucketHistogram] = {}
    sections: Dict[str, List[Any]] = {}
    now = 0.0
    for snap in snapshots:
        connections.extend(snap.get("connections", ()))
        groups.extend(snap.get("groups", ()))
        now = max(now, snap.get("now", 0.0))
        for name, value in snap.get("sections", {}).items():
            sections.setdefault(name, []).append(value)
        for name, data in snap.get("histograms", {}).items():
            incoming = FixedBucketHistogram.from_dict(data)
            existing = hists.get(name)
            if existing is None:
                hists[name] = incoming
            elif (existing.lo, existing.hi, existing.buckets) == (
                incoming.lo, incoming.hi, incoming.buckets
            ):
                for idx, count in enumerate(incoming.counts):
                    existing.counts[idx] += count
                existing.underflow += incoming.underflow
                existing.overflow += incoming.overflow
                existing.count += incoming.count
                existing.total += incoming.total
                existing.minimum = min(existing.minimum, incoming.minimum)
                existing.maximum = max(existing.maximum, incoming.maximum)
    merged = {
        "kind": "repro-audit",
        "now": now,
        "summary": _summarize(connections),
        "connections": connections,
        "groups": groups,
        "histograms": {
            name: hist.to_dict() for name, hist in hists.items()
        },
    }
    if labels is not None or len(snapshots) > 1:
        merged["merged_from"] = {
            "snapshots": len(snapshots),
            "labels": list(labels) if labels is not None else None,
            # Ids are never rewritten; the key keeps the document shape.
            "namespaced": False,
        }
    if sections:
        # Per-shard section values are preserved as a list per name;
        # report renderers decide how to fold them.
        merged["sections"] = sections
    return merged


def install_audit(sim, flight_capacity: int = 4096,
                  max_drilldowns: int = 8,
                  flight_recorder: bool = True,
                  max_timeline: Optional[int] = None) -> QoSAuditor:
    """Install a :class:`QoSAuditor` (and flight recorder) on ``sim``.

    When tracing is off, a :class:`FlightRecorder` ring becomes the
    simulator's tracer so violations can still be explained; an
    already-enabled tracer is reused untouched.  Pass
    ``flight_recorder=False`` to skip the ring entirely -- fleet-scale
    soaks trade drill-downs for a per-packet-event-free hot path
    (verdicts and conformance are unaffected).  ``max_timeline`` bounds
    each connection's retained timeline (see :class:`QoSAuditor`).
    Idempotent.
    """
    if sim.auditor is not None:
        return sim.auditor
    tracer = sim.trace
    if not tracer.enabled:
        if flight_recorder:
            tracer = FlightRecorder(
                lambda: sim.now, capacity=flight_capacity
            )
            sim.trace = tracer
        else:
            tracer = None
    sim.auditor = QoSAuditor(
        sim, tracer=tracer, max_drilldowns=max_drilldowns,
        max_timeline=max_timeline,
    )
    return sim.auditor
