"""Observability layer: metrics, tracing, auditing and run reports.

The paper's whole evaluation (Table 2 degradation reports, the
blocking-time fault attribution of section 6.3.1.2) rests on measuring
the running system over *sample periods*.  This package provides the
primitives that measurement is built from, and the contract-aware
layer that turns them into the system's evaluation instrument:

``repro.obs.registry``
    :class:`MetricsRegistry` -- named :class:`Counter`/:class:`Gauge`
    values, :class:`WindowedStat`/:class:`WindowedSeries` accumulators
    that reset *atomically* at each period boundary (the abstraction
    whose absence caused the QoS monitor's stale-window bug), and
    :class:`SpanAccumulator` for blocked/occupied-time accounting with
    window re-basing.  ``snapshot()`` renders the whole registry as a
    plain dict.

``repro.obs.trace``
    A sim-time :class:`Tracer` emitting spans and instant events in
    Chrome-trace/Perfetto JSON, plus the zero-cost :data:`NULL_TRACER`
    installed on every :class:`~repro.sim.scheduler.Simulator` by
    default.  Enable with :meth:`repro.core.runtime.Runtime.enable_tracing`.

``repro.obs.audit``
    :class:`QoSAuditor` -- registers every T-Connect's negotiated
    contract and files per-sample-period conformance verdicts
    (met/degraded/violated), per-connection timelines, renegotiation
    outcomes and orchestration skew-vs-bound; :class:`FlightRecorder`
    -- a bounded ring-buffer tracer for post-mortems without full
    tracing overhead.  Enable with
    :meth:`repro.core.runtime.Runtime.enable_audit`.

``repro.obs.causality``
    :class:`ChainIndex` -- joins trace events on netsim packet ids so
    a violated period drills down to the packets it lost and the fault
    episodes that caused it.

``repro.obs.export``
    :class:`FixedBucketHistogram` (HDR-style p50/p95/p99/p999),
    Prometheus text exposition, JSON snapshots for the registry and
    :func:`write_json_document`, the chunked C-encoder writer of the
    soak CLI's merged fleet audit.

``repro.obs.report``
    ``python -m repro.obs.report trace.json`` summarises an exported
    trace; ``python -m repro.obs.report run audit.json`` renders a
    paper-style conformance report from an audit snapshot.

The registry, tracer, causality and export submodules import nothing
outside ``repro.obs`` (causality reads the tracer's records; they take
a ``clock`` callable instead of importing the simulator), so the kernel
can depend on them without a cycle; the auditor only reads ``sim.now``.
"""

from repro.obs.audit import (
    FlightRecorder,
    QoSAuditor,
    install_audit,
    merge_snapshots,
)
from repro.obs.causality import ChainIndex
from repro.obs.export import (
    FixedBucketHistogram,
    prometheus_text,
    write_json_document,
    write_json_snapshot,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    SpanAccumulator,
    WindowSnapshot,
    WindowedSeries,
    WindowedStat,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceLevel,
    Tracer,
)

__all__ = [
    "ChainIndex",
    "Counter",
    "FixedBucketHistogram",
    "FlightRecorder",
    "Gauge",
    "MetricsRegistry",
    "QoSAuditor",
    "SpanAccumulator",
    "WindowSnapshot",
    "WindowedSeries",
    "WindowedStat",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceLevel",
    "Tracer",
    "install_audit",
    "merge_snapshots",
    "prometheus_text",
    "write_json_document",
    "write_json_snapshot",
]
