"""Fleet-scale soak runs over the sharded simulation core.

``python -m repro.soak --shards N`` runs one :class:`FleetSpec` --
pump cells, control-plane pairs, optional cross-shard ring traffic --
either inline (one simulator, the baseline) or sharded across ``N``
worker processes via :func:`repro.sim.shard.run_sharded`, then folds
the workers' telemetry deltas into one fleet document
(:class:`repro.obs.stream.DeltaFolder`) that
``python -m repro.obs.report run`` renders as a single report.

The package's contract (tested in ``tests/integration``): a 1-shard
sharded run is bit-identical to the inline baseline, and an N-shard
run's merged conformance equals the baseline's.  See
``docs/SCALING.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.obs.profile import merge_profiles
from repro.obs.stream import DeltaFolder, LiveWriter
from repro.obs.trace import merge_traces
from repro.sim.shard import reset_process_state, run_sharded
from repro.soak.fleet import (
    FleetContext,
    FleetSpec,
    build_fleet_inline,
    build_fleet_shard,
    fleet_partition,
)

__all__ = [
    "FleetContext",
    "FleetResult",
    "FleetSpec",
    "build_fleet_inline",
    "build_fleet_shard",
    "fleet_partition",
    "run_fleet",
]


@dataclass
class FleetResult:
    """Outcome of :func:`run_fleet`: merged documents plus provenance.

    ``payloads[k]`` is shard ``k``'s raw ``collect()`` payload (one
    entry for inline runs); ``audit``/``metrics``/``trace`` are the
    merged fleet documents.  ``windows``/``messages`` come from the
    synchronization protocol (1 window, 0 messages inline).
    """

    spec: FleetSpec
    mode: str
    lookahead: float
    wall_s: float
    windows: int = 1
    messages: int = 0
    payloads: List[Dict[str, Any]] = field(default_factory=list)
    audit: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    trace: Optional[Dict[str, Any]] = None
    #: Merged wall-clock profile (``spec.profile`` runs only).
    profile: Optional[Dict[str, Any]] = None

    def _count(self, name: str) -> int:
        return sum(p["counts"][name] for p in self.payloads)

    @property
    def packets_delivered(self) -> int:
        """Audited data packets delivered fleet-wide (pump + ring)."""
        return self._count("pump_received") + self._count("cross_received")

    @property
    def packets_per_wall_second(self) -> float:
        """Delivered audited packets per wall-clock second."""
        return self.packets_delivered / self.wall_s if self.wall_s else 0.0

    def invariant_failures(self) -> List[str]:
        """Every broken fleet invariant, as human-readable strings.

        Empty means the run is healthy: control planes converged with
        zero lease violations, deliveries account for every sent packet
        (minus at most one in-flight batch per flow at cutoff), and the
        deterministic tight-contract violations survived the merge.
        """
        failures: List[str] = []
        spec = self.spec
        if spec.cp_pairs:
            for payload in self.payloads:
                cp = payload["controlplane"]
                where = f"shard {payload['shard']}"
                if cp["converged"] is not True:
                    failures.append(f"{where}: control plane not converged")
                if cp["lease_violations"]:
                    failures.append(
                        f"{where}: {len(cp['lease_violations'])} lease "
                        "violation(s)"
                    )
        # Armed fault episodes legitimately drop packets, so only the
        # upper accounting bound (no packet invented) survives chaos.
        lossless = not spec.faults
        if spec.topology == "pipeline":
            sent = self._count("pipe_sent")
            received = self._count("pump_received")
            expected = sent * spec.fanout
            # At cutoff each VC may have one batch on the ingress leg
            # and one held at the worker, each worth ``fanout`` copies.
            in_flight = spec.total_vcs * spec.pump_packets * spec.fanout * 2
            if not ((not lossless or expected - in_flight <= received)
                    and received <= expected):
                failures.append(
                    f"pipeline accounting: sent {sent} (x{spec.fanout} "
                    f"fan-out = {expected}), received {received}, "
                    f"in-flight bound {in_flight}"
                )
        else:
            sent = self._count("pump_sent")
            received = self._count("pump_received")
            in_flight = spec.total_vcs * spec.pump_packets
            if not ((not lossless or sent - in_flight <= received)
                    and received <= sent):
                failures.append(
                    f"pump accounting: sent {sent}, received {received}, "
                    f"in-flight bound {in_flight}"
                )
        xsent = self._count("cross_sent")
        xreceived = self._count("cross_received")
        x_in_flight = 2 * spec.cells * spec.cross_packets
        if not ((not lossless or xsent - x_in_flight <= xreceived)
                and xreceived <= xsent):
            failures.append(
                f"ring accounting: sent {xsent}, received {xreceived}, "
                f"in-flight bound {x_in_flight}"
            )
        summary = self.audit.get("summary", {})
        expected_vcs = (
            self._count("pump_vcs")
            + self._count("pipe_vcs") * spec.fanout
            + self._count("cross_vcs")
        )
        if summary.get("connections", 0) < expected_vcs:
            failures.append(
                f"merged audit lost connections: "
                f"{summary.get('connections')} < {expected_vcs}"
            )
        tight_vcs = (
            spec.total_vcs // spec.tight_every if spec.tight_every else 0
        )
        if (tight_vcs and spec.duration >= 3 * spec.pump_period
                and not summary.get("counts", {}).get("violated")):
            failures.append(
                f"expected violated periods from {tight_vcs} "
                "tight-contract VC(s), merged audit has none"
            )
        return failures


def _final_record(audit: Dict[str, Any], payloads: List[Dict[str, Any]],
                  windows: int, wall_s: float) -> Dict[str, Any]:
    """The closing live-telemetry record, from the merged documents."""
    summary = audit.get("summary", {})
    first: Optional[float] = None
    for conn in audit.get("connections", ()):
        ttfv = conn.get("time_to_first_violation")
        if ttfv is not None:
            at = conn.get("registered_at", 0.0) + ttfv
            if first is None or at < first:
                first = at
    return {
        "kind": "final",
        "t": audit.get("now", 0.0),
        "windows": windows,
        "connections": summary.get("connections", 0),
        "periods": summary.get("periods", 0),
        "counts": summary.get("counts", {}),
        "conformance": summary.get("conformance"),
        "first_breach_at": first,
        "skew_over_bound": sum(
            group.get("over_bound", 0) for group in audit.get("groups", ())
        ),
        "renegotiations": sum(
            summary.get("renegotiations", {}).values()
        ),
        "releases": sum(summary.get("releases", {}).values()),
        "lease_violations": sum(
            len(p["controlplane"]["lease_violations"]) for p in payloads
        ),
        "wall_s": wall_s,
    }


def run_fleet(
    spec: FleetSpec,
    *,
    inline: bool = False,
    window: Optional[float] = None,
    mp_context: str = "spawn",
    progress: Optional[Callable[[float, int], None]] = None,
    live: Optional[Any] = None,
) -> FleetResult:
    """Run one fleet spec to completion and merge its outputs.

    ``inline=True`` builds the whole fleet on one simulator in this
    process (resetting process-global id counters first, so the result
    is comparable to what a freshly spawned worker produces); otherwise
    ``spec.shards`` worker processes run the conservative window
    protocol.  ``window`` and ``mp_context`` pass through to
    :func:`repro.sim.shard.run_sharded`.

    A sharded run's audit/metrics come out of one :class:`DeltaFolder`
    fed with the workers' telemetry deltas; ``spec.stream`` only sets
    their cadence (once per audit period, or one final delta per
    worker), and both cadences fold to the same documents.  ``live`` is
    an optional file-like sink: one rolling JSON line per barrier that
    folded a delta (streaming runs, so about one per audit period) plus
    a ``final`` record (every run), consumed by
    ``python -m repro.obs.live``.  The caller owns closing the sink.
    """
    spec.validate()
    lookahead = fleet_partition(spec).lookahead
    writer = LiveWriter(live) if live is not None else None
    if inline:
        reset_process_state()
        started = time.perf_counter()
        ctx = build_fleet_inline(spec)
        ctx.sim.run(until=spec.duration)
        payload = ctx.collect()
        result = FleetResult(
            spec=spec, mode="inline", lookahead=lookahead,
            wall_s=time.perf_counter() - started,
            payloads=[payload], audit=ctx.auditor.snapshot(),
            metrics=ctx.sim.metrics.snapshot(), trace=payload["trace"],
        )
        if payload.get("profile") is not None:
            result.profile = merge_profiles([payload["profile"]])
        if writer is not None:
            writer.write(_final_record(
                result.audit, result.payloads, result.windows,
                result.wall_s,
            ))
        return result
    labels = [f"s{k}" for k in range(spec.shards)]
    folder = DeltaFolder(
        spec.shards, labels=labels, max_timeline=spec.max_timeline,
    )

    folded = False

    def on_delta(shard: int, _t_end: float, delta: Any) -> None:
        nonlocal folded
        folded = True
        folder.fold(shard, delta)

    def barrier_cb(t_end: float, windows: int) -> None:
        nonlocal folded
        folder.windows = windows
        # The rolling summary moves only when a delta was folded.
        if writer is not None and folded:
            writer.write({"kind": "window", **folder.rolling()})
        folded = False
        if progress is not None:
            progress(t_end, windows)

    run = run_sharded(
        build_fleet_shard, spec.shards, until=spec.duration,
        lookahead=lookahead, args=(spec,), window=window,
        mp_context=mp_context, progress=barrier_cb, on_delta=on_delta,
    )
    for payload in run.results:
        folder.fold(payload["shard"], payload.pop("delta"))
    trace = None
    if spec.trace:
        trace = merge_traces(
            [p["trace"] for p in run.results], labels=labels,
        )
    profile = None
    if any(p.get("profile") is not None for p in run.results):
        profile = merge_profiles(
            [p["profile"] for p in run.results], labels=labels,
        )
    result = FleetResult(
        spec=spec, mode="sharded", lookahead=lookahead,
        wall_s=run.wall_s, windows=run.windows, messages=run.messages,
        payloads=run.results, audit=folder.result_audit(),
        metrics=folder.result_metrics(), trace=trace, profile=profile,
    )
    if writer is not None:
        writer.write(_final_record(
            result.audit, run.results, run.windows, run.wall_s,
        ))
    return result
