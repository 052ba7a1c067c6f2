"""The HLO agent: the feedback-control layer of orchestration.

"For each orchestrated group of connections, a single HLO agent runs
on the orchestrating node ... The HLO agent supplies the LLO with rate
targets for each orchestrated VC over specified intervals.  These
targets ensure that each orchestrated VC runs at the required rate,
relative to the master reference clock maintained at the orchestration
node ... on the basis of these reports, the HLO agent sets new targets
for the next interval which compensate for any relative speed up or
slow down among the orchestrated connections" (paper section 5,
Figure 6).

Design notes:

- Targets are *absolute*: for master media time ``M`` the target OSDU
  sequence is ``floor(M * rate) - 1``.  Anchoring every interval's
  target to the master timeline makes lag compensation automatic --- a
  stream that fell behind receives a proportionally larger quota next
  interval (and catches up if data is available, or spends drop budget).
- The agent issues Orch.Regulate on a strict master-clock timer and
  consumes the matching indications asynchronously, so report latency
  does not stall delivery pacing.
- Escalation follows section 6.3.1.2's blocking-time attribution: a
  blocked *protocol* thread means the application is too slow
  (Orch.Delayed); blocked *application* threads mean protocol
  throughput is too low (QoS renegotiation, via the ``on_renegotiate``
  hook the HLO installs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.scheduler import Process, Simulator, Timer
from repro.orchestration.llo import LLOInstance
from repro.orchestration.policy import CompensationAction, OrchestrationPolicy
from repro.orchestration.primitives import (
    OrchEventIndication,
    OrchRegulateIndication,
)


@dataclass
class StreamSpec:
    """One orchestrated VC as the agent sees it.

    Attributes:
        vc_id: the transport connection.
        source_node / sink_node: end-system names.
        osdu_rate: nominal OSDUs per second of media time (e.g. 25 for
            PAL video frames, 250 for 10:1 audio blocks -- the paper's
            "ten sound samples with each video frame" ratio).
        max_drop_per_interval: Table 6's max-drop#; 0 for no-loss media
            such as voice.
    """

    vc_id: str
    source_node: str
    sink_node: str
    osdu_rate: float
    max_drop_per_interval: int = 0

    def __post_init__(self) -> None:
        if self.osdu_rate <= 0:
            raise ValueError("osdu_rate must be positive")
        if self.max_drop_per_interval < 0:
            raise ValueError("max_drop_per_interval must be non-negative")


@dataclass
class RegulationConfig:
    """Derived, per-run regulation state exposed for inspection."""

    started_at_master: float = 0.0
    timeline_offset: float = 0.0
    intervals_issued: int = 0


@dataclass
class StreamIntervalStats:
    """Per-stream digest of one Orch.Regulate.indication."""

    vc_id: str
    target_seq: int
    delivered_seq: int
    behind_osdus: int
    dropped_delta: int
    src_app_block: float
    src_proto_block: float
    sink_app_block: float
    sink_proto_block: float
    sink_buffered: int
    #: OSDUs newly delivered since the previous interval's report
    #: (<= 0 means the stream made no progress at all).
    delivered_delta: int = 0

    @property
    def media_time(self) -> float:
        """Media seconds delivered, given the stream's rate (filled by
        the report)."""
        return self._media_time

    _media_time: float = 0.0


@dataclass
class IntervalReport:
    """One completed interval across all streams."""

    interval_id: int
    completed_at: float
    streams: Dict[str, StreamIntervalStats]
    skew: float
    actions: List[Tuple[str, CompensationAction]] = field(default_factory=list)


class HLOAgent:
    """Controls one orchestrated group from the orchestrating node."""

    def __init__(
        self,
        sim: Simulator,
        llo: LLOInstance,
        session_id: str,
        streams: List[StreamSpec],
        policy: Optional[OrchestrationPolicy] = None,
    ):
        if not streams:
            raise ValueError("an orchestrated group needs at least one stream")
        self.sim = sim
        self.llo = llo
        self.session_id = session_id
        self._track = sys.intern(f"session:{session_id}")
        self.streams: Dict[str, StreamSpec] = {s.vc_id: s for s in streams}
        if len(self.streams) != len(streams):
            raise ValueError("duplicate vc_id in stream list")
        self.policy = policy or OrchestrationPolicy()
        #: Master reference clock: the orchestrating node's local clock
        #: (paper section 5 footnote).
        self.clock = llo.clock
        self.queue = llo.agent_queue(session_id)
        self.config = RegulationConfig()
        self.reports: List[IntervalReport] = []
        self.skew_series: List[Tuple[float, float]] = []
        self.established = False
        self.running = False
        self._regulate_proc: Optional[Process] = None
        self._report_proc: Optional[Process] = None
        self._pending_reports: Dict[int, Dict[str, OrchRegulateIndication]] = {}
        self._analyzed_up_to = 0
        self._prev_cumulative: Dict[str, Tuple[float, float, float, float, int]] = {}
        self._behind_streak: Dict[str, int] = {}
        # Per-stream base sequence: targets are expressed relative to
        # the sequence already delivered when regulation (re)started,
        # so stop/seek/restart cycles and source-drop sequence gaps do
        # not break the absolute-target arithmetic.
        self._base_seq: Dict[str, int] = {}
        self._last_delivered: Dict[str, int] = {}
        #: Installed by the HLO: called as ``on_renegotiate(vc_id,
        #: behind_seconds)`` when attribution blames protocol throughput.
        self.on_renegotiate: Optional[Callable[[str, float], None]] = None
        #: Called as ``on_outage(vc_id)`` when a stream is declared in
        #: outage (policy.outage_intervals stalled intervals).
        self.on_outage: Optional[Callable[[str], None]] = None
        #: Called as ``on_recovery(vc_id)`` on the first interval with
        #: fresh deliveries after an outage (the control plane's cue
        #: that resynchronisation can settle).
        self.on_recovery: Optional[Callable[[str], None]] = None
        # Outage tracking (see OrchestrationPolicy.outage_intervals).
        self._stall_intervals: Dict[str, int] = {}
        self._outage_vcs: set = set()
        self.outage_events: List[Tuple[float, str]] = []
        self.recovery_events: List[Tuple[float, str]] = []
        self._reprime_proc: Optional[Process] = None
        #: Orch.Event callbacks: (vc_id, pattern) -> callable(indication).
        self._event_handlers: Dict[Tuple[str, int], Callable] = {}
        self.delayed_issued: List[Tuple[str, str]] = []
        self.renegotiations_requested: List[str] = []

    # ------------------------------------------------------------------
    # Session lifecycle (Table 4 / Table 5 wrappers)
    # ------------------------------------------------------------------

    def _group_span(self, op: str):
        """Open a trace span for one group command (None when disabled)."""
        trace = self.sim.trace
        if not trace.enabled:
            return None
        return trace.span(
            f"{op}:{self.session_id}",
            track=self._track,
            cat="orch",
            args={"vcs": sorted(self.streams)},
        )

    def establish(self):
        """Coroutine: Orch.request for the whole group."""
        span = self._group_span("establish")
        vcs = {
            s.vc_id: (s.source_node, s.sink_node) for s in self.streams.values()
        }
        reply = yield from self.llo.orch_request(self.session_id, vcs)
        self.established = reply.accept
        if span is not None:
            span.end(ok=reply.accept)
        return reply

    def release(self, reason: str = "released") -> None:
        """Orch.Release the group; the agent's report loop ends soon after.

        Regulation stops at once.  The sinks may still owe reports for
        the interval that was running: the report loop analyses those
        that arrive within one more interval length, then ends, and the
        LLO forgets the agent's queue.  Later indications are discarded
        like those of an unknown session, so a released session leaves
        no process behind.
        """
        self.stop_regulation()
        self.llo.release(self.session_id, reason)
        self.established = False
        proc, self._report_proc = self._report_proc, None

        def retire() -> None:
            if proc is not None:
                proc.interrupt("released")
            self.llo.close_agent_queue(self.session_id)

        if proc is None:
            retire()
        else:
            self.sim.call_at(
                self.sim.now + self.policy.interval_length, retire)

    def prime(self):
        """Coroutine: Orch.Prime the group (fill sink pipelines)."""
        span = self._group_span("prime")
        reply = yield from self.llo.prime(self.session_id)
        if span is not None:
            span.end(ok=reply.accept)
        return reply

    def start(self, regulate: bool = True):
        """Coroutine: Orch.Start the group; optionally begin regulation."""
        span = self._group_span("start")
        reply = yield from self.llo.start(self.session_id, metered=regulate)
        if span is not None:
            span.end(ok=reply.accept)
        if reply.accept and regulate:
            self.start_regulation()
        return reply

    def stop(self):
        """Coroutine: Orch.Stop the group (freeze data flow)."""
        self.stop_regulation()
        span = self._group_span("stop")
        reply = yield from self.llo.stop(self.session_id)
        if span is not None:
            span.end(ok=reply.accept)
        return reply

    def add_stream(self, spec: StreamSpec):
        """Coroutine: Orch.Add one VC to the running group.

        The stream joins regulation from the *current* group media
        position: its first targets demand catch-up to the timeline, so
        a late-added caption track aligns with the on-going play-out.
        """
        reply = yield from self.llo.add(
            self.session_id, spec.vc_id, spec.source_node, spec.sink_node
        )
        if reply.accept:
            local = self.llo.local_delivered_seq(spec.vc_id)
            self._base_seq[spec.vc_id] = (
                local if local is not None
                else self._last_delivered.get(spec.vc_id, -1)
            )
            self.streams[spec.vc_id] = spec
            self._behind_streak[spec.vc_id] = 0
        return reply

    def remove_stream(self, vc_id: str):
        """Coroutine: Orch.Remove one VC (it keeps flowing, unregulated)."""
        # Stop regulating it *before* the distributed removal so the
        # interval timer cannot target a VC mid-removal.
        spec = self.streams.pop(vc_id, None)
        reply = yield from self.llo.remove(self.session_id, vc_id)
        if reply.accept:
            # Leave the gate open for the now-free-running VC.
            recv_vc = self.llo.entity.recv_vcs.get(vc_id)
            if recv_vc is not None:
                recv_vc.open_gate()
        elif spec is not None:
            self.streams[vc_id] = spec
        return reply

    # ------------------------------------------------------------------
    # Regulation loop (Figure 6)
    # ------------------------------------------------------------------

    def start_regulation(self) -> None:
        if self.running:
            return
        self.running = True
        auditor = self.sim.auditor
        if auditor is not None:
            auditor.register_group(
                self.session_id, bound=self.policy.strictness,
                streams=sorted(self.streams),
                interval_length=self.policy.interval_length,
            )
        self.config = RegulationConfig(started_at_master=self.clock.now())
        self._behind_streak = {vc: 0 for vc in self.streams}
        self._stall_intervals = {vc: 0 for vc in self.streams}
        self._prev_cumulative.clear()
        self._pending_reports.clear()
        self._analyzed_up_to = 0
        for vc_id in self.streams:
            local = self.llo.local_delivered_seq(vc_id)
            if local is not None:
                self._base_seq[vc_id] = local
            else:
                self._base_seq[vc_id] = self._last_delivered.get(vc_id, -1)
        self._regulate_proc = self.sim.spawn(
            self._regulation_loop(), name=f"hlo-regulate:{self.session_id}"
        )
        if self._report_proc is None or not self._report_proc.alive:
            self._report_proc = self.sim.spawn(
                self._report_loop(), name=f"hlo-reports:{self.session_id}"
            )

    def stop_regulation(self) -> None:
        self.running = False
        if self._regulate_proc is not None and self._regulate_proc.alive:
            self._regulate_proc.interrupt("stop")
            self._regulate_proc = None

    def _regulation_loop(self):
        interval_length = self.policy.interval_length
        pace = Timer(self.sim)
        while self.running:
            self.config.intervals_issued += 1
            interval_id = self.config.intervals_issued
            end_master = (
                self.config.started_at_master + interval_id * interval_length
            )
            media_end = (
                end_master
                - self.config.started_at_master
                - self.config.timeline_offset
            )
            for spec in self.streams.values():
                target = self._target_for(spec, media_end)
                self.llo.regulate_request(
                    self.session_id,
                    spec.vc_id,
                    target,
                    spec.max_drop_per_interval,
                    interval_length,
                    interval_id,
                )
            remaining = self.clock.sim_duration(end_master - self.clock.now())
            if remaining > 0:
                yield pace.after(remaining)

    def _target_for(self, spec: StreamSpec, media_time: float) -> int:
        """Target OSDU sequence for a stream at a master media time.

        Unit ``k`` is presented at media time ``k / rate``, so by time
        ``t`` every unit with ``k <= t * rate`` should have been
        delivered -- counted from the per-stream base sequence captured
        when regulation started.
        """
        base = self._base_seq.get(spec.vc_id, -1)
        return max(base + 1 + int(media_time * spec.osdu_rate), -1)

    # ------------------------------------------------------------------
    # Report consumption and analysis
    # ------------------------------------------------------------------

    def _report_loop(self):
        while True:
            indication = yield self.queue.get()
            if isinstance(indication, OrchEventIndication):
                handler = self._event_handlers.get(
                    (indication.vc_id, indication.event_pattern)
                )
                if handler is not None:
                    handler(indication)
                continue
            if not isinstance(indication, OrchRegulateIndication):
                continue
            if indication.vc_id not in self.streams:
                continue
            if indication.interval_id <= self._analyzed_up_to:
                # A straggler from an interval the agent has already
                # moved past -- typically a report that sat blocked on a
                # source-stats query across a network outage.  Its
                # delivered/target snapshot is ancient; analysing it now
                # would mis-rebase the timeline.
                self._pending_reports.pop(indication.interval_id, None)
                continue
            bucket = self._pending_reports.setdefault(indication.interval_id, {})
            bucket[indication.vc_id] = indication
            if len(bucket) == len(self.streams):
                del self._pending_reports[indication.interval_id]
                self._analyzed_up_to = max(
                    self._analyzed_up_to, indication.interval_id
                )
                self._analyze(indication.interval_id, bucket)

    def _analyze(
        self, interval_id: int, reports: Dict[str, OrchRegulateIndication]
    ) -> None:
        interval_length = self.policy.interval_length
        stats: Dict[str, StreamIntervalStats] = {}
        media_times: List[float] = []
        media_end = (
            interval_id * interval_length - self.config.timeline_offset
        )
        for vc_id, indication in reports.items():
            spec = self.streams[vc_id]
            target = self._target_for(spec, media_end)
            prev = self._prev_cumulative.get(
                vc_id, (0.0, 0.0, 0.0, 0.0, 0)
            )
            cumulative = (
                indication.app_block_times.get("source", 0.0),
                indication.proto_block_times.get("source", 0.0),
                indication.app_block_times.get("sink", 0.0),
                indication.proto_block_times.get("sink", 0.0),
                indication.dropped,
            )
            self._prev_cumulative[vc_id] = cumulative
            prev_delivered = self._last_delivered.get(vc_id, -1)
            self._last_delivered[vc_id] = max(prev_delivered, indication.osdu_seq)
            dropped_delta = max(cumulative[4] - prev[4], 0)
            excess = indication.osdu_seq - target - dropped_delta
            if excess > 0:
                # A jump past the target *beyond* what regulation drops
                # explain comes from administrative sequence gaps (the
                # prime-after-seek flush): rebase upward so pacing
                # resumes at the nominal rate instead of stalling until
                # the timeline catches up.  Drop-induced jumps must NOT
                # rebase -- they are the catch-up mechanism itself.
                self._base_seq[vc_id] = self._base_seq.get(vc_id, -1) + excess
            digest = StreamIntervalStats(
                vc_id=vc_id,
                target_seq=target,
                delivered_seq=indication.osdu_seq,
                behind_osdus=max(target - indication.osdu_seq, 0),
                dropped_delta=max(cumulative[4] - prev[4], 0),
                src_app_block=max(cumulative[0] - prev[0], 0.0),
                src_proto_block=max(cumulative[1] - prev[1], 0.0),
                sink_app_block=max(cumulative[2] - prev[2], 0.0),
                sink_proto_block=max(cumulative[3] - prev[3], 0.0),
                sink_buffered=indication.sink_buffered,
                delivered_delta=indication.osdu_seq - prev_delivered,
            )
            base = self._base_seq.get(vc_id, -1)
            digest._media_time = max(indication.osdu_seq - (base + 1), 0) / spec.osdu_rate
            stats[vc_id] = digest
            media_times.append(digest._media_time)
        skew = max(media_times) - min(media_times) if len(media_times) > 1 else 0.0
        report = IntervalReport(
            interval_id=interval_id,
            completed_at=self.sim.now,
            streams=stats,
            skew=skew,
        )
        self.skew_series.append((self.sim.now, skew))
        auditor = self.sim.auditor
        if auditor is not None:
            auditor.record_skew(self.session_id, skew)
        self._apply_policy(report)
        self.reports.append(report)

    def _apply_policy(self, report: IntervalReport) -> None:
        interval_length = self.policy.interval_length
        threshold_block = self.policy.block_fraction_threshold * interval_length
        worst_behind_seconds = 0.0
        resync_seconds = 0.0
        for vc_id, digest in report.streams.items():
            spec = self.streams[vc_id]
            behind_seconds = digest.behind_osdus / spec.osdu_rate
            stalled = (
                digest.delivered_delta <= 0
                and digest.behind_osdus > self.policy.delayed_threshold_osdus
            )
            if stalled:
                streak = self._stall_intervals.get(vc_id, 0) + 1
                self._stall_intervals[vc_id] = streak
                if (
                    streak >= self.policy.outage_intervals
                    and vc_id not in self._outage_vcs
                ):
                    self._declare_outage(vc_id, digest)
                if vc_id in self._outage_vcs:
                    # An outaged stream is exempt from blocking-time
                    # escalation: while nothing arrives, neither side's
                    # blocking profile is attributable.  Nudge the
                    # source every interval so its send window re-opens
                    # the moment the path heals (fire-and-forget, so a
                    # nudge lost to the fault is retried next interval).
                    self.llo.nudge_request(self.session_id, vc_id)
                    self._behind_streak[vc_id] = 0
                    report.actions.append((vc_id, CompensationAction.OUTAGE))
                    continue
            else:
                self._stall_intervals[vc_id] = 0
                if vc_id in self._outage_vcs and digest.delivered_delta > 0:
                    self._record_recovery(vc_id, digest)
                    if self.policy.resync_after_outage:
                        resync_seconds = max(resync_seconds, behind_seconds)
                    self._behind_streak[vc_id] = 0
                    continue
            if digest.behind_osdus <= self.policy.delayed_threshold_osdus:
                self._behind_streak[vc_id] = 0
                continue
            self._behind_streak[vc_id] = self._behind_streak.get(vc_id, 0) + 1
            worst_behind_seconds = max(worst_behind_seconds, behind_seconds)
            if self._behind_streak[vc_id] < self.policy.patience_intervals:
                report.actions.append((vc_id, CompensationAction.RETARGET))
                continue
            action = self._attribute(digest, threshold_block)
            report.actions.append((vc_id, action))
            self._escalate(vc_id, action, behind_seconds, interval_length, digest)
            self._behind_streak[vc_id] = 0
        if resync_seconds > self.policy.strictness:
            # Shift the shared timeline past the outage gap: the
            # recovered stream resumes at the nominal rate and the
            # survivors re-align to it, instead of the timeline
            # demanding an unbounded catch-up burst.
            self.config.timeline_offset += resync_seconds
            report.actions.append(("*", CompensationAction.OUTAGE_RESYNC))
            if self.policy.reprime_after_outage and self.established:
                if self._reprime_proc is None or not self._reprime_proc.alive:
                    self._reprime_proc = self.sim.spawn(
                        self._reprime(),
                        name=f"hlo-reprime:{self.session_id}",
                    )
        if (
            self.policy.rebase_to_slowest
            and worst_behind_seconds > self.policy.strictness
        ):
            # Slow the group's shared timeline down to the laggard, so
            # streams stay synchronised at a reduced effective rate.
            self.config.timeline_offset += worst_behind_seconds
            report.actions.append(("*", CompensationAction.REBASE))

    def _declare_outage(self, vc_id: str, digest: StreamIntervalStats) -> None:
        """Mark a stream as in outage and notify the application.

        The ``on_outage`` hook is the Orch.Event-style escalation path:
        the HLO (or application) learns that continuous synchronisation
        on this VC has stopped entirely, as opposed to merely degraded.
        """
        self._outage_vcs.add(vc_id)
        self.outage_events.append((self.sim.now, vc_id))
        auditor = self.sim.auditor
        if auditor is not None:
            auditor.record_group_outage(self.session_id, vc_id)
        trace = self.sim.trace
        if trace.enabled:
            trace.instant(
                "orch.outage",
                track=self._track,
                cat="fault",
                args={"vc": vc_id, "behind_osdus": digest.behind_osdus},
            )
        if self.on_outage is not None:
            self.on_outage(vc_id)

    def _record_recovery(self, vc_id: str, digest: StreamIntervalStats) -> None:
        """First interval with fresh deliveries after an outage."""
        self._outage_vcs.discard(vc_id)
        self.recovery_events.append((self.sim.now, vc_id))
        auditor = self.sim.auditor
        if auditor is not None:
            auditor.record_group_recovery(self.session_id, vc_id)
        trace = self.sim.trace
        if trace.enabled:
            trace.instant(
                "orch.outage.end",
                track=self._track,
                cat="fault",
                args={"vc": vc_id, "behind_osdus": digest.behind_osdus},
            )
        if self.on_recovery is not None:
            self.on_recovery(vc_id)

    def _reprime(self):
        """Coroutine: stop / prime / start after an outage recovery.

        Refills the sink pipelines before regulation resumes
        (``policy.reprime_after_outage``); restarting regulation also
        re-captures base sequences and zeroes the timeline offset, so
        the group restarts cleanly from the recovered position.
        """
        yield from self.stop()
        yield from self.prime()
        yield from self.start()

    def _attribute(
        self, digest: StreamIntervalStats, threshold: float
    ) -> CompensationAction:
        """Blocking-time fault attribution (section 6.3.1.2)."""
        if digest.src_proto_block > threshold:
            # The source protocol starved: the source application is
            # not producing fast enough.
            return CompensationAction.DELAYED_SOURCE
        if digest.sink_proto_block > threshold:
            # The sink buffer sat full: the sink application is not
            # consuming fast enough.
            return CompensationAction.DELAYED_SINK
        if (
            digest.src_app_block > threshold
            or digest.sink_app_block > threshold
        ):
            # Applications blocked on the protocol: throughput too low.
            return CompensationAction.RENEGOTIATE
        return CompensationAction.RETARGET

    def _escalate(
        self,
        vc_id: str,
        action: CompensationAction,
        behind_seconds: float,
        interval_length: float,
        digest: StreamIntervalStats,
    ) -> None:
        if action is CompensationAction.DELAYED_SOURCE:
            self.delayed_issued.append((vc_id, "source"))
            self.sim.spawn(
                self.llo.delayed_request(
                    self.session_id, vc_id, "source", interval_length,
                    digest.behind_osdus,
                ),
                name=f"hlo-delayed:{vc_id}",
            )
        elif action is CompensationAction.DELAYED_SINK:
            self.delayed_issued.append((vc_id, "sink"))
            self.sim.spawn(
                self.llo.delayed_request(
                    self.session_id, vc_id, "sink", interval_length,
                    digest.behind_osdus,
                ),
                name=f"hlo-delayed:{vc_id}",
            )
        elif action is CompensationAction.RENEGOTIATE:
            if self.policy.escalate_renegotiate:
                self.renegotiations_requested.append(vc_id)
                if self.on_renegotiate is not None:
                    self.on_renegotiate(vc_id, behind_seconds)

    # ------------------------------------------------------------------
    # Event-driven synchronisation (section 6.3.4)
    # ------------------------------------------------------------------

    def register_event(
        self, vc_id: str, pattern: int, handler: Callable[[OrchEventIndication], None]
    ) -> None:
        """Orch.Event.request: call ``handler`` when ``pattern`` appears
        in the event field of an OSDU arriving on ``vc_id``."""
        if vc_id not in self.streams:
            raise ValueError(f"unknown stream {vc_id!r}")
        self._event_handlers[(vc_id, pattern)] = handler
        self.llo.event_register(self.session_id, vc_id, pattern)

    # ------------------------------------------------------------------
    # Introspection helpers used by benchmarks and the HLO
    # ------------------------------------------------------------------

    def current_skew(self) -> float:
        return self.skew_series[-1][1] if self.skew_series else 0.0

    def max_skew(self, since: float = 0.0) -> float:
        values = [s for t, s in self.skew_series if t >= since]
        return max(values) if values else 0.0

    def mean_skew(self, since: float = 0.0) -> float:
        values = [s for t, s in self.skew_series if t >= since]
        return sum(values) / len(values) if values else 0.0
