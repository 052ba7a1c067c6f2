"""``film_orch`` and ``film_obs``: the paper's own path, per OSDU.

GROUPS film groups share one router.  Each group is a video server and
an audio server feeding one workstation: two T-Connect'd rate-based VCs
(25 fps video, 250/s 32-byte audio blocks), stored sources, gated
playout sinks, one HLO session regulating both under Orch.Regulate
every 0.2 s.  Sources are open-loop in *virtual* time; on the host the
rep is a fixed batch of PLAY_SECONDS virtual seconds.

``film_obs`` is the same stack with the auditor and a PACKET-level
tracer switched on, and exports both in its finish phase -- the pair
prices the obs layer "when on".
"""

from __future__ import annotations

import os
import random
from time import perf_counter
from typing import Callable, Dict, List

from repro.ansa.stream import AudioQoS, VideoQoS
from repro.core import Stack
from repro.media.encodings import audio_pcm, video_cbr
from repro.media.sink import PlayoutSink
from repro.media.source import StoredMediaSource
from repro.obs.trace import TraceLevel
from repro.orchestration.hlo import OrchestrationError
from repro.orchestration.policy import OrchestrationPolicy
from repro.sim.shard import reset_process_state
from repro.transport.addresses import TransportAddress
from repro.transport.service import ConnectionRefused

from perf.harness import (
    Phases, RepStats, link_counts, seq_count, step_until,
)

GROUPS = 4
#: Virtual seconds of play per rep, in 1 s slices.
PLAY_SECONDS = {"film_orch": 90, "film_obs": 60}
DRIFT_PPM = 200.0
INTERVAL = 0.2
VIDEO_MAX_DROP = 2
#: Lip-sync guard: perceptual threshold the session must stay within
#: once the start transient has settled.
MAX_SKEW_S = 0.080
SKEW_SETTLE_S = 2.0
#: Event budget for one confirmed setup or teardown stage.
STAGE_EVENT_LIMIT = 2_000_000


def build(seed: int, obs: bool) -> Stack:
    """The star of GROUPS film groups; host drifts drawn from ``seed``."""
    rng = random.Random(seed)
    stack = Stack(seed=seed)
    if obs:
        stack.enable_tracing(TraceLevel.PACKET)
        stack.enable_audit()
    stack.router("net")
    for g in range(GROUPS):
        for role in ("video-srv", "audio-srv", "ws"):
            name = f"{role}{g}"
            stack.host(name, clock_skew_ppm=rng.uniform(-DRIFT_PPM, DRIFT_PPM))
            stack.link(name, "net", 20e6, prop_delay=0.003)
    return stack.up()


class _Group:
    """One film group's streams, media endpoints and session."""

    def __init__(self, stack: Stack, index: int):
        self.stack = stack
        self.index = index
        self.streams: Dict[str, object] = {}
        self.sources: Dict[str, StoredMediaSource] = {}
        self.sinks: Dict[str, PlayoutSink] = {}
        self.session = None
        self.attempted = 0
        self.failed = 0
        #: Name of the last stage this group completed or failed.
        self.stage = "new"

    def stage_process(self, name: str, body: Callable):
        """Coroutine running one stage; a refusal ends the group."""
        try:
            yield from body()
        except (ConnectionRefused, OrchestrationError):
            self.failed += 1
            self.stage = "dead"
        else:
            self.stage = name

    def connect(self):
        g = self.index
        media = {
            "video": (f"video-srv{g}", 1,
                      VideoQoS.of(fps=25.0, compression_ratio=80.0)),
            "audio": (f"audio-srv{g}", 2, AudioQoS.telephone()),
        }
        for name, (server, tsap, qos) in media.items():
            self.attempted += 1
            self.streams[name] = yield from self.stack.factory.create(
                TransportAddress(server, tsap),
                TransportAddress(f"ws{g}", tsap), qos,
            )

    def attach_media(self) -> None:
        stack = self.stack
        encodings = {
            "video": video_cbr(25.0, self.streams["video"].media_qos.osdu_bytes),
            "audio": audio_pcm(8000.0, 1, 32),
        }
        for name, stream in self.streams.items():
            self.sources[name] = StoredMediaSource(
                stack.sim, stream.send_endpoint, encodings[name],
            )
            self.sinks[name] = PlayoutSink(
                stack.sim, stream.recv_endpoint,
                osdu_rate=encodings[name].osdu_rate,
                clock=stack.clock(f"ws{self.index}"), mode="gated",
            )

    def orchestrate(self):
        self.attempted += 3
        self.session = yield from self.stack.hlo.orchestrate(
            [
                self.streams["video"].spec(
                    max_drop_per_interval=VIDEO_MAX_DROP),
                self.streams["audio"].spec(max_drop_per_interval=0),
            ],
            OrchestrationPolicy(interval_length=INTERVAL),
        )
        yield from self.session.prime()
        yield from self.session.start()

    def stop(self):
        self.attempted += 1
        yield from self.session.stop()
        self.session.release()


def _stage(stack: Stack, groups: List[_Group], name: str, method: str) -> float:
    """Run one stage on every live group up to its last confirm;
    returns the stage's wall time."""
    live = [g for g in groups if g.stage != "dead"]
    started = perf_counter()
    for group in live:
        stack.spawn(
            group.stage_process(name, getattr(group, method)),
            name=f"{name}:{group.index}",
        )
    step_until(
        stack.sim, lambda: all(g.stage in (name, "dead") for g in live),
        STAGE_EVENT_LIMIT)
    return perf_counter() - started


def run(name: str, seed: int, phases: Phases, tmp: str) -> RepStats:
    obs = name == "film_obs"
    reset_process_state()
    stack = build(seed, obs)
    groups = [_Group(stack, g) for g in range(GROUPS)]
    host: Dict[str, float] = {}
    host["connect_s"] = _stage(stack, groups, "connected", "connect")
    for group in groups:
        if group.stage == "connected":
            group.attach_media()
    host["establish_s"] = _stage(stack, groups, "started", "orchestrate")
    sinks = [s for g in groups for s in g.sinks.values()]
    presented0 = sum(s.presented for s in sinks)
    events0 = seq_count(stack.sim)
    started_at = stack.now
    phases.setup_done()

    for _ in range(PLAY_SECONDS[name]):
        stack.run(1.0)
        phases.slice_done()
    units = sum(s.presented for s in sinks) - presented0
    events = seq_count(stack.sim) - events0

    _stage(stack, groups, "stopped", "stop")
    if obs:
        t0 = perf_counter()
        audit_path = stack.export_audit(os.path.join(tmp, "audit.json"))
        trace_path = stack.export_trace(os.path.join(tmp, "trace.json"))
        host["export_s"] = perf_counter() - t0
        host["export_mib"] = (
            os.path.getsize(audit_path) + os.path.getsize(trace_path)
        ) / 2 ** 20
    stats = _collect(stack, groups, units, events, host, obs,
                     started_at + SKEW_SETTLE_S)
    del stack, groups, sinks
    return stats


def _collect(stack: Stack, groups: List[_Group], units: int, events: int,
             host: Dict[str, float], obs: bool, settled_at: float) -> RepStats:
    problems = [
        f"group {g.index} ended in stage {g.stage!r}"
        for g in groups if g.stage != "stopped"
    ]
    sim: Dict[str, object] = {"metrics": stack.sim.metrics.as_dict()}
    submitted = presented = lost = failed = sent = retx = 0
    regulation_drops = intervals = 0
    blocked = 0.0
    max_skew = 0.0
    for group in groups:
        if group.session is None:
            continue
        reports = group.session.reports()
        intervals += len(reports)
        max_skew = max(max_skew, group.session.max_skew(since=settled_at))
        for name, stream in group.streams.items():
            vc_id = stream.vc_id
            budget = VIDEO_MAX_DROP if name == "video" else 0
            send_vc = stack.entities[stream.source_node].send_vcs[vc_id]
            recv_vc = stack.entities[stream.sink_node].recv_vcs[vc_id]
            source, sink = group.sources[name], group.sinks[name]
            drops = [r.streams[vc_id].dropped_delta
                     for r in reports if vc_id in r.streams]
            failed += sum(max(d - budget, 0) for d in drops)
            # Conservation: every generated OSDU is presented, lost,
            # dropped by regulation, or still queued between the source
            # buffer and the sink's gate.
            queued = (source.generated - sink.presented - recv_vc.lost_count
                      - recv_vc.source_dropped_count)
            capacity = 2 * (send_vc.buffer.capacity + recv_vc.buffer.capacity)
            if not 0 <= queued <= capacity:
                problems.append(
                    f"{vc_id}: {queued} OSDUs unaccounted for "
                    f"(capacity {capacity})")
            submitted += source.generated
            presented += sink.presented
            lost += recv_vc.lost_count
            failed += recv_vc.lost_count
            sent += send_vc.sent_count
            retx += send_vc.retransmit_count
            regulation_drops += sum(drops)
            blocked += send_vc.blocked_time("protocol")
            sim[f"{group.index}.{name}"] = {
                "generated": source.generated, "presented": sink.presented,
                "sent": send_vc.sent_count,
                "retransmits": send_vc.retransmit_count,
                "lost": recv_vc.lost_count,
                "source_dropped": recv_vc.source_dropped_count,
                "regulation_drops": sum(drops),
            }
    if max_skew > MAX_SKEW_S:
        problems.append(f"lip-sync skew {max_skew * 1e3:.1f} ms > 80 ms")
    sim["max_skew"] = max_skew
    sim["intervals"] = intervals
    counts = {
        **link_counts(sim["metrics"]),
        "events": events, "submitted": submitted, "presented": presented,
        "tpdus": sent, "retransmits": retx, "lost_osdus": lost,
        "intervals": intervals, "regulation_drops": regulation_drops,
        "max_skew_sim_ms": max_skew * 1e3, "blocked_sim_s": blocked,
        "connects": sum(len(g.streams) for g in groups),
        "groups": sum(g.session is not None for g in groups),
    }
    if obs:
        summary = stack.sim.auditor.snapshot()["summary"]
        sim["audit"] = summary
        counts["audit_periods"] = summary.get("periods", 0)
        counts["trace_events"] = len(stack.sim.trace)
    return RepStats(
        units=units,
        attempted=sum(g.attempted for g in groups) + submitted,
        failed=sum(g.failed for g in groups) + failed,
        sim=sim, counts=counts, host=host, problems=problems,
    )
