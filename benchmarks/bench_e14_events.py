"""E14 -- section 6.3.4: Orch.Event vs application-layer scanning.

The paper claims its in-band event mechanism "avoids complicating
application code, permits system dependent optimisations ... and also
permits OSDUs to be dumped directly into, say, a video frame buffer" --
the alternative being an application thread that examines every
incoming OSDU and notifies interested parties by invocation.

We measure both mechanisms on the same marked stream: notification
latency from the marked unit's *release at the sink* to the observer's
callback, plus the work done (units examined, control messages sent).

Expected shape: Orch.Event notifies within one control one-way delay
and examines nothing in the application; the scanning baseline touches
every OSDU and adds an RPC per event.
"""

import pytest

from repro.ansa.interface import ServiceInterface
from repro.ansa.stream import VideoQoS
from repro.media.encodings import video_cbr
from repro.media.sink import PlayoutSink
from repro.media.source import StoredMediaSource
from repro.metrics.stats import summarize
from repro.metrics.table import Table
from repro.orchestration.hlo_agent import HLOAgent, StreamSpec
from repro.orchestration.policy import OrchestrationPolicy
from repro.sim.scheduler import Timer
from repro.transport.addresses import TransportAddress

from benchmarks.common import emit, once
from benchmarks.scenarios import film_testbed

MARK = 0xE7
MARKED_FRAMES = list(range(20, 500, 40))
RUN_SECONDS = 25.0


def build(seed):
    bed = film_testbed(seed=seed)
    qos = VideoQoS.of(fps=25.0, compression_ratio=80.0)
    holder = {}

    def connector():
        holder["stream"] = yield from bed.factory.create(
            TransportAddress("video-srv", 1), TransportAddress("ws", 1), qos
        )

    bed.spawn(connector())
    bed.run(5.0)
    stream = holder["stream"]
    source = StoredMediaSource(
        bed.sim, stream.send_endpoint, video_cbr(25.0, qos.osdu_bytes),
        event_marks={f: MARK for f in MARKED_FRAMES},
    )
    sink = PlayoutSink(bed.sim, stream.recv_endpoint, 25.0,
                       bed.clock("ws"))
    return bed, stream, source, sink


def release_times(bed, stream):
    """Record when each marked unit is released at the sink (truth)."""
    recv_vc = bed.entities["ws"].recv_vcs[stream.vc_id]
    truth = {}

    def spy(osdu):
        if osdu.event == MARK:
            truth[osdu.seq] = bed.sim.now

    recv_vc.add_release_observer(spy)
    return truth


def run_orch_event():
    bed, stream, source, sink = build(47)
    truth = release_times(bed, stream)
    notifications = {}
    spec = StreamSpec(stream.vc_id, "video-srv", "ws", 25.0,
                      max_drop_per_interval=0)
    agent = HLOAgent(bed.sim, bed.llos["ws"], "events", [spec],
                     OrchestrationPolicy(interval_length=0.2))

    def driver():
        yield from agent.establish()
        agent.register_event(
            stream.vc_id, MARK,
            lambda ind: notifications.setdefault(ind.osdu_seq, bed.sim.now),
        )
        yield from agent.prime()
        yield from agent.start()
        yield Timer(bed.sim).after(RUN_SECONDS)

    bed.spawn(driver())
    bed.run(RUN_SECONDS + 15.0)
    latencies = [
        notifications[seq] - truth[seq]
        for seq in notifications
        if seq in truth
    ]
    return latencies, len(notifications), 0  # app examines nothing


def run_app_scanning():
    """Baseline: the sink application inspects every delivered OSDU and
    notifies a manager object by (delay-bounded) invocation."""
    bed, stream, source, sink = build(48)
    truth = release_times(bed, stream)
    notifications = {}
    examined = {"count": 0}

    manager = ServiceInterface("video-srv", "EventManager")
    manager.export(
        "notify",
        lambda seq, t=None: notifications.setdefault(seq, bed.sim.now),
    )
    ref = bed.trader.export("event-manager", manager)

    def scanner():
        # Consume from the endpoint *in place of* the playout sink:
        # examine each unit, forward events by RPC.
        while True:
            osdu = yield from stream.recv_endpoint.read()
            examined["count"] += 1
            if osdu.event == MARK:
                yield from bed.rpc.invoke("ws", ref, "notify", osdu.seq)

    # Replace the PlayoutSink consumer with our scanning thread.
    sink._consumer.interrupt("replaced")
    bed.spawn(scanner())
    source.play()
    bed.run(RUN_SECONDS + 15.0)
    latencies = [
        notifications[seq] - truth[seq]
        for seq in notifications
        if seq in truth
    ]
    return latencies, len(notifications), examined["count"]


def run_experiment():
    orch_lat, orch_count, orch_examined = run_orch_event()
    scan_lat, scan_count, scan_examined = run_app_scanning()
    table = Table(
        ["mechanism", "events caught", "notify latency mean (ms)",
         "notify latency p95 (ms)", "OSDUs examined by app"],
        title="E14: in-band Orch.Event vs application-layer scanning",
    )
    orch = summarize(orch_lat)
    scan = summarize(scan_lat)
    table.add("Orch.Event (section 6.3.4)", orch_count, orch.mean * 1e3,
              orch.p95 * 1e3, orch_examined)
    table.add("app scanning + RPC notify", scan_count, scan.mean * 1e3,
              scan.p95 * 1e3, scan_examined)
    return [table], orch, scan, orch_examined, scan_examined, orch_count, scan_count


@pytest.mark.benchmark(group="e14")
def test_e14_events(benchmark):
    (tables, orch, scan, orch_examined, scan_examined,
     orch_count, scan_count) = once(benchmark, run_experiment)
    emit("e14_events", tables)
    assert orch_count >= 10 and scan_count >= 10
    # The event mechanism spares the application from touching data.
    assert orch_examined == 0
    assert scan_examined > 500
    # And it notifies at least as promptly (release-time matching vs
    # waiting for gated delivery + an extra RPC).
    assert orch.mean <= scan.mean + 0.001
