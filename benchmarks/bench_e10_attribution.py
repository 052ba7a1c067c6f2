"""E10 -- section 6.3.1.2: blocking-time fault attribution.

Injects three distinct faults into a regulated video stream -- a slow
source application, a slow sink application, and an under-provisioned
protocol (low contracted throughput) -- and records which compensation
the HLO agent chose and how long diagnosis took.

Expected shape: each fault maps to its own action (Orch.Delayed to the
source, Orch.Delayed to the sink, T-Renegotiate respectively); a
healthy stream triggers nothing; diagnosis lands within
patience x interval plus a couple of reporting round trips.
"""

import pytest

from repro.ansa.stream import VideoQoS
from repro.media.encodings import video_cbr
from repro.media.sink import PlayoutSink
from repro.media.source import StoredMediaSource
from repro.metrics.table import Table
from repro.orchestration.hlo_agent import HLOAgent, StreamSpec
from repro.orchestration.policy import CompensationAction, OrchestrationPolicy
from repro.sim.scheduler import Timer
from repro.transport.addresses import TransportAddress

from benchmarks.common import emit, once
from benchmarks.scenarios import film_testbed

INTERVAL = 0.25
FAULT_DELAY = 0.08  # 12.5 units/s against a 25 fps target


def run_case(fault: str):
    bandwidth = 1.1e6 if fault == "protocol" else 20e6
    bed = film_testbed(seed=29, bandwidth=bandwidth)
    qos = VideoQoS.of(
        fps=25.0, headroom=1.0 if fault == "protocol" else 1.3
    )
    holder = {}

    def connector():
        holder["stream"] = yield from bed.factory.create(
            TransportAddress("video-srv", 1), TransportAddress("ws", 1), qos
        )

    bed.spawn(connector())
    bed.run(5.0)
    stream = holder["stream"]
    StoredMediaSource(
        bed.sim, stream.send_endpoint, video_cbr(25.0, qos.osdu_bytes),
        per_osdu_delay=FAULT_DELAY if fault == "source" else 0.0,
    )
    PlayoutSink(
        bed.sim, stream.recv_endpoint, 25.0, bed.clock("ws"),
        per_osdu_delay=FAULT_DELAY if fault == "sink" else 0.0,
    )
    spec = StreamSpec(stream.vc_id, "video-srv", "ws", 25.0,
                      max_drop_per_interval=0)
    agent = HLOAgent(
        bed.sim, bed.llos["ws"], f"attr-{fault}", [spec],
        OrchestrationPolicy(
            interval_length=INTERVAL, patience_intervals=2,
            delayed_threshold_osdus=2, block_fraction_threshold=0.4,
        ),
    )
    marks = {}

    def driver():
        yield from agent.establish()
        yield from agent.prime()
        yield from agent.start()
        marks["t0"] = bed.sim.now
        yield Timer(bed.sim).after(12.0)

    bed.spawn(driver())
    bed.run(30.0)
    escalations = [
        (report.completed_at, action)
        for report in agent.reports
        for _vc, action in report.actions
        if action not in (CompensationAction.RETARGET,
                          CompensationAction.NONE)
    ]
    first = escalations[0] if escalations else (float("nan"), None)
    actions = {action for _t, action in escalations}
    return {
        "actions": actions,
        "first_action": first[1],
        "diagnosis_latency": first[0] - marks["t0"] if escalations else
        float("nan"),
        "delayed_count": len(agent.delayed_issued),
        "renegotiations": len(agent.renegotiations_requested),
    }


EXPECTED = {
    "none": None,
    "source": CompensationAction.DELAYED_SOURCE,
    "sink": CompensationAction.DELAYED_SINK,
    "protocol": CompensationAction.RENEGOTIATE,
}


def run_experiment():
    table = Table(
        ["injected fault", "diagnosed action", "diagnosis latency (s)",
         "Orch.Delayed issued", "renegotiations"],
        title="E10: blocking-time fault attribution "
              "(section 6.3.1.2 decision rules)",
    )
    results = {}
    for fault in ("none", "source", "sink", "protocol"):
        result = run_case(fault)
        results[fault] = result
        table.add(
            fault,
            result["first_action"].value if result["first_action"] else "-",
            result["diagnosis_latency"],
            result["delayed_count"],
            result["renegotiations"],
        )
    return [table], results


@pytest.mark.benchmark(group="e10")
def test_e10_attribution(benchmark):
    tables, results = once(benchmark, run_experiment)
    emit("e10_attribution", tables)
    assert results["none"]["first_action"] is None
    for fault in ("source", "sink", "protocol"):
        assert results[fault]["first_action"] == EXPECTED[fault]
        assert results[fault]["diagnosis_latency"] < 3.0
        # Attribution is exclusive: no cross-diagnosis.
        assert results[fault]["actions"] == {EXPECTED[fault]}
