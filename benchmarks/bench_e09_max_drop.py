"""E9 -- Table 6 (max-drop#): source drops as the catch-up mechanism.

A video stream whose admitted throughput is ~80% of the media rate is
orchestrated with drop budgets from 0 to 5 per interval.  Measures the
steady-state lag behind target, drops actually spent, and the delivered
media rate.

Expected shape: with budget 0 the stream falls monotonically behind
(lag grows with time); small budgets catch up partially; once the
budget covers the bandwidth deficit (~5 units/s of 25) the lag is flat
and bounded, at the cost of dropped frames.
"""

import pytest

from repro.ansa.stream import VideoQoS
from repro.media.encodings import video_cbr
from repro.media.sink import PlayoutSink
from repro.media.source import StoredMediaSource
from repro.metrics.table import Table
from repro.orchestration.hlo_agent import HLOAgent, StreamSpec
from repro.orchestration.policy import OrchestrationPolicy
from repro.sim.scheduler import Timer
from repro.transport.addresses import TransportAddress

from benchmarks.common import emit, once
from benchmarks.scenarios import film_testbed

RUN_SECONDS = 20.0
INTERVAL = 0.25


def run_case(drop_budget: int):
    bed = film_testbed(seed=19, bandwidth=1.05e6)
    qos = VideoQoS.of(fps=25.0, compression_ratio=50.0, headroom=1.0)
    holder = {}

    def connector():
        holder["stream"] = yield from bed.factory.create(
            TransportAddress("video-srv", 1), TransportAddress("ws", 1), qos
        )

    bed.spawn(connector())
    bed.run(5.0)
    stream = holder["stream"]
    StoredMediaSource(
        bed.sim, stream.send_endpoint, video_cbr(25.0, qos.osdu_bytes)
    )
    sink = PlayoutSink(
        bed.sim, stream.recv_endpoint, 25.0, bed.clock("ws")
    )
    spec = StreamSpec(stream.vc_id, "video-srv", "ws", 25.0,
                      max_drop_per_interval=drop_budget)
    agent = HLOAgent(bed.sim, bed.llos["ws"], f"drop{drop_budget}",
                     [spec], OrchestrationPolicy(interval_length=INTERVAL))
    marks = {}

    def driver():
        yield from agent.establish()
        yield from agent.prime()
        yield from agent.start()
        marks["t0"] = bed.sim.now
        yield Timer(bed.sim).after(RUN_SECONDS)

    bed.spawn(driver())
    bed.run(RUN_SECONDS + 15.0)
    final = agent.reports[-1]
    digest = next(iter(final.streams.values()))
    mid = agent.reports[len(agent.reports) // 2]
    mid_digest = next(iter(mid.streams.values()))
    send_vc = bed.entities["video-srv"].send_vcs[stream.vc_id]
    rate = sink.presented / (bed.sim.now - marks["t0"])
    return {
        "final_behind": digest.behind_osdus,
        "mid_behind": mid_digest.behind_osdus,
        "drops": send_vc.buffer.dropped_at_source,
        "delivered_rate": rate,
        "presented": sink.presented,
    }


def run_experiment():
    table = Table(
        ["max-drop# per interval", "lag mid-run (OSDUs)",
         "lag at end (OSDUs)", "frames dropped", "delivered rate (fps)"],
        title=f"E9: drop-budget catch-up on a ~20%-underprovisioned "
              f"video VC ({RUN_SECONDS:.0f} s run, {INTERVAL} s intervals)",
    )
    results = {}
    for budget in (0, 1, 2, 3, 5):
        result = run_case(budget)
        results[budget] = result
        table.add(budget, result["mid_behind"], result["final_behind"],
                  result["drops"], result["delivered_rate"])
    return [table], results


@pytest.mark.benchmark(group="e09")
def test_e09_max_drop(benchmark):
    tables, results = once(benchmark, run_experiment)
    emit("e09_max_drop", tables)
    # Budget 0: lag grows between mid-run and the end and no drops.
    assert results[0]["drops"] == 0
    assert results[0]["final_behind"] > results[0]["mid_behind"]
    # A generous budget keeps the stream essentially on target.
    assert results[5]["final_behind"] <= 5
    assert results[5]["drops"] > 0
    # Monotone: more budget, less terminal lag.
    lags = [results[b]["final_behind"] for b in (0, 1, 2, 3, 5)]
    assert lags[0] == max(lags)
    assert lags[-1] == min(lags)
