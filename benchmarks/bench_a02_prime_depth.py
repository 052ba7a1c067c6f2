"""Ablation A2 -- priming depth (receive buffer size in OSDUs).

The paper sizes receive buffers from the max-OSDU QoS parameter
(section 5) and priming fills them completely.  This ablation sweeps
the pipeline depth and measures the two things it trades:

- prime latency (the filled-pipeline wait of Figure 7), which grows
  linearly with depth at the contracted rate, and
- the stream's resilience to a transient network outage (a brief
  link freeze), which deep pipelines ride out and shallow ones do not.

Expected shape: prime latency ~ depth / rate; delivery stall during a
200 ms outage shrinks as depth grows past rate x outage.
"""

import pytest

from repro.apps.testbed import Testbed
from repro.ansa.stream import AudioQoS
from repro.media.encodings import audio_pcm
from repro.media.sink import PlayoutSink
from repro.media.source import StoredMediaSource
from repro.metrics.table import Table
from repro.orchestration.hlo_agent import HLOAgent, StreamSpec
from repro.orchestration.policy import OrchestrationPolicy
from repro.sim.scheduler import Timer
from repro.transport.addresses import TransportAddress

from benchmarks.common import emit, once

OUTAGE = 0.2  # seconds of link freeze


def run_case(depth: int):
    bed = Testbed(seed=59 + depth)
    bed.host("srv")
    bed.host("ws")
    bed.link("srv", "ws", 10e6, prop_delay=0.003)
    bed.up()
    qos = AudioQoS.telephone(buffer_osdus=depth)
    holder = {}

    def connector():
        holder["stream"] = yield from bed.factory.create(
            TransportAddress("srv", 1), TransportAddress("ws", 1), qos
        )

    bed.spawn(connector())
    bed.run(5.0)
    stream = holder["stream"]
    StoredMediaSource(bed.sim, stream.send_endpoint, audio_pcm(8000.0, 1, 32))
    sink = PlayoutSink(bed.sim, stream.recv_endpoint, 250.0,
                       bed.clock("ws"))
    agent = HLOAgent(
        bed.sim, bed.llos["ws"], f"depth{depth}",
        [StreamSpec(stream.vc_id, "srv", "ws", 250.0)],
        OrchestrationPolicy(interval_length=0.2),
    )
    out = {}

    def driver():
        yield from agent.establish()
        start = bed.sim.now
        yield from agent.prime()
        out["prime_latency"] = bed.sim.now - start
        yield from agent.start()
        yield Timer(bed.sim).after(5.0)
        # Freeze the srv->ws link by zeroing its delivery for OUTAGE.
        link = bed.network.link_between("srv", "ws")
        saved = link.on_deliver
        held = []
        link.on_deliver = held.append
        yield Timer(bed.sim).after(OUTAGE)
        link.on_deliver = saved
        for packet in held:
            saved(packet)
        out["outage_at"] = bed.sim.now - OUTAGE
        yield Timer(bed.sim).after(3.0)

    bed.spawn(driver())
    bed.run(30.0)
    # Longest delivery gap observed around the outage window.
    window = [
        r.delivered_at for r in sink.records
        if out["outage_at"] - 1.0 <= r.delivered_at <= out["outage_at"] + 2.0
    ]
    gaps = [b - a for a, b in zip(window, window[1:])]
    return out["prime_latency"], max(gaps) if gaps else float("inf")


def run_experiment():
    table = Table(
        ["pipeline depth (OSDUs)", "prime latency (ms)",
         f"worst delivery gap around a {OUTAGE*1e3:.0f} ms outage (ms)"],
        title="A2: priming depth ablation (250 blk/s voice)",
    )
    results = {}
    for depth in (4, 8, 16, 32, 64):
        prime_latency, worst_gap = run_case(depth)
        results[depth] = (prime_latency, worst_gap)
        table.add(depth, prime_latency * 1e3, worst_gap * 1e3)
    return [table], results


@pytest.mark.benchmark(group="a02")
def test_a02_prime_depth(benchmark):
    tables, results = once(benchmark, run_experiment)
    emit("a02_prime_depth", tables)
    latencies = [results[d][0] for d in (4, 8, 16, 32, 64)]
    assert latencies == sorted(latencies)  # deeper pipeline, longer prime
    # A deep pipeline rides out the outage; a shallow one stalls for
    # (almost) the whole outage.
    assert results[64][1] < results[4][1]
    assert results[4][1] > OUTAGE * 0.5
