"""E16 -- section 3.7: VBR media over the rate-paced transport.

"We apply the principle that at each time period there will always be
something to transmit (i.e. one logical unit) even when CM data is
variable bit rate encoded" -- VBR varies the unit *size*, never the
unit rate.  The dimensioning question that follows: how much must the
VC's contracted rate exceed the VBR stream's mean rate before the
periodic I-frame bursts stop hurting delivery?

A GOP-structured VBR stream (I-frame ~3x the mean) is carried over VCs
provisioned at 1.0x / 1.2x / 1.5x / 2.2x its mean rate; a CBR stream
of the same mean is the control.

Expected shape: at 1.0x the pacing debt from every I-frame accumulates
(delay grows without bound); modest headroom drains the debt between
bursts and p95 delay collapses toward the CBR control; near peak-rate
provisioning VBR behaves like CBR.
"""

import pytest

from repro.core import Stack
from repro.media.encodings import VBREncoding, video_cbr
from repro.metrics.stats import interarrival_jitter, summarize
from repro.metrics.table import Table
from repro.sim.scheduler import Timer
from repro.transport.addresses import TransportAddress
from repro.transport.osdu import OSDU
from repro.transport.qos import QoSSpec
from repro.transport.service import connect_pair

from benchmarks.common import emit, once

FPS = 25.0
RUN_SECONDS = 30.0
VBR = VBREncoding("vbr", FPS, 9000, gop=12, p_fraction=0.3, noise=0.15)


def run_case(encoding, headroom: float):
    stack = Stack(seed=91)
    stack.host("a")
    stack.host("b")
    stack.link("a", "b", 30e6, prop_delay=0.004)
    stack.up()
    sim, entities = stack.sim, stack.entities
    mean_wire_bps = FPS * (VBR.mean_osdu_bytes + 72) * 8
    qos = QoSSpec.simple(
        mean_wire_bps * headroom, slack=1.0,
        max_osdu_bytes=encoding.max_osdu_bytes, per=0.5, ber=0.5,
        buffer_osdus=24,
    )
    send, recv = connect_pair(
        sim, entities, TransportAddress("a", 1), TransportAddress("b", 1),
        qos,
    )
    deliveries = []
    rng = stack.stream("vbr-sizes")

    def producer():
        n = 0
        start = sim.now
        while sim.now - start < RUN_SECONDS + 5.0:
            wait = start + n / FPS - sim.now
            if wait > 0:
                yield Timer(sim).after(wait)
            size = encoding.osdu_size(n, rng)
            yield from send.write(OSDU(size_bytes=size, payload=n))
            n += 1

    def consumer():
        while True:
            osdu = yield from recv.read()
            deliveries.append((sim.now, osdu.created_at))

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run(until=sim.now + RUN_SECONDS + 10.0)
    delays = [t - c for t, c in deliveries][25:]
    arrivals = [t for t, _c in deliveries][25:]
    return {
        "delay": summarize(delays),
        "jitter": interarrival_jitter(arrivals),
        "count": len(deliveries),
    }


def run_experiment():
    cbr = video_cbr(FPS, int(VBR.mean_osdu_bytes))
    table = Table(
        ["encoding", "provisioning (x mean)", "delay mean (ms)",
         "delay p95 (ms)", "delay max (ms)", "jitter p95 (ms)"],
        title=f"E16: VBR (GOP {VBR.gop}, I-frame ~3x mean) vs CBR over "
              f"rate-paced VCs, {RUN_SECONDS:.0f} s at {FPS:.0f} fps",
    )
    results = {}
    control = run_case(cbr, 1.05)
    table.add("CBR control", 1.05, control["delay"].mean * 1e3,
              control["delay"].p95 * 1e3, control["delay"].maximum * 1e3,
              control["jitter"].p95 * 1e3)
    for headroom in (1.0, 1.2, 1.5, 2.2):
        result = run_case(VBR, headroom)
        results[headroom] = result
        table.add("VBR", headroom, result["delay"].mean * 1e3,
                  result["delay"].p95 * 1e3, result["delay"].maximum * 1e3,
                  result["jitter"].p95 * 1e3)
    return [table], results, control


@pytest.mark.benchmark(group="e16")
def test_e16_vbr(benchmark):
    tables, results, control = once(benchmark, run_experiment)
    emit("e16_vbr", tables)
    # Mean-rate provisioning cannot absorb I-frame bursts: pacing debt
    # accumulates until the shared buffer backpressures, and the worst
    # delay clearly exceeds the provisioned-with-headroom runs.
    assert results[1.0]["delay"].maximum > 1.5 * results[1.2]["delay"].maximum
    assert results[1.0]["delay"].mean > 2 * results[1.2]["delay"].mean
    # Headroom monotonically tames the p95 delay...
    p95s = [results[h]["delay"].p95 for h in (1.0, 1.2, 1.5, 2.2)]
    assert p95s == sorted(p95s, reverse=True)
    # ...and at >2x mean the VBR stream is within 2x of the CBR control.
    assert results[2.2]["delay"].p95 < 2 * control["delay"].p95 + 0.01
