"""E7 -- Figure 7 + Table 5: Orch.Prime and atomic start.

(a) Start skew: the spread of first-delivery times across N audio VCs
from N different servers to one workstation, started *with* priming
(Orch.Prime then Orch.Start) versus *without* (gates simply opened and
sources told to play).

(b) Stop-flush correctness: after Orch.Stop, seek and re-prime, how
many stale pre-seek units leak to the application (must be zero).

Expected shape: primed starts deliver first units within a couple of
milliseconds of each other independent of group size; unprimed starts
spread over the per-VC pipeline fill times (tens to hundreds of ms,
growing with rate disparity).
"""

import pytest

from repro.apps.testbed import Testbed
from repro.ansa.stream import AudioQoS
from repro.media.encodings import audio_pcm
from repro.media.sink import PlayoutSink
from repro.media.source import StoredMediaSource
from repro.metrics.table import Table
from repro.orchestration.policy import OrchestrationPolicy
from repro.sim.scheduler import Timer
from repro.transport.addresses import TransportAddress

from benchmarks.common import emit, once


def fan_in_bed(n: int, seed: int = 17) -> Testbed:
    bed = Testbed(seed=seed)
    bed.host("ws", clock_skew_ppm=40.0)
    bed.router("net")
    bed.link("ws", "net", 30e6, prop_delay=0.002)
    for i in range(n):
        bed.host(f"srv{i}", clock_skew_ppm=(-1) ** i * (60.0 + 15 * i))
        bed.link(f"srv{i}", "net", 10e6, prop_delay=0.002 + 0.002 * i)
    return bed.up()


def build_group(bed, n):
    streams, sinks, sources = [], [], []

    def connector():
        for i in range(n):
            # Vary the buffer depth so unprimed pipeline fills differ.
            qos = AudioQoS.telephone(buffer_osdus=8 + 8 * (i % 3))
            stream = yield from bed.factory.create(
                TransportAddress(f"srv{i}", 1), TransportAddress("ws", 10 + i),
                qos,
            )
            streams.append(stream)

    bed.spawn(connector())
    bed.run(5.0)
    for i, stream in enumerate(streams):
        sources.append(
            StoredMediaSource(
                bed.sim, stream.send_endpoint, audio_pcm(8000.0, 1, 32),
            )
        )
        sinks.append(
            PlayoutSink(bed.sim, stream.recv_endpoint, 250.0,
                        bed.clock("ws"))
        )
    return streams, sources, sinks


def start_skew(n: int, primed: bool) -> float:
    bed = fan_in_bed(n)
    streams, sources, sinks = build_group(bed, n)
    specs = [s.spec(max_drop_per_interval=0) for s in streams]
    marks = {}

    if primed:
        def driver():
            session = yield from bed.hlo.orchestrate(
                specs, OrchestrationPolicy(interval_length=0.2)
            )
            yield from session.prime()
            yield from session.start()
            marks["t0"] = bed.sim.now
            yield Timer(bed.sim).after(5.0)
    else:
        # Unprimed, unorchestrated baseline: the application starts
        # each track by its own control invocation, one after the
        # other; each sink starts playing when its own pipeline
        # happens to deliver -- "if the relationship is not correctly
        # initiated, there is no possibility of maintaining a correct
        # temporal relationship" (section 3.6).
        def driver():
            marks["t0"] = bed.sim.now
            for i, source in enumerate(sources):
                # one control RPC per server, sequentially
                rtt = 2 * bed.network.path_propagation_delay(
                    "ws", f"srv{i}"
                )
                yield Timer(bed.sim).after(rtt)
                source.play()
            yield Timer(bed.sim).after(5.0)

    bed.spawn(driver())
    bed.run(40.0)
    firsts = [
        sink.records[0].delivered_at for sink in sinks if sink.records
    ]
    assert len(firsts) == n, "some sink never received data"
    return max(firsts) - min(firsts)


def stale_after_seek() -> int:
    bed = fan_in_bed(2, seed=23)
    streams, sources, sinks = build_group(bed, 2)
    specs = [s.spec(max_drop_per_interval=0) for s in streams]
    marks = {}

    def driver():
        session = yield from bed.hlo.orchestrate(
            specs, OrchestrationPolicy(interval_length=0.2)
        )
        yield from session.prime()
        yield from session.start()
        yield Timer(bed.sim).after(4.0)
        yield from session.stop()
        for source in sources:
            source.seek(120.0)
        marks["resume"] = bed.sim.now
        yield from session.prime()
        yield from session.start()
        yield Timer(bed.sim).after(3.0)

    bed.spawn(driver())
    bed.run(30.0)
    stale = 0
    for sink in sinks:
        stale += sum(
            1
            for r in sink.records
            if r.delivered_at > marks["resume"] and r.media_time < 120.0
        )
    return stale


def run_experiment():
    skew_table = Table(
        ["group size", "primed start skew (ms)", "unprimed start skew (ms)"],
        title="E7a: spread of first deliveries across the group "
              "(Orch.Prime + Orch.Start vs bare start)",
    )
    results = {}
    for n in (2, 4, 8):
        primed = start_skew(n, primed=True)
        unprimed = start_skew(n, primed=False)
        results[n] = (primed, unprimed)
        skew_table.add(n, primed * 1e3, unprimed * 1e3)

    flush_table = Table(
        ["scenario", "stale pre-seek units delivered"],
        title="E7b: stop + seek + re-prime buffer clean-out "
              "(section 6.2.1's third use of Orch.Prime)",
    )
    stale = stale_after_seek()
    flush_table.add("stop, seek to 120 s, prime, start", stale)
    return [skew_table, flush_table], results, stale


@pytest.mark.benchmark(group="e07")
def test_e07_prime_start(benchmark):
    tables, results, stale = once(benchmark, run_experiment)
    emit("e07_prime_start", tables)
    for n, (primed, unprimed) in results.items():
        assert primed < unprimed
        assert primed < 0.02  # "(almost) the same instant"
    assert stale == 0
