"""E11 -- section 3.6: layered multiplexing considered harmful.

The paper (citing [Tennenhouse,90]) argues against multiplexing
related media onto one VC.  We build both designs:

- **multiplexed**: audio blocks and video frames interleaved on a
  single VC whose QoS is the combination (video-sized units, summed
  throughput);
- **separate**: one VC per medium with media-appropriate QoS,
  orchestrated for synchronisation.

and measure what the paper predicts suffers: the delay and smoothness
of the *less demanding* medium (audio), plus the resource cost of the
combined worst-case QoS.

Expected shape: muxed audio inherits video's unit-size-induced delay
quantum -- higher mean delay and far higher jitter; separate VCs keep
audio smooth. The muxed VC also reserves video-grade buffering for
audio ("expensive and unsuited to some component media types").
"""

import pytest

from repro.apps.testbed import Testbed
from repro.ansa.stream import AudioQoS, MediaQoS, VideoQoS
from repro.media.encodings import audio_pcm, video_cbr
from repro.metrics.stats import interarrival_jitter, summarize
from repro.metrics.table import Table
from repro.sim.scheduler import Timer
from repro.transport.addresses import TransportAddress
from repro.transport.osdu import OSDU

from benchmarks.common import emit, once

RUN_SECONDS = 20.0
VIDEO = VideoQoS.of(fps=25.0, compression_ratio=80.0)
AUDIO = AudioQoS.telephone()


def mux_bed(seed=37):
    bed = Testbed(seed=seed)
    bed.host("server")
    bed.host("ws")
    bed.link("server", "ws", 20e6, prop_delay=0.004)
    return bed.up()


def combined_qos() -> MediaQoS:
    """The muxed VC's QoS: summed throughput, worst-case unit size.

    The effective OSDU rate that reserves the summed bandwidth at the
    worst-case unit size is sum(rate_i * wire_i) / wire_max -- anything
    larger reserves video-grade bandwidth for every audio block.
    """
    overhead = MediaQoS.WIRE_OVERHEAD_BYTES
    total_wire_bps = sum(
        q.osdu_rate * (q.osdu_bytes + overhead) * 8 for q in (VIDEO, AUDIO)
    )
    wire_max = (VIDEO.osdu_bytes + overhead) * 8
    return MediaQoS(
        osdu_rate=total_wire_bps / wire_max,
        osdu_bytes=VIDEO.osdu_bytes,  # worst case unit size
        delay_bound=min(VIDEO.delay_bound, AUDIO.delay_bound),
        jitter_bound=min(VIDEO.jitter_bound, AUDIO.jitter_bound),
        loss_tolerance=min(VIDEO.loss_tolerance, AUDIO.loss_tolerance),
        headroom=1.3,
        buffer_osdus=16,
    )


def run_multiplexed():
    bed = mux_bed()
    combined = combined_qos()
    holder = {}

    def connector():
        holder["stream"] = yield from bed.factory.create(
            TransportAddress("server", 1), TransportAddress("ws", 1), combined
        )

    bed.spawn(connector())
    bed.run(5.0)
    stream = holder["stream"]
    audio_deliveries = []
    video_deliveries = []
    video_enc = video_cbr(25.0, VIDEO.osdu_bytes)
    audio_enc = audio_pcm(8000.0, 1, 32)

    def mux_producer():
        # Interleave in media order, *paced at media time*: at each
        # instant send whichever medium's next unit is due sooner
        # (10 audio blocks per frame).
        nv = na = 0
        start = bed.sim.now
        while bed.sim.now - start < RUN_SECONDS + 8.0:
            due_v = nv / video_enc.osdu_rate
            due_a = na / audio_enc.osdu_rate
            due = min(due_v, due_a)
            wait = start + due - bed.sim.now
            if wait > 0:
                yield Timer(bed.sim).after(wait)
            if due_v <= due_a:
                yield from stream.send_endpoint.write(
                    OSDU(size_bytes=VIDEO.osdu_bytes, payload=("v", nv),
                         media_time=due_v)
                )
                nv += 1
            else:
                yield from stream.send_endpoint.write(
                    OSDU(size_bytes=32, payload=("a", na), media_time=due_a)
                )
                na += 1

    def demux_consumer():
        while True:
            osdu = yield from stream.recv_endpoint.read()
            kind, _index = osdu.payload
            record = (bed.sim.now, osdu.created_at)
            if kind == "a":
                audio_deliveries.append(record)
            else:
                video_deliveries.append(record)

    bed.spawn(mux_producer())
    bed.spawn(demux_consumer())
    bed.run(RUN_SECONDS + 12.0)
    reserved = bed.reservations
    reserved_bps = sum(r.rate_bps for r in reserved.reservations.values())
    return audio_deliveries, video_deliveries, reserved_bps


def run_separate():
    bed = mux_bed(seed=38)
    holder = {}

    def connector():
        holder["video"] = yield from bed.factory.create(
            TransportAddress("server", 1), TransportAddress("ws", 1), VIDEO
        )
        holder["audio"] = yield from bed.factory.create(
            TransportAddress("server", 2), TransportAddress("ws", 2), AUDIO
        )

    bed.spawn(connector())
    bed.run(5.0)
    audio_deliveries = []
    video_deliveries = []

    def producer(stream, size, rate, kind):
        def proc():
            n = 0
            start = bed.sim.now
            while bed.sim.now - start < RUN_SECONDS + 8.0:
                wait = start + n / rate - bed.sim.now
                if wait > 0:
                    yield Timer(bed.sim).after(wait)
                yield from stream.send_endpoint.write(
                    OSDU(size_bytes=size, payload=(kind, n),
                         media_time=n / rate)
                )
                n += 1
        return proc

    def consumer(stream, out):
        def proc():
            while True:
                osdu = yield from stream.recv_endpoint.read()
                out.append((bed.sim.now, osdu.created_at))
        return proc

    bed.spawn(producer(holder["video"], VIDEO.osdu_bytes, 25.0, "v")())
    bed.spawn(producer(holder["audio"], 32, 250.0, "a")())
    bed.spawn(consumer(holder["video"], video_deliveries)())
    bed.spawn(consumer(holder["audio"], audio_deliveries)())
    bed.run(RUN_SECONDS + 12.0)
    reserved_bps = sum(
        r.rate_bps for r in bed.reservations.reservations.values()
    )
    return audio_deliveries, video_deliveries, reserved_bps


def digest(deliveries):
    arrivals = [t for t, _c in deliveries][50:]
    delays = [t - c for t, c in deliveries if c is not None][50:]
    return {
        "jitter": interarrival_jitter(arrivals),
        "delay": summarize(delays),
    }


def run_experiment():
    mux_audio, mux_video, mux_reserved = run_multiplexed()
    sep_audio, sep_video, sep_reserved = run_separate()
    mux = digest(mux_audio)
    sep = digest(sep_audio)
    mux_buffer = combined_qos().osdu_bytes * 16
    sep_buffer = AUDIO.osdu_bytes * AUDIO.buffer_osdus
    table = Table(
        ["design", "audio mean delay (ms)", "audio p95 delay (ms)",
         "audio jitter max (ms)", "reserved (Mbit/s)",
         "audio-path buffer (B)"],
        title="E11: single multiplexed VC vs separate orchestrable VCs "
              "(the Tennenhouse argument, section 3.6)",
    )
    table.add("multiplexed (one VC, combined QoS)",
              mux["delay"].mean * 1e3, mux["delay"].p95 * 1e3,
              mux["jitter"].maximum * 1e3, mux_reserved / 1e6, mux_buffer)
    table.add("separate simplex VCs",
              sep["delay"].mean * 1e3, sep["delay"].p95 * 1e3,
              sep["jitter"].maximum * 1e3, sep_reserved / 1e6, sep_buffer)
    return [table], mux, sep


@pytest.mark.benchmark(group="e11")
def test_e11_multiplexing(benchmark):
    tables, mux, sep = once(benchmark, run_experiment)
    emit("e11_multiplexing", tables)
    # The paper's prediction: the less demanding medium suffers when
    # multiplexed behind the demanding one.
    assert mux["delay"].p95 > sep["delay"].p95
    assert mux["jitter"].maximum > sep["jitter"].maximum
