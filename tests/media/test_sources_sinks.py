"""Tests for stored/live sources and playout sinks."""

import pytest

from repro.apps.testbed import Testbed
from repro.ansa.stream import AudioQoS, VideoQoS
from repro.media.encodings import video_cbr
from repro.media.sink import PlayoutSink
from repro.media.source import LiveSource, StoredMediaSource
from repro.media.lipsync import (
    fraction_within,
    interstream_skew_series,
    skew_summary,
)
from repro.transport.addresses import TransportAddress


@pytest.fixture
def bed():
    testbed = Testbed(seed=6)
    testbed.host("src", clock_skew_ppm=200.0)
    testbed.host("dst", clock_skew_ppm=-200.0)
    testbed.link("src", "dst", 20e6, prop_delay=0.004)
    return testbed.up()


def make_stream(bed, qos=None, tsap=5):
    holder = {}

    def driver():
        stream = yield from bed.factory.create(
            TransportAddress("src", tsap),
            TransportAddress("dst", tsap),
            qos or VideoQoS.of(fps=25.0),
        )
        holder["stream"] = stream

    bed.spawn(driver())
    bed.run(5.0)
    return holder["stream"]


class TestStoredSource:
    def test_generates_when_playing(self, bed):
        stream = make_stream(bed)
        source = StoredMediaSource(
            bed.sim, stream.send_endpoint, video_cbr(25.0, 2000),
            total_osdus=100,
        )
        sink = PlayoutSink(
            bed.sim, stream.recv_endpoint, 25.0,
            bed.network.host("dst").clock, mode="gated",
        )
        source.play()
        bed.run(10.0)
        assert source.generated == 100
        assert sink.presented == 100

    def test_pause_stops_generation(self, bed):
        stream = make_stream(bed)
        source = StoredMediaSource(
            bed.sim, stream.send_endpoint, video_cbr(25.0, 2000),
        )
        source.play()
        bed.run(2.0)
        source.pause()
        bed.run(0.5)
        generated = source.generated
        bed.run(3.0)
        # At most one unit in flight through the writer loop.
        assert source.generated <= generated + 1

    def test_seek_changes_position(self, bed):
        stream = make_stream(bed)
        source = StoredMediaSource(
            bed.sim, stream.send_endpoint, video_cbr(25.0, 2000),
        )
        source.seek(40.0)
        assert source.position == 1000
        assert source.media_time == pytest.approx(40.0)

    def test_media_time_stamped(self, bed):
        stream = make_stream(bed)
        source = StoredMediaSource(
            bed.sim, stream.send_endpoint, video_cbr(25.0, 2000),
            total_osdus=10,
        )
        sink = PlayoutSink(
            bed.sim, stream.recv_endpoint, 25.0,
            bed.network.host("dst").clock,
        )
        source.play()
        bed.run(5.0)
        assert [r.media_time for r in sink.records] == pytest.approx(
            [i / 25.0 for i in range(10)]
        )

    def test_finite_media_stops_at_end(self, bed):
        stream = make_stream(bed)
        source = StoredMediaSource(
            bed.sim, stream.send_endpoint, video_cbr(25.0, 2000),
            total_osdus=5,
        )
        source.play()
        bed.run(5.0)
        assert source.generated == 5

    def test_requires_send_endpoint(self, bed):
        stream = make_stream(bed)
        with pytest.raises(ValueError):
            StoredMediaSource(
                bed.sim, stream.recv_endpoint, video_cbr(25.0, 2000)
            )


class TestLiveSource:
    def test_capture_rate_follows_local_clock(self, bed):
        stream = make_stream(bed)
        clock = bed.network.host("src").clock
        source = LiveSource(
            bed.sim, stream.send_endpoint, video_cbr(25.0, 2000), clock
        )
        source.switch_on()
        bed.run(10.0)
        # 25 fps on a +200 ppm clock over ~10 s.
        assert source.index == pytest.approx(250, abs=2)

    def test_switch_off_stops_capture(self, bed):
        stream = make_stream(bed)
        clock = bed.network.host("src").clock
        source = LiveSource(
            bed.sim, stream.send_endpoint, video_cbr(25.0, 2000), clock
        )
        source.switch_on()
        bed.run(2.0)
        source.switch_off()
        index = source.index
        bed.run(2.0)
        assert source.index <= index + 1

    def test_switch_off_and_on_within_a_period_keeps_one_capture(self, bed):
        stream = make_stream(bed)
        clock = bed.network.host("src").clock
        source = LiveSource(
            bed.sim, stream.send_endpoint, video_cbr(25.0, 2000), clock
        )
        source.switch_on()
        bed.run(1.0)
        source.switch_off()
        bed.run(0.01)  # shorter than the 40 ms capture period
        source.switch_on()
        index = source.index
        bed.run(4.0)
        # One camera at 25 fps: ~100 units in 4 s, not two loops' 200.
        assert source.index - index == pytest.approx(100, abs=2)

    def test_overruns_counted_when_buffer_full(self, bed):
        # A tiny contract: the link admits the stream but the paced
        # sender cannot keep up with the camera, so the buffer fills.
        qos = VideoQoS.of(fps=25.0, headroom=1.0)
        slow_qos = AudioQoS.of(8000.0, 1, 32, headroom=1.0)
        stream = make_stream(bed, qos=slow_qos, tsap=7)
        clock = bed.network.host("src").clock
        # Camera generates 2000-byte frames at 25 fps into a VC sized
        # for 32-byte voice: hopeless, so overruns accumulate.
        source = LiveSource(
            bed.sim, stream.send_endpoint,
            video_cbr(25.0, 32), clock,
        )
        source.switch_on()
        bed.run(10.0)
        assert source.overrun_drops > 0
        assert source.generated + source.overrun_drops == source.index


class TestPlayoutAndLipsync:
    def test_paced_sink_presents_on_local_clock(self, bed):
        stream = make_stream(bed)
        source = StoredMediaSource(
            bed.sim, stream.send_endpoint, video_cbr(25.0, 2000),
            total_osdus=100,
        )
        sink = PlayoutSink(
            bed.sim, stream.recv_endpoint, 25.0,
            bed.network.host("dst").clock, mode="paced",
        )
        source.play()
        bed.run(10.0)
        gaps = [
            b.delivered_at - a.delivered_at
            for a, b in zip(sink.records[5:], sink.records[6:])
        ]
        assert all(g == pytest.approx(0.04, rel=0.01) for g in gaps)

    def test_media_position_at(self, bed):
        stream = make_stream(bed)
        source = StoredMediaSource(
            bed.sim, stream.send_endpoint, video_cbr(25.0, 2000),
            total_osdus=50,
        )
        sink = PlayoutSink(
            bed.sim, stream.recv_endpoint, 25.0,
            bed.network.host("dst").clock,
        )
        source.play()
        bed.run(10.0)
        end = sink.records[-1]
        assert sink.media_position_at(end.delivered_at + 1) == end.media_time
        assert sink.media_position_at(-1.0) == 0.0

    def test_skew_series_and_summary(self, bed):
        stream_a = make_stream(bed, tsap=11)
        stream_b = make_stream(bed, tsap=13)
        clock = bed.network.host("dst").clock
        sinks = []
        for stream in (stream_a, stream_b):
            source = StoredMediaSource(
                bed.sim, stream.send_endpoint, video_cbr(25.0, 2000),
                total_osdus=200,
            )
            sinks.append(
                PlayoutSink(bed.sim, stream.recv_endpoint, 25.0, clock)
            )
            source.play()
        bed.run(12.0)
        series = interstream_skew_series(sinks, 1.0, 7.0, dt=0.1)
        summary = skew_summary(series)
        assert summary["max"] < 0.5
        assert 0.0 <= fraction_within(series, 0.08) <= 1.0

    def test_skew_requires_two_sinks(self, bed):
        with pytest.raises(ValueError):
            interstream_skew_series([], 0, 1)

    def test_invalid_sink_mode_rejected(self, bed):
        stream = make_stream(bed)
        with pytest.raises(ValueError):
            PlayoutSink(
                bed.sim, stream.recv_endpoint, 25.0,
                bed.network.host("dst").clock, mode="warp",
            )
