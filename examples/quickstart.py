#!/usr/bin/env python3
"""Quickstart: one orchestrated film play-out in ~60 lines.

Builds the Lancaster-style stack on a simulated network, connects a
video stream and an audio stream from two servers to one workstation,
orchestrates them (Orch.Prime -> Orch.Start), plays ten seconds, and
prints the lip-sync quality.

Run:  python examples/quickstart.py
"""

from repro.apps import Testbed
from repro.ansa.stream import AudioQoS, VideoQoS
from repro.media.encodings import audio_pcm, video_cbr
from repro.media.lipsync import fraction_within, interstream_skew_series, skew_summary
from repro.media.sink import PlayoutSink
from repro.media.source import StoredMediaSource
from repro.orchestration import OrchestrationPolicy
from repro.sim import Timer
from repro.transport import TransportAddress


def main() -> None:
    # 1. A three-machine network; every clock drifts a little.
    bed = Testbed(seed=42)
    bed.host("video-server", clock_skew_ppm=200)
    bed.host("audio-server", clock_skew_ppm=-150)
    bed.host("workstation", clock_skew_ppm=50)
    bed.router("net")
    for name in ("video-server", "audio-server", "workstation"):
        bed.link(name, "net", bandwidth_bps=20e6, prop_delay=0.003)
    bed.up()

    state = {}

    def session_driver():
        # 2. Streams: QoS in media terms; the platform negotiates the
        #    transport contract underneath (simplex VCs, reserved).
        video = yield from bed.factory.create(
            TransportAddress("video-server", 1),
            TransportAddress("workstation", 1),
            VideoQoS.of(fps=25.0),
        )
        audio = yield from bed.factory.create(
            TransportAddress("audio-server", 2),
            TransportAddress("workstation", 2),
            AudioQoS.telephone(),
        )
        # 3. Media endpoints: stored sources, gated playout sinks.
        state["sinks"] = [
            PlayoutSink(bed.sim, video.recv_endpoint, 25.0,
                        bed.network.host("workstation").clock),
            PlayoutSink(bed.sim, audio.recv_endpoint, 250.0,
                        bed.network.host("workstation").clock),
        ]
        StoredMediaSource(bed.sim, video.send_endpoint,
                          video_cbr(25.0, video.media_qos.osdu_bytes))
        StoredMediaSource(bed.sim, audio.send_endpoint,
                          audio_pcm(8000.0, 1, 32))
        # 4. Orchestrate: the HLO picks the workstation (the common
        #    node), primes the pipelines and starts both atomically.
        session = yield from bed.hlo.orchestrate(
            [video.spec(), audio.spec()],
            OrchestrationPolicy(interval_length=0.2),
        )
        print(f"orchestrating node: {session.orchestrating_node}")
        yield from session.prime()
        yield from session.start()
        state["t0"] = bed.sim.now
        yield Timer(bed.sim).after(10.0)
        state["t1"] = bed.sim.now
        yield from session.stop()

    bed.spawn(session_driver())
    bed.run(30.0)

    video_sink, audio_sink = state["sinks"]
    print(f"video frames presented: {video_sink.presented}")
    print(f"audio blocks presented: {audio_sink.presented}")
    series = interstream_skew_series(
        state["sinks"], state["t0"] + 2, state["t1"] - 1
    )
    summary = skew_summary(series)
    print(
        f"lip-sync skew: mean {summary['mean']*1e3:.1f} ms, "
        f"max {summary['max']*1e3:.1f} ms "
        f"({fraction_within(series):.0%} of samples within the 80 ms "
        f"perceptual threshold)"
    )


if __name__ == "__main__":
    main()
