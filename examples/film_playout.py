#!/usr/bin/env python3
"""Film play-out with interactive control: the full paper workflow.

Demonstrates, in one session:

1. remote connect (Figure 2): a *control workstation* sets up a VC
   between the video server and the viewing workstation;
2. orchestrated prime/start (Figure 7, Table 5);
3. user interaction: pause, seek (fast-forward), resume -- the
   stop/flush/prime/start sequence of section 6.2.1;
4. dynamic QoS renegotiation (Table 3): mid-film upgrade from
   monochrome to colour video, the example of section 3.3;
5. the Orch.Event mechanism (section 6.3.4) signalling a change of
   encoding in-band.

Run:  python examples/film_playout.py
"""

from repro.apps import Testbed
from repro.ansa.stream import AudioQoS, VideoQoS
from repro.media.encodings import video_cbr, audio_pcm
from repro.media.sink import PlayoutSink
from repro.media.source import StoredMediaSource
from repro.orchestration import OrchestrationPolicy
from repro.sim import Timer
from repro.transport import TransportAddress

ENCODING_CHANGE = 0x0E0C


def main() -> None:
    bed = Testbed(seed=7)
    bed.host("video-server", clock_skew_ppm=180)
    bed.host("audio-server", clock_skew_ppm=-140)
    bed.host("viewer", clock_skew_ppm=60)
    bed.router("net")
    for name in ("video-server", "audio-server", "viewer"):
        bed.link(name, "net", bandwidth_bps=30e6, prop_delay=0.004)
    bed.up()

    def driver():
        # -- streams ----------------------------------------------------
        mono = VideoQoS.of(fps=25.0, colour=False)
        video = yield from bed.factory.create(
            TransportAddress("video-server", 1),
            TransportAddress("viewer", 1),
            mono,
        )
        audio = yield from bed.factory.create(
            TransportAddress("audio-server", 2),
            TransportAddress("viewer", 2),
            AudioQoS.telephone(),
        )
        video_source = StoredMediaSource(
            bed.sim, video.send_endpoint,
            video_cbr(25.0, mono.osdu_bytes),
            event_marks={250: ENCODING_CHANGE},  # colour starts at 10 s
        )
        audio_source = StoredMediaSource(
            bed.sim, audio.send_endpoint, audio_pcm(8000.0, 1, 32)
        )
        video_sink = PlayoutSink(bed.sim, video.recv_endpoint, 25.0,
                                 bed.network.host("viewer").clock)
        audio_sink = PlayoutSink(bed.sim, audio.recv_endpoint, 250.0,
                                 bed.network.host("viewer").clock)

        # -- orchestrate -------------------------------------------------
        session = yield from bed.hlo.orchestrate(
            [video.spec(), audio.spec()],
            OrchestrationPolicy(interval_length=0.2),
        )
        session.register_event(
            video.vc_id, ENCODING_CHANGE,
            lambda ind: print(
                f"[{bed.sim.now:7.3f}] Orch.Event: encoding change "
                f"signalled at frame {ind.osdu_seq}"
            ),
        )
        print(f"[{bed.sim.now:7.3f}] orchestrating at "
              f"{session.orchestrating_node!r}")

        yield from session.prime()
        print(f"[{bed.sim.now:7.3f}] primed (pipelines full, sources "
              f"blocked by flow control)")
        yield from session.start()
        print(f"[{bed.sim.now:7.3f}] started -- playing monochrome")
        yield Timer(bed.sim).after(8.0)

        # -- pause / seek / resume ----------------------------------------
        yield from session.stop()
        print(f"[{bed.sim.now:7.3f}] paused at video media time "
              f"{video_sink.last_media_time():.2f} s; seeking to 60 s")
        video_source.seek(60.0)
        audio_source.seek(60.0)
        yield from session.prime()
        yield from session.start()
        print(f"[{bed.sim.now:7.3f}] resumed from 60 s")
        yield Timer(bed.sim).after(4.0)

        # -- mid-film QoS upgrade ------------------------------------------
        colour = VideoQoS.of(fps=25.0, colour=True)
        ok = yield from video.renegotiate(colour)
        contract = video.send_endpoint.contract
        print(
            f"[{bed.sim.now:7.3f}] renegotiated mono->colour: "
            f"{'accepted' if ok else 'refused'}, new contract "
            f"{contract.throughput_bps/1e6:.2f} Mbit/s"
        )
        yield Timer(bed.sim).after(4.0)
        yield from session.stop()
        print(
            f"[{bed.sim.now:7.3f}] stopped; presented "
            f"{video_sink.presented} frames / {audio_sink.presented} "
            f"audio blocks; final skew {session.skew()*1e3:.1f} ms"
        )
        post_seek = [r for r in video_sink.records if r.media_time >= 60.0]
        print(f"          frames from the seek target onward: "
              f"{len(post_seek)} (no stale pre-seek frames leaked: "
              f"{all(r.media_time >= 60.0 for r in post_seek)})")

    bed.spawn(driver())
    bed.run(60.0)


if __name__ == "__main__":
    main()
