"""The canonical film (lip-sync) scenario, with a dubbing variant.

Migrated from ``benchmarks/scenarios.py`` (which now re-exports from
here) so the experiment harness and the test suite share one
definition.  The scenario is the paper's motivating example: a video
server and an audio server feed one workstation through a router, and
orchestration (or free-running playout, for the contrast case) keeps
the two streams within lip-sync tolerance.

New here: the **dubbing** variant.  ``audio_worker_delay`` /
``audio_worker_jitter`` model a speech-to-speech translation / dubbing
worker on the audio path -- every audio OSDU costs extra processing
time at the source before it is submitted to transport, with a seeded
uniform jitter component.  As long as the mean per-unit cost stays
under the audio unit period the pipeline keeps up and orchestration
holds the skew bound; a worker slower than the unit rate falls
cumulatively behind and no transport-level mechanism can save lip
sync (``tests/integration/test_dubbing_lipsync.py`` pins both sides).
"""

from __future__ import annotations

from typing import Dict

from repro.ansa.stream import AudioQoS, VideoQoS
from repro.core import Stack
from repro.media.encodings import audio_pcm, video_cbr
from repro.media.sink import PlayoutSink
from repro.media.source import StoredMediaSource
from repro.orchestration.policy import OrchestrationPolicy
from repro.sim.clock import NodeClock
from repro.sim.scheduler import Timer
from repro.transport.addresses import TransportAddress


def film_testbed(
    seed: int = 1,
    drift_ppm: float = 200.0,
    bandwidth: float = 20e6,
    jitter=None,
    loss=None,
):
    """video-srv + audio-srv feeding one workstation through a router."""
    bed = Stack(seed=seed)
    bed.host("video-srv", clock_skew_ppm=drift_ppm)
    bed.host("audio-srv", clock_skew_ppm=-drift_ppm)
    bed.host("ws", clock_skew_ppm=drift_ppm / 4)
    bed.router("net")
    for name in ("video-srv", "audio-srv", "ws"):
        bed.link(name, "net", bandwidth, prop_delay=0.003, jitter=jitter,
                 loss=loss)
    return bed.up()


class FilmScenario:
    """The canonical lip-sync workload, orchestrated or free-running.

    ``audio_worker_delay``/``audio_worker_jitter`` > 0 turn the plain
    film into the *dubbed* film: the audio source pays that much extra
    per-OSDU processing before submission (jitter drawn from the
    testbed's ``"dub.audio"`` random stream, so runs are seeded).
    """

    def __init__(self, bed, orchestrated: bool, drift_ppm: float,
                 interval_length: float = 0.2,
                 video_drop: int = 2,
                 audio_worker_delay: float = 0.0,
                 audio_worker_jitter: float = 0.0):
        self.bed = bed
        self.orchestrated = orchestrated
        self.drift_ppm = drift_ppm
        self.interval_length = interval_length
        self.video_drop = video_drop
        self.audio_worker_delay = audio_worker_delay
        self.audio_worker_jitter = audio_worker_jitter
        self.streams: Dict[str, object] = {}
        self.sources: Dict[str, StoredMediaSource] = {}
        self.sinks: Dict[str, PlayoutSink] = {}
        self.session = None
        self.marks: Dict[str, float] = {}

    def connect(self, duration: float = 300.0) -> None:
        holder = self.streams

        def connector():
            holder["video"] = yield from self.bed.factory.create(
                TransportAddress("video-srv", 1), TransportAddress("ws", 1),
                VideoQoS.of(fps=25.0, compression_ratio=80.0),
            )
            holder["audio"] = yield from self.bed.factory.create(
                TransportAddress("audio-srv", 2), TransportAddress("ws", 2),
                AudioQoS.telephone(),
            )

        self.bed.spawn(connector())
        self.bed.run(5.0)
        encodings = {
            "video": video_cbr(25.0, holder["video"].media_qos.osdu_bytes),
            "audio": audio_pcm(8000.0, 1, 32),
        }
        playout_clocks = {
            "video": NodeClock(self.bed.sim, skew_ppm=self.drift_ppm),
            "audio": NodeClock(self.bed.sim, skew_ppm=-self.drift_ppm),
        }
        worker: Dict[str, dict] = {
            "video": {},
            "audio": {
                "per_osdu_delay": self.audio_worker_delay,
                "per_osdu_jitter": self.audio_worker_jitter,
                "rng": (
                    self.bed.stream("dub.audio")
                    if self.audio_worker_jitter > 0 else None
                ),
            },
        }
        for name in ("video", "audio"):
            self.sources[name] = StoredMediaSource(
                self.bed.sim, holder[name].send_endpoint, encodings[name],
                total_osdus=int(duration * encodings[name].osdu_rate),
                **worker[name],
            )
            self.sinks[name] = PlayoutSink(
                self.bed.sim,
                holder[name].recv_endpoint,
                osdu_rate=encodings[name].osdu_rate,
                clock=(
                    self.bed.clock("ws")
                    if self.orchestrated
                    else playout_clocks[name]
                ),
                mode="gated" if self.orchestrated else "paced",
            )

    def play(self, seconds: float) -> None:
        marks = self.marks

        if self.orchestrated:
            def driver():
                session = yield from self.bed.hlo.orchestrate(
                    [
                        self.streams["video"].spec(
                            max_drop_per_interval=self.video_drop
                        ),
                        self.streams["audio"].spec(max_drop_per_interval=0),
                    ],
                    OrchestrationPolicy(interval_length=self.interval_length),
                )
                self.session = session
                yield from session.prime()
                yield from session.start()
                marks["t0"] = self.bed.sim.now
                yield Timer(self.bed.sim).after(seconds)
                marks["t1"] = self.bed.sim.now
        else:
            def driver():
                self.sources["video"].play()
                self.sources["audio"].play()
                marks["t0"] = self.bed.sim.now
                yield Timer(self.bed.sim).after(seconds)
                marks["t1"] = self.bed.sim.now

        self.bed.spawn(driver())
        self.bed.run(seconds + 20.0)

    def skew_series(self, settle: float = 3.0, dt: float = 0.05):
        from repro.media.lipsync import interstream_skew_series

        return interstream_skew_series(
            [self.sinks["video"], self.sinks["audio"]],
            self.marks["t0"] + settle,
            self.marks["t1"] - 1.0,
            dt=dt,
        )


def run_film(orchestrated: bool, drift_ppm: float, seconds: float = 30.0,
             seed: int = 1, interval_length: float = 0.2,
             bandwidth: float = 20e6,
             audio_worker_delay: float = 0.0,
             audio_worker_jitter: float = 0.0):
    """Build, connect and play one film scenario end to end."""
    bed = film_testbed(seed=seed, drift_ppm=drift_ppm, bandwidth=bandwidth)
    scenario = FilmScenario(bed, orchestrated, drift_ppm,
                            interval_length=interval_length,
                            audio_worker_delay=audio_worker_delay,
                            audio_worker_jitter=audio_worker_jitter)
    scenario.connect(duration=seconds + 60.0)
    scenario.play(seconds)
    return scenario
