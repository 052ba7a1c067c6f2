"""The language laboratory scenario (paper section 3.6).

"Separate audio tracks in different languages are stored on a single
server but are to be distributed to different workstations in a
real-time interactive language lesson."

All VCs share the *server* as their common node, so the HLO selects it
as the orchestrating node -- the source-common case of Figure 5 (the
lip-sync film case is sink-common).  The lesson requires every
workstation to hear the same sentence at the same moment, i.e. bounded
skew across sinks on *different* machines.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Generator, List, Optional

from repro.transport.addresses import TransportAddress
from repro.ansa.stream import AudioQoS, Stream
from repro.media.encodings import audio_pcm
from repro.media.sink import PlayoutSink
from repro.media.source import StoredMediaSource
from repro.orchestration.hlo import OrchestrationSession
from repro.orchestration.policy import OrchestrationPolicy
from repro.apps.testbed import Testbed


class LanguageLab:
    """One lesson: N stored audio tracks fanned out to N workstations."""

    def __init__(
        self,
        bed: Testbed,
        server: str,
        workstations: List[str],
        audio: Optional[AudioQoS] = None,
        lesson_seconds: float = 600.0,
        base_tsap: int = 20,
    ):
        if not workstations:
            raise ValueError("a lesson needs at least one workstation")
        self.bed = bed
        self.server = server
        self.workstations = workstations
        self.audio_qos = audio or AudioQoS.telephone()
        self.lesson_seconds = lesson_seconds
        self.base_tsap = base_tsap
        self.streams: List[Stream] = []
        self.sources: List[StoredMediaSource] = []
        self.sinks: List[PlayoutSink] = []
        self.session: Optional[OrchestrationSession] = None

    def setup(self, policy: Optional[OrchestrationPolicy] = None) -> Generator:
        """Coroutine: connect every track, orchestrate at the server."""
        encoding = audio_pcm(
            sample_rate=self.audio_qos.sample_rate,
            bytes_per_sample=self.audio_qos.bytes_per_sample,
            samples_per_osdu=int(
                self.audio_qos.osdu_bytes / self.audio_qos.bytes_per_sample
            ),
        )
        total = int(self.lesson_seconds * encoding.osdu_rate)
        for i, workstation in enumerate(self.workstations):
            stream = yield from self.bed.factory.create(
                TransportAddress(self.server, self.base_tsap + i),
                TransportAddress(workstation, self.base_tsap),
                self.audio_qos,
            )
            self.streams.append(stream)
            self.sources.append(
                StoredMediaSource(
                    self.bed.sim, stream.send_endpoint, encoding,
                    total_osdus=total,
                    rng=self.bed.rng.stream(f"lab-track-{i}"),
                )
            )
            self.sinks.append(
                PlayoutSink(
                    self.bed.sim,
                    stream.recv_endpoint,
                    osdu_rate=encoding.osdu_rate,
                    clock=self.bed.clock(workstation),
                    mode="gated",
                )
            )
        # Voice is loss-intolerant: drop budget 0 on every track.
        specs = [s.spec(max_drop_per_interval=0) for s in self.streams]
        self.session = yield from self.bed.hlo.orchestrate(
            specs, policy or OrchestrationPolicy(interval_length=0.25)
        )
        return self.session

    def begin_lesson(self) -> Generator:
        """Coroutine: primed, simultaneous start of all tracks."""
        reply = yield from self.session.prime()
        if not reply.accept:
            return reply
        return (yield from self.session.start())

    def pause_lesson(self) -> Generator:
        return (yield from self.session.stop())

    def seek_all(self, media_time: float) -> None:
        """Move every track to ``media_time`` (used while paused)."""
        for source in self.sources:
            source.seek(media_time)

    def resume_from(self, media_time: float) -> Generator:
        """Coroutine: the stop/seek/re-prime/start sequence of §6.2.1."""
        yield from self.pause_lesson()
        self.seek_all(media_time)
        reply = yield from self.session.prime()
        if not reply.accept:
            return reply
        return (yield from self.session.start())

    def first_presented_after(self, t: float) -> List[float]:
        """Per-workstation time of first unit presented after ``t``."""
        firsts = []
        for sink in self.sinks:
            times = sink.records.delivered_at
            i = bisect_left(times, t)
            firsts.append(times[i] if i < len(times) else float("inf"))
        return firsts
