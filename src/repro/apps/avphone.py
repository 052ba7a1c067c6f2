"""The audiovisual telephone (paper section 2.2).

Two workstations, each sending live voice (and optionally video) to
the other.  Full duplex is deliberately built as **two simplex VCs**
-- the paper's argument in section 3.1: directions can carry different
QoS, and resources are reserved per direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.transport.addresses import TransportAddress
from repro.ansa.stream import AudioQoS, Stream, VideoQoS
from repro.media.encodings import audio_pcm, video_cbr
from repro.media.sink import PlayoutSink
from repro.media.source import LiveSource
from repro.apps.testbed import Testbed


@dataclass
class _Leg:
    """One simplex direction of the call."""

    stream: Stream
    source: LiveSource
    sink: PlayoutSink


class AVPhoneCall:
    """A two-party call built from simplex streams."""

    def __init__(
        self,
        bed: Testbed,
        party_a: str,
        party_b: str,
        audio: Optional[AudioQoS] = None,
        video: Optional[VideoQoS] = None,
        base_tsap: int = 40,
    ):
        self.bed = bed
        self.party_a = party_a
        self.party_b = party_b
        self.audio_qos = audio or AudioQoS.telephone()
        self.video_qos = video
        self.base_tsap = base_tsap
        self.legs: List[_Leg] = []
        self.connected = False

    def setup(self) -> Generator:
        """Coroutine: establish all simplex legs and start capture."""
        tsap = self.base_tsap
        directions = [(self.party_a, self.party_b), (self.party_b, self.party_a)]
        media = [("audio", self.audio_qos)]
        if self.video_qos is not None:
            media.append(("video", self.video_qos))
        for kind, qos in media:
            for caller, callee in directions:
                stream = yield from self.bed.factory.create(
                    TransportAddress(caller, tsap),
                    TransportAddress(callee, tsap + 1),
                    qos,
                )
                tsap += 2
                if kind == "audio":
                    encoding = audio_pcm(
                        sample_rate=qos.sample_rate,
                        bytes_per_sample=qos.bytes_per_sample,
                        samples_per_osdu=int(qos.osdu_bytes / qos.bytes_per_sample),
                    )
                else:
                    encoding = video_cbr(
                        fps=qos.osdu_rate, frame_bytes=qos.osdu_bytes
                    )
                source = LiveSource(
                    self.bed.sim,
                    stream.send_endpoint,
                    encoding,
                    clock=self.bed.clock(caller),
                    rng=self.bed.rng.stream(f"avphone:{stream.vc_id}"),
                )
                sink = PlayoutSink(
                    self.bed.sim,
                    stream.recv_endpoint,
                    osdu_rate=qos.osdu_rate,
                    clock=self.bed.clock(callee),
                    mode="gated",
                )
                source.switch_on()
                self.legs.append(_Leg(stream, source, sink))
        self.connected = True
        return True

    def hang_up(self) -> None:
        for leg in self.legs:
            leg.source.switch_off()
            leg.stream.close()
        self.connected = False

    def mouth_to_ear_delays(self) -> List[float]:
        """Per-leg mean delay from capture to presentation, seconds.

        Interactive voice wants this under ~150 ms (the paper's
        "stringent delay constraints derived from human perceptual
        thresholds", section 3.2).
        """
        delays = []
        for leg in self.legs:
            log = leg.sink.records
            # A NaN ``created_at`` marks a unit without a write time.
            samples = [
                delivered_at - created_at
                for delivered_at, created_at in zip(
                    log.delivered_at, log.created_at
                )
                if created_at == created_at
            ]
            if samples:
                delays.append(sum(samples) / len(samples))
        return delays
