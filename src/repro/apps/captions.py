"""Caption/video association (paper section 3.6).

"Another example arises where it is required to associate captions
from a text file with an on-going video play-out."  Two mechanisms
from the paper are combined:

- *continuous synchronisation*: the caption stream is orchestrated
  with the video at its (much lower) nominal rate;
- *event-driven synchronisation* (section 6.3.4): scene-change events
  are stamped into the video OSDUs' event fields by the source and
  surfaced through ``Orch.Event`` without the application having to
  examine every frame.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.transport.addresses import TransportAddress
from repro.ansa.stream import Stream, TextQoS, VideoQoS
from repro.media.encodings import CBREncoding, video_cbr
from repro.media.sink import PlayoutSink
from repro.media.source import StoredMediaSource
from repro.orchestration.hlo import OrchestrationSession
from repro.orchestration.policy import OrchestrationPolicy
from repro.orchestration.primitives import OrchEventIndication
from repro.apps.testbed import Testbed

#: Event field value stamped on scene-change frames.
SCENE_CHANGE_EVENT = 0xC0DE


class CaptionedPlayout:
    """Video from one server plus timed captions from another."""

    def __init__(
        self,
        bed: Testbed,
        video_server: str,
        caption_server: str,
        viewer: str,
        video: Optional[VideoQoS] = None,
        captions: Optional[TextQoS] = None,
        scene_changes: Optional[List[int]] = None,
        film_seconds: float = 600.0,
        base_tsap: int = 30,
    ):
        self.bed = bed
        self.video_server = video_server
        self.caption_server = caption_server
        self.viewer = viewer
        self.video_qos = video or VideoQoS.of(fps=25.0)
        self.caption_qos = captions or TextQoS.captions()
        self.scene_changes = scene_changes or []
        self.film_seconds = film_seconds
        self.base_tsap = base_tsap
        self.video_stream: Optional[Stream] = None
        self.caption_stream: Optional[Stream] = None
        self.video_sink: Optional[PlayoutSink] = None
        self.caption_sink: Optional[PlayoutSink] = None
        self.session: Optional[OrchestrationSession] = None
        self.scene_events: List[Tuple[float, int]] = []

    def setup(self, policy: Optional[OrchestrationPolicy] = None) -> Generator:
        """Coroutine: connect both streams and orchestrate at the viewer."""
        self.video_stream = yield from self.bed.factory.create(
            TransportAddress(self.video_server, self.base_tsap),
            TransportAddress(self.viewer, self.base_tsap),
            self.video_qos,
        )
        self.caption_stream = yield from self.bed.factory.create(
            TransportAddress(self.caption_server, self.base_tsap + 1),
            TransportAddress(self.viewer, self.base_tsap + 1),
            self.caption_qos,
        )
        video_encoding = video_cbr(
            fps=self.video_qos.osdu_rate, frame_bytes=self.video_qos.osdu_bytes
        )
        caption_encoding = CBREncoding(
            "captions", self.caption_qos.osdu_rate, self.caption_qos.osdu_bytes
        )
        event_marks: Dict[int, int] = {
            frame: SCENE_CHANGE_EVENT for frame in self.scene_changes
        }
        self.video_source = StoredMediaSource(
            self.bed.sim,
            self.video_stream.send_endpoint,
            video_encoding,
            total_osdus=int(self.film_seconds * video_encoding.osdu_rate),
            event_marks=event_marks,
        )
        self.caption_source = StoredMediaSource(
            self.bed.sim,
            self.caption_stream.send_endpoint,
            caption_encoding,
            total_osdus=int(self.film_seconds * caption_encoding.osdu_rate),
        )
        self.video_sink = PlayoutSink(
            self.bed.sim,
            self.video_stream.recv_endpoint,
            osdu_rate=video_encoding.osdu_rate,
            clock=self.bed.clock(self.viewer),
        )
        self.caption_sink = PlayoutSink(
            self.bed.sim,
            self.caption_stream.recv_endpoint,
            osdu_rate=caption_encoding.osdu_rate,
            clock=self.bed.clock(self.viewer),
        )
        specs = [
            self.video_stream.spec(),
            self.caption_stream.spec(max_drop_per_interval=0),  # no caption loss
        ]
        self.session = yield from self.bed.hlo.orchestrate(
            specs, policy or OrchestrationPolicy(interval_length=0.2)
        )
        self.session.register_event(
            self.video_stream.vc_id, SCENE_CHANGE_EVENT, self._on_scene_change
        )
        return self.session

    def _on_scene_change(self, indication: OrchEventIndication) -> None:
        self.scene_events.append((indication.matched_at, indication.osdu_seq))

    def play(self) -> Generator:
        reply = yield from self.session.prime()
        if not reply.accept:
            return reply
        return (yield from self.session.start())

    def caption_alignment_error(self) -> float:
        """Worst observed caption-vs-video media-time misalignment."""
        if not self.video_sink.records or not self.caption_sink.records:
            return float("inf")
        captions = self.caption_sink.records
        worst = 0.0
        for delivered_at, media_time in zip(
            captions.delivered_at, captions.media_time
        ):
            video_pos = self.video_sink.media_position_at(delivered_at)
            worst = max(worst, abs(video_pos - media_time))
        return worst
