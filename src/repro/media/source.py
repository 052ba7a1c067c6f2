"""Media sources: stored (seekable) and live.

A source owns the *send* endpoint of one VC and serves its
orchestration queue, implementing the application-thread side of the
Orch.Prime/Start/Stop handshake (paper Figure 7): on
Orch.Prime.indication a stored source starts generating data from its
current position; on Orch.Stop it pauses.
"""

from __future__ import annotations

import random as _random
from typing import Dict, Optional

from repro.sim.scheduler import Event, Process, Simulator, Timer
from repro.transport.entity import VCEndpoint
from repro.transport.osdu import OPDU, OSDU
from repro.media.encodings import Encoding
from repro.orchestration.primitives import (
    AddIndication,
    OrchReply,
    PrimeIndication,
    StartIndication,
    StopIndication,
)


class StoredMediaSource:
    """A stored-media server thread feeding one VC.

    The source generates as fast as the shared buffer admits -- pacing
    is the transport's job (rate-based flow control), seeking is the
    application's.  ``per_osdu_delay`` models application processing
    time per unit and is the fault-injection knob for the slow-source
    attribution experiment (E10).  ``per_osdu_jitter`` adds a uniform
    random component on top (drawn from ``rng``), modelling a variable
    -latency processing stage such as a live-dubbing worker; it is zero
    by default and consumes no randomness when disabled.
    """

    def __init__(
        self,
        sim: Simulator,
        endpoint: VCEndpoint,
        encoding: Encoding,
        total_osdus: int = 1 << 30,
        rng: Optional[_random.Random] = None,
        per_osdu_delay: float = 0.0,
        per_osdu_jitter: float = 0.0,
        event_marks: Optional[Dict[int, int]] = None,
        deny_prime: bool = False,
    ):
        if endpoint.kind != "send":
            raise ValueError("a media source needs a send endpoint")
        if per_osdu_jitter > 0 and rng is None:
            raise ValueError("per_osdu_jitter needs an rng to draw from")
        self.sim = sim
        self.endpoint = endpoint
        self.encoding = encoding
        self.total_osdus = total_osdus
        self.rng = rng
        self.per_osdu_delay = per_osdu_delay
        self.per_osdu_jitter = per_osdu_jitter
        #: media-position index -> event field value stamped on that
        #: unit (Orch.Event support, section 6.3.4).
        self.event_marks = dict(event_marks or {})
        self.deny_prime = deny_prime
        self.position = 0
        self.generated = 0
        self.generating = False
        self._wake = Event(sim)
        self._writer: Process = sim.spawn(
            self._writer_loop(), name=f"source:{endpoint.vc_id}"
        )
        self._orch: Process = sim.spawn(
            self._orch_loop(), name=f"source-orch:{endpoint.vc_id}"
        )

    @property
    def media_time(self) -> float:
        return self.position / self.encoding.osdu_rate

    def seek(self, media_time: float) -> None:
        """Jump the read head; takes effect on the next generated unit."""
        self.position = max(0, int(media_time * self.encoding.osdu_rate))

    def play(self) -> None:
        """Begin/resume generating (also triggered by Orch.Prime)."""
        if not self.generating:
            self.generating = True
            self._kick()

    def pause(self) -> None:
        self.generating = False

    def _kick(self) -> None:
        if not self._wake.is_set:
            self._wake.set(None)
        self._wake = Event(self.sim)

    def _writer_loop(self):
        pause = Timer(self.sim)
        while True:
            if not self.generating or self.position >= self.total_osdus:
                wake = self._wake
                yield wake
                continue
            index = self.position
            size = self.encoding.osdu_size(index, self.rng)
            osdu = OSDU(
                size_bytes=size,
                payload=index,
                media_time=index / self.encoding.osdu_rate,
            )
            event = self.event_marks.get(index)
            if event is not None:
                osdu.opdu = OPDU(0, event)  # sequence reassigned at write
            delay = self.per_osdu_delay
            if self.per_osdu_jitter > 0:
                delay += self.rng.uniform(0.0, self.per_osdu_jitter)
            if delay > 0:
                yield pause.after(delay)
            yield from self.endpoint.write(osdu)
            if self.position == index:
                # Only advance when no seek() landed while the write
                # was blocked -- otherwise the seek target would be
                # silently overwritten.
                self.position = index + 1
            self.generated += 1

    def _orch_loop(self):
        while True:
            primitive, reply = yield self.endpoint.next_orch()
            if isinstance(primitive, PrimeIndication):
                if self.deny_prime:
                    reply.set(OrchReply(False, "source-not-ready"))
                    continue
                self.play()
                reply.set(OrchReply(True))
            elif isinstance(primitive, (StartIndication, AddIndication)):
                # Joining a running group starts generation immediately.
                self.play()
                reply.set(OrchReply(True))
            elif isinstance(primitive, StopIndication):
                self.pause()
                reply.set(OrchReply(True))
            else:
                reply.set(OrchReply(True))


class LiveSource:
    """A camera/microphone: units appear on the local clock, period.

    Live media "will always play out in real-time" (section 3.6): the
    source cannot be paused or rewound, and a full buffer means the
    unit is simply lost (counted in ``overrun_drops``).  Generation is
    tied to the node's drifting local clock.
    """

    def __init__(
        self,
        sim: Simulator,
        endpoint: VCEndpoint,
        encoding: Encoding,
        clock,
        rng: Optional[_random.Random] = None,
    ):
        if endpoint.kind != "send":
            raise ValueError("a media source needs a send endpoint")
        self.sim = sim
        self.endpoint = endpoint
        self.encoding = encoding
        self.clock = clock
        self.rng = rng
        self.switched_on = False
        self.generated = 0
        self.overrun_drops = 0
        self.index = 0
        self._proc: Optional[Process] = None
        self._orch: Process = sim.spawn(
            self._orch_loop(), name=f"live-orch:{endpoint.vc_id}"
        )

    def switch_on(self) -> None:
        """Start capturing ("it depends when the camera is switched on")."""
        if self.switched_on:
            return
        self.switched_on = True
        # Switched off and on again within one period: the old loop is
        # still parked on its tick and carries on, so no second one.
        if self._proc is None or not self._proc.alive:
            self._proc = self.sim.spawn(
                self._capture_loop(), name=f"live:{self.endpoint.vc_id}"
            )

    def switch_off(self) -> None:
        self.switched_on = False

    def _capture_loop(self):
        period_local = 1.0 / self.encoding.osdu_rate
        next_tick_local = self.clock.now()
        tick = Timer(self.sim)
        while self.switched_on:
            remaining = next_tick_local - self.clock.now()
            if remaining > 0:
                yield tick.after(self.clock.sim_duration(remaining))
            if not self.switched_on:
                return
            size = self.encoding.osdu_size(self.index, self.rng)
            osdu = OSDU(
                size_bytes=size,
                payload=self.index,
                media_time=self.index / self.encoding.osdu_rate,
            )
            if self.endpoint.try_write(osdu):
                self.generated += 1
            else:
                self.overrun_drops += 1
            self.index += 1
            next_tick_local += period_local

    def _orch_loop(self):
        # Live sources accept everything; priming merely ensures the
        # camera is on (there is nothing to pre-fetch).
        while True:
            primitive, reply = yield self.endpoint.next_orch()
            if isinstance(primitive, (PrimeIndication, StartIndication)):
                self.switch_on()
            reply.set(OrchReply(True))
