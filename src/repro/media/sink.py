"""Playout sinks.

A sink owns the *receive* endpoint of one VC, consumes OSDUs, and logs
delivery times -- the raw material for the lip-sync metric.

Two consumption modes reproduce the paper's two regimes:

- ``"gated"`` (orchestrated): the sink takes units as soon as the LLO's
  delivery gate releases them; presentation time *is* delivery time
  ("quanta ... are released by the sink LLO instance to the
  application thread at times determined by the HLO initiated
  targets", section 5).
- ``"paced"`` (free-running baseline): the sink paces itself on its
  own drifting local clock -- the uncoordinated behaviour whose
  accumulated skew motivates orchestration (section 3.6).

A paced sink may additionally hold a **playout delay** (de-jitter
buffer): the first unit is presented ``playout_delay`` seconds after
it arrives and every later unit at its media offset from that point.
Units that miss their playout point are presented late and counted in
``late_count`` -- the classic jitter-absorption trade the QoS jitter
parameter (section 3.2) exists to dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim.scheduler import Process, Simulator, Timer
from repro.transport.entity import VCEndpoint
from repro.orchestration.primitives import (
    OrchReply,
    PrimeIndication,
    StartIndication,
    StopIndication,
)


@dataclass(frozen=True)
class DeliveryRecord:
    """One presented OSDU."""

    seq: int
    media_time: float
    delivered_at: float   # simulator (true) time
    local_time: float     # sink node's clock
    created_at: Optional[float] = None  # source write time (true time)


class PlayoutSink:
    """A playout device thread consuming one VC."""

    def __init__(
        self,
        sim: Simulator,
        endpoint: VCEndpoint,
        osdu_rate: float,
        clock,
        mode: str = "gated",
        per_osdu_delay: float = 0.0,
        deny_prime: bool = False,
        playout_delay: float = 0.0,
    ):
        if endpoint.kind != "recv":
            raise ValueError("a playout sink needs a receive endpoint")
        if mode not in ("gated", "paced"):
            raise ValueError(f"unknown sink mode {mode!r}")
        if osdu_rate <= 0:
            raise ValueError("osdu_rate must be positive")
        if playout_delay < 0:
            raise ValueError("playout delay must be non-negative")
        self.sim = sim
        self.endpoint = endpoint
        self.osdu_rate = osdu_rate
        self.clock = clock
        self.mode = mode
        #: Fault-injection knob: extra processing per unit (slow-sink
        #: attribution experiment E10).
        self.per_osdu_delay = per_osdu_delay
        self.deny_prime = deny_prime
        #: De-jitter buffer depth in seconds (paced mode only).
        self.playout_delay = playout_delay
        self.late_count = 0
        self.records: List[DeliveryRecord] = []
        self.started = False
        self._consumer: Process = sim.spawn(
            self._consume_loop(), name=f"sink:{endpoint.vc_id}"
        )
        self._orch: Process = sim.spawn(
            self._orch_loop(), name=f"sink-orch:{endpoint.vc_id}"
        )

    @property
    def presented(self) -> int:
        return len(self.records)

    def media_position_at(self, t: float) -> float:
        """Media time presented as of simulator time ``t``."""
        position = 0.0
        for record in self.records:
            if record.delivered_at > t:
                break
            position = record.media_time
        return position

    def last_media_time(self) -> float:
        return self.records[-1].media_time if self.records else 0.0

    def _consume_loop(self):
        next_play_local: Optional[float] = None
        pause = Timer(self.sim)
        while True:
            osdu = yield from self.endpoint.read()
            if self.mode == "paced":
                # Free-running playout: present each unit on the local
                # clock at its nominal media period, ``playout_delay``
                # behind the first arrival (the de-jitter point).
                if next_play_local is None:
                    next_play_local = self.clock.now() + self.clock.local_duration(
                        self.playout_delay
                    )
                remaining = next_play_local - self.clock.now()
                if remaining > 0:
                    yield pause.after(self.clock.sim_duration(remaining))
                elif remaining < -1e-12:
                    self.late_count += 1
                next_play_local += 1.0 / self.osdu_rate
            if self.per_osdu_delay > 0:
                yield pause.after(self.per_osdu_delay)
            media_time = (
                osdu.media_time
                if osdu.media_time is not None
                else osdu.seq / self.osdu_rate
            )
            self.records.append(
                DeliveryRecord(
                    seq=osdu.seq,
                    media_time=media_time,
                    delivered_at=self.sim.now,
                    local_time=self.clock.now(),
                    created_at=osdu.created_at,
                )
            )

    def _orch_loop(self):
        while True:
            primitive, reply = yield self.endpoint.next_orch()
            if isinstance(primitive, PrimeIndication) and self.deny_prime:
                reply.set(OrchReply(False, "sink-not-ready"))
                continue
            if isinstance(primitive, StartIndication):
                self.started = True
            elif isinstance(primitive, StopIndication):
                self.started = False
            reply.set(OrchReply(True))
