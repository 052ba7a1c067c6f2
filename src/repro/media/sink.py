"""Playout sinks.

A sink owns the *receive* endpoint of one VC, consumes OSDUs, and logs
delivery times -- the raw material for the lip-sync metric.  The log
is columnar (:class:`DeliveryLog`): one ``array`` per field, appended
once per presented OSDU, with a :class:`DeliveryRecord` built only when
a reader indexes or iterates it.  Scans that search the log by time
(``media_position_at``, :mod:`repro.media.lipsync`) bisect the
``delivered_at`` column, which never decreases.

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

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

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


def _record(seq, media_time, delivered_at, local_time, created_at):
    # NaN is the column's stand-in for an absent ``created_at``.
    return DeliveryRecord(
        seq, media_time, delivered_at, local_time,
        None if created_at != created_at else created_at,
    )


class DeliveryLog(Sequence):
    """A sink's delivery log: a read-only sequence of
    :class:`DeliveryRecord` kept as five columns.

    ``seq`` is ``array('q')``; ``media_time``, ``delivered_at``,
    ``local_time`` and ``created_at`` are ``array('d')``, with NaN for
    a ``created_at`` of ``None``.  Records are built on read; scans
    that need one field read its column instead.  Only the owning sink
    appends to the columns.
    """

    __slots__ = ("seq", "media_time", "delivered_at", "local_time", "created_at")

    def __init__(self) -> None:
        self.seq = array("q")
        self.media_time = array("d")
        self.delivered_at = array("d")
        self.local_time = array("d")
        self.created_at = array("d")

    def _columns(self):
        return (self.seq, self.media_time, self.delivered_at,
                self.local_time, self.created_at)

    def __len__(self) -> int:
        return len(self.seq)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[DeliveryRecord, List[DeliveryRecord]]:
        if isinstance(index, slice):
            return list(map(_record, *(c[index] for c in self._columns())))
        return _record(*(c[index] for c in self._columns()))

    def __iter__(self) -> Iterator[DeliveryRecord]:
        return map(_record, *self._columns())


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
        self.records = DeliveryLog()
        self.started = False
        self._consumer: Process = sim.spawn(
            self._consume_loop(), name=f"sink:{endpoint.vc_id}"
        )
        self._orch: Process = sim.spawn(
            self._orch_loop(), name=f"sink-orch:{endpoint.vc_id}"
        )

    @property
    def presented(self) -> int:
        return len(self.records.seq)

    def media_position_at(self, t: float) -> float:
        """Media time presented as of simulator time ``t``."""
        i = bisect_right(self.records.delivered_at, t)
        return self.records.media_time[i - 1] if i else 0.0

    def last_media_time(self) -> float:
        media_time = self.records.media_time
        return media_time[-1] if media_time else 0.0

    def _consume_loop(self):
        log = self.records
        log_seq = log.seq.append
        log_media_time = log.media_time.append
        log_delivered_at = log.delivered_at.append
        log_local_time = log.local_time.append
        log_created_at = log.created_at.append
        nan = float("nan")
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
            created_at = osdu.created_at
            log_seq(osdu.seq)
            log_media_time(media_time)
            log_delivered_at(self.sim.now)
            log_local_time(self.clock.now())
            log_created_at(nan if created_at is None else created_at)

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
