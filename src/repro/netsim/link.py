"""Simplex links with bandwidth, delay, jitter, loss and bit errors.

A link models the four impairments the paper's QoS parameters describe
(section 3.2): throughput (serialisation at ``bandwidth_bps``),
end-to-end delay (propagation + queueing), delay jitter (a pluggable
jitter model), and packet/bit error rates (pluggable loss model and a
BER).  Links have a finite buffer, so congestion produces both loss and
queueing delay, which the transport monitor must detect and report
(Table 2).

Scheduling is strict priority with two bands: CONTROL/RESERVED above
BEST_EFFORT, implementing the guaranteed out-of-band control channels
of paper section 5.

Links are also the primary target of the fault-injection subsystem
(:mod:`repro.netsim.faults`): :meth:`Link.set_down` /
:meth:`Link.set_up` model a carrier outage and :meth:`Link.set_rate` /
:meth:`Link.scale_rate` a mid-session bandwidth change, with correct
handling of the packet being serialised, packets in propagation, and
the per-band no-reorder clamps.
"""

from __future__ import annotations

import random as _random
import sys
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.netsim.packet import Packet, Priority
from repro.obs.registry import MetricsRegistry
from repro.sim.scheduler import Simulator, TimerHandle


class LossModel:
    """Decides whether a packet is lost in transit."""

    def is_lost(self, rng: _random.Random) -> bool:
        """Draw the fate of one packet from ``rng``."""
        raise NotImplementedError

    def expected_loss(self) -> float:
        """Long-run loss fraction, used for QoS offer computation."""
        raise NotImplementedError


class NoLoss(LossModel):
    """Lossless link."""

    def is_lost(self, rng: _random.Random) -> bool:
        """Never lose a packet."""
        return False

    def expected_loss(self) -> float:
        """Zero, by construction."""
        return 0.0


class BernoulliLoss(LossModel):
    """Independent per-packet loss with probability ``p``."""

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability {p} outside [0, 1]")
        self.p = p

    def is_lost(self, rng: _random.Random) -> bool:
        """Lose the packet with probability ``p``, independently."""
        return rng.random() < self.p

    def expected_loss(self) -> float:
        """The Bernoulli parameter ``p`` itself."""
        return self.p


class GilbertElliottLoss(LossModel):
    """Two-state bursty loss (Gilbert-Elliott).

    The channel alternates between a GOOD state with loss ``p_good`` and
    a BAD state with loss ``p_bad``; transition probabilities are
    evaluated per packet.  This models the 'temporary glitches occuring
    in individual VCs' the paper cites as a drift source (section 3.6).
    """

    def __init__(
        self,
        p_good_to_bad: float = 0.01,
        p_bad_to_good: float = 0.3,
        p_good: float = 0.0,
        p_bad: float = 0.5,
    ):
        for name, p in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("p_good", p_good),
            ("p_bad", p_bad),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.p_good = p_good
        self.p_bad = p_bad
        self._bad = False

    def is_lost(self, rng: _random.Random) -> bool:
        """Advance the two-state chain one packet, then draw the loss.

        The state transition is evaluated *before* the loss draw, so a
        packet that flips the channel into the BAD state is already
        exposed to ``p_bad``.
        """
        if self._bad:
            if rng.random() < self.p_bad_to_good:
                self._bad = False
        else:
            if rng.random() < self.p_good_to_bad:
                self._bad = True
        return rng.random() < (self.p_bad if self._bad else self.p_good)

    def expected_loss(self) -> float:
        """Stationary loss fraction of the two-state chain.

        With both transition probabilities zero the chain never leaves
        its current state, so the current state's loss probability is
        returned instead of the (undefined) stationary mixture.
        """
        denominator = self.p_good_to_bad + self.p_bad_to_good
        if denominator == 0.0:
            return self.p_bad if self._bad else self.p_good
        stationary_bad = self.p_good_to_bad / denominator
        return stationary_bad * self.p_bad + (1 - stationary_bad) * self.p_good


class JitterModel:
    """Draws an extra per-packet delay (seconds, non-negative)."""

    def sample(self, rng: _random.Random) -> float:
        """Draw one packet's extra delay from ``rng``."""
        raise NotImplementedError

    def bound(self) -> float:
        """Upper bound on the extra delay, for QoS offer computation."""
        raise NotImplementedError


class NoJitter(JitterModel):
    """Deterministic link: no extra per-packet delay."""

    def sample(self, rng: _random.Random) -> float:
        """Always zero."""
        return 0.0

    def bound(self) -> float:
        """Always zero."""
        return 0.0


class UniformJitter(JitterModel):
    """Uniform extra delay in ``[0, max_jitter]`` seconds."""

    def __init__(self, max_jitter: float):
        if max_jitter < 0:
            raise ValueError(f"negative jitter bound {max_jitter}")
        self.max_jitter = max_jitter

    def sample(self, rng: _random.Random) -> float:
        """Uniform draw in ``[0, max_jitter]``."""
        return rng.uniform(0.0, self.max_jitter)

    def bound(self) -> float:
        """The configured ``max_jitter``."""
        return self.max_jitter


class TruncatedGaussianJitter(JitterModel):
    """Gaussian extra delay truncated at zero and ``cap`` seconds."""

    def __init__(self, mean: float, sigma: float, cap: Optional[float] = None):
        if mean < 0 or sigma < 0:
            raise ValueError("jitter mean and sigma must be non-negative")
        self.mean = mean
        self.sigma = sigma
        self.cap = cap if cap is not None else mean + 4 * sigma

    def sample(self, rng: _random.Random) -> float:
        """Gaussian draw clipped into ``[0, cap]``."""
        return min(max(rng.gauss(self.mean, self.sigma), 0.0), self.cap)

    def bound(self) -> float:
        """The truncation cap."""
        return self.cap


class LinkStats:
    """Per-link counters, held in a :class:`~repro.obs.registry.MetricsRegistry`.

    The registry owns the values (so ``sim.metrics.as_dict()`` sees
    every link); the attribute API the benchmarks read is a thin
    property view over those counters.  Constructed without a registry
    (unit tests) it allocates a private one.
    """

    _FIELDS = (
        "sent_packets", "delivered_packets", "lost_packets",
        "buffer_drops", "corrupted_packets", "sent_bits", "delivered_bits",
    )

    def __init__(self, metrics: Optional["MetricsRegistry"] = None,
                 scope: str = "link") -> None:
        metrics = metrics if metrics is not None else MetricsRegistry()
        for field in self._FIELDS:
            setattr(self, "_" + field, metrics.counter(f"{scope}.{field}"))
        self._total_queue_delay = metrics.gauge(f"{scope}.total_queue_delay")

    @property
    def loss_fraction(self) -> float:
        """Fraction of sent packets lost or dropped at the buffer."""
        if self.sent_packets == 0:
            return 0.0
        return (self.lost_packets + self.buffer_drops) / self.sent_packets


def _stats_view(field: str):
    """Build a property forwarding a LinkStats attribute to its counter."""
    def get(self: LinkStats) -> int:
        return getattr(self, "_" + field).value

    def set_(self: LinkStats, value: int) -> None:
        getattr(self, "_" + field).value = value

    return property(get, set_)


for _field in LinkStats._FIELDS + ("total_queue_delay",):
    setattr(LinkStats, _field, _stats_view(_field))
del _field


# Shared default impairment models: a link built without loss/jitter gets
# these singletons, letting the serialisation path skip two virtual calls
# per packet (neither consumes rng draws, so skipping them is
# draw-for-draw identical to calling them).
_NO_LOSS = NoLoss()
_NO_JITTER = NoJitter()
_RESERVED = Priority.RESERVED


class _Flight:
    """One packet in propagation: a reusable delivery timer + its packet.

    Replaces the per-packet ``call_at(..., lambda: deliver(...))``
    idiom: the handle and the flight object itself are recycled through
    the owning link's freelist, so a steady-state flow allocates
    nothing per delivery.
    """

    __slots__ = ("link", "handle", "packet")

    def __init__(self, link: "Link"):
        self.link = link
        self.handle = TimerHandle(link.sim, self._fire)
        self.packet: Optional[Packet] = None

    def _fire(self) -> None:
        """Propagation finished: hand the packet to the receiving node."""
        link = self.link
        packet = self.packet
        link._propagating.discard(self)
        self.packet = None
        free = link._flight_pool
        if len(free) < 256:
            free.append(self)
        link._c_delivered.value += 1
        link._c_delivered_bits.value += packet.size_bits
        packet.hops += 1
        on_deliver = link.on_deliver
        if on_deliver is not None:
            on_deliver(packet)


class Link:
    """A simplex link between two nodes.

    Packets are serialised one at a time at ``bandwidth_bps``; strict
    priority between the CONTROL/RESERVED band and BEST_EFFORT, FIFO
    within a band.  Delivery order within a band is preserved even under
    jitter (jitter extends a packet's delivery time but never reorders).

    Args:
        sim: the simulator.
        src, dst: node names (routing is by name).
        bandwidth_bps: serialisation rate in bits/second.
        prop_delay: fixed propagation delay in seconds.
        jitter: per-packet extra-delay model.
        loss: packet-loss model.
        ber: independent bit-error probability; a packet of ``n`` bits is
            marked corrupted with probability ``1 - (1-ber)**n``.
        buffer_bytes: transmit buffer size; arrivals beyond it are
            dropped (counted in ``stats.buffer_drops``).
        rng: random stream (defaults to a fresh seeded stream).
    """

    #: A subclass that delivers elsewhere (the shard boundary) sets this
    #: to a method ``(packet, arrival)``, which :meth:`_launch` calls
    #: instead of arming a local delivery flight.
    _hand_off: Optional[Callable[["Link", Packet, float], None]] = None

    def __init__(
        self,
        sim: Simulator,
        src: str,
        dst: str,
        bandwidth_bps: float,
        prop_delay: float = 0.001,
        jitter: Optional[JitterModel] = None,
        loss: Optional[LossModel] = None,
        ber: float = 0.0,
        buffer_bytes: int = 256 * 1024,
        rng: Optional[_random.Random] = None,
    ):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if prop_delay < 0:
            raise ValueError(f"negative propagation delay {prop_delay}")
        if not 0.0 <= ber <= 1.0:
            raise ValueError(f"BER {ber} outside [0, 1]")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay = prop_delay
        self.jitter = jitter or _NO_JITTER
        self.loss = loss or _NO_LOSS
        self.ber = ber
        self.buffer_bytes = buffer_bytes
        self.rng = rng or _random.Random(0)
        self.stats = LinkStats(sim.metrics, f"link.{src}->{dst}")
        self.on_deliver: Optional[Callable[[Packet], None]] = None
        self._high: Deque[tuple[Packet, float]] = deque()
        self._low: Deque[tuple[Packet, float]] = deque()
        self._queued_bytes = 0.0
        self._transmitting = False
        self._down = False
        # Counters bound once: the LinkStats attribute API is a property
        # view over registry counters, far too indirect for a path that
        # touches five counters per packet.
        stats = self.stats
        self._c_sent = stats._sent_packets
        self._c_sent_bits = stats._sent_bits
        self._c_delivered = stats._delivered_packets
        self._c_delivered_bits = stats._delivered_bits
        self._c_lost = stats._lost_packets
        self._c_buffer_drops = stats._buffer_drops
        self._c_corrupted = stats._corrupted_packets
        self._g_queue_delay = stats._total_queue_delay
        #: Interned tracer track, built once instead of per event.
        self._track = sys.intern(f"link:{src}->{dst}")
        self._name = f"{src}->{dst}"
        # The packet currently being serialised, its tx-start time and
        # the timer that completes it -- kept so set_down() can abort the
        # transmission and set_rate() can stretch/shrink its remainder.
        # The completion timer is one persistent handle re-armed per
        # packet (the link serialises one packet at a time).
        self._tx_packet: Optional[Packet] = None
        self._tx_started = 0.0
        self._tx_timer = TimerHandle(sim, self._tx_done)
        self._tx_handle: Optional[TimerHandle] = None
        # Packets past serialisation, in propagation toward dst.  A
        # carrier loss kills these too (they are on the failed medium),
        # so their delivery timers must be cancellable.
        #: In-propagation deliveries: the set of live flights (each a
        #: reusable delivery timer + packet).  The packet rides along so
        #: an outage can
        #: report *which* packets the severed medium swallowed, not
        #: just how many.
        self._propagating: Set[_Flight] = set()
        self._flight_pool: List[_Flight] = []
        # Idle-wire commit (see send()): a packet that finds the wire
        # idle has its whole fate -- serialisation span, loss, BER,
        # jitter and delivery time -- decided at once, so send() arms
        # the delivery flight directly and skips the per-packet
        # tx-completion event.  ``_free_at`` is the time the serialiser
        # finishes its committed work; ``_wire`` is the one
        # idle-committed packet still on the wire (completion time,
        # buffer bytes, flight or None if it was lost), or None.
        self._free_at = 0.0
        self._wire: Optional[tuple] = None
        # No-reorder clamp per priority band: jitter must not reorder
        # deliveries *within a band*, but the CONTROL/RESERVED band must
        # never be held behind a BEST_EFFORT packet's jittered delivery
        # (the guaranteed out-of-band control channels of section 5).
        self._last_delivery_high = 0.0
        self._last_delivery_low = 0.0

    # -- capacity accounting used by the reservation manager ------------

    def _wire_bytes(self) -> float:
        """Buffer contribution of the idle-committed on-wire packet.

        The idle-wire commit never touches ``_queued_bytes`` (there is no
        completion event to subtract at), so occupancy readers add this
        lazily-settled term instead: once the wire packet's completion
        time has passed, its contribution is zero and the entry is
        dropped.
        """
        wire = self._wire
        if wire is None:
            return 0.0
        if wire[0] <= self.sim._now:
            self._wire = None
            return 0.0
        return wire[1]

    @property
    def queued_bytes(self) -> float:
        """Bytes currently held in the transmit buffer."""
        return self._queued_bytes + self._wire_bytes()

    @property
    def up(self) -> bool:
        """False while the link is administratively/fault down."""
        return not self._down

    def tx_time(self, size_bits: int) -> float:
        """Serialisation time for a packet of ``size_bits``."""
        return size_bits / self.bandwidth_bps

    # -- fault injection -------------------------------------------------

    def set_down(self) -> None:
        """Take the link down (carrier loss), losing everything on it.

        The packet mid-serialisation, every queued packet and every
        packet still in propagation are counted as lost: a severed
        medium delivers nothing.  Cancelling the in-propagation delivery
        timers is load-bearing for ordering correctness -- see
        :meth:`set_up` for the matching clamp reset.  Idempotent.
        """
        if self._down:
            return
        self._down = True
        trace = self.sim.trace
        lost = 0
        lost_ids: list = []
        if self._tx_handle is not None:
            self._tx_handle.cancel()
            self._tx_handle = None
            if self._tx_packet is not None:
                self._queued_bytes -= self._tx_packet.size_bytes
                if trace.packets:
                    lost_ids.append(self._tx_packet.packet_id)
                self._tx_packet = None
                lost += 1
        for queue in (self._high, self._low):
            while queue:
                packet, _enqueued_at = queue.popleft()
                self._queued_bytes -= packet.size_bytes
                if trace.packets:
                    lost_ids.append(packet.packet_id)
                lost += 1
        for flight in self._propagating:
            flight.handle.cancel()
            if trace.packets:
                lost_ids.append(flight.packet.packet_id)
            flight.packet = None
            if len(self._flight_pool) < 256:
                self._flight_pool.append(flight)
            lost += 1
        self._propagating.clear()
        self._transmitting = False
        # An idle-committed wire packet was counted by the flights loop
        # above (its delivery was already armed) or, if the loss model
        # dropped it, at commit; just forget the wire.
        self._wire = None
        self._free_at = 0.0
        self._c_lost.value += lost
        if trace.enabled:
            args: Dict[str, object] = {
                "lost_in_flight": lost,
                "link": self._name,
            }
            if lost_ids:
                # Bounded: enough ids for a causal post-mortem without
                # letting a deep queue bloat the event.
                args["lost_packet_ids"] = lost_ids[:64]
            trace.instant(
                "link.down", track=self._track, cat="fault",
                args=args,
            )

    def set_up(self) -> None:
        """Restore a downed link.  Idempotent.

        The per-band no-reorder clamps are reset here: they still hold
        the jittered arrival times of pre-outage packets, but every one
        of those deliveries was cancelled by :meth:`set_down`.  Left in
        place, post-outage traffic would be held behind the ghost of
        packets that never arrived; conversely, resetting the clamps
        without having cancelled the pre-outage deliveries would let a
        pre-outage packet arrive *after* a post-outage one.  The
        cancel-then-reset pair keeps per-band FIFO delivery intact
        across a down/up cycle.
        """
        if not self._down:
            return
        self._down = False
        self._last_delivery_high = 0.0
        self._last_delivery_low = 0.0
        trace = self.sim.trace
        if trace.enabled:
            trace.instant("link.up", track=self._track, cat="fault")

    def set_rate(self, bandwidth_bps: float) -> None:
        """Change the serialisation rate mid-session.

        The packet currently on the wire keeps the bits it has already
        serialised: its completion timer is rescheduled so the
        *remaining* serialisation proceeds at the new rate.  Queued
        packets simply serialise at the new rate when their turn comes.
        """
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        old = self.bandwidth_bps
        if bandwidth_bps == old:
            return
        self.bandwidth_bps = bandwidth_bps
        now = self.sim.now
        if self._tx_handle is not None and self._tx_handle.scheduled:
            remaining = self._tx_handle.when - now
            if remaining > 0:
                new_when = now + remaining * old / bandwidth_bps
                self._tx_handle.reschedule(new_when)
                if self._tx_packet is None:
                    # The handle is the wire-idle wakeup for an
                    # idle-committed packet; fall through to stretch
                    # that packet's delivery too.
                    self._free_at = new_when
        wire = self._wire
        if wire is not None and wire[0] > now:
            # Stretch/shrink the idle-committed packet's remaining
            # serialisation at the new rate, shifting its delivery (a
            # packet the loss model dropped has none to shift).
            complete, wire_bytes, flight = wire
            new_complete = now + (complete - now) * old / bandwidth_bps
            if flight is not None:
                self._shift_flight(flight, new_complete - complete)
            self._wire = (new_complete, wire_bytes, flight)
            if not self._transmitting:
                self._free_at = new_complete
        trace = self.sim.trace
        if trace.enabled:
            trace.instant(
                "link.rate", track=self._track, cat="fault",
                args={"bandwidth_bps": bandwidth_bps, "was_bps": old},
            )

    def _shift_flight(self, flight: _Flight, shift: float) -> None:
        """Move an idle-committed packet's delivery by ``shift`` seconds.

        Never earlier than a packet of its band still in propagation: a
        shrunk serialisation must not pull a clamped (jittered) arrival
        ahead of the delivery it was clamped behind.
        """
        high = flight.packet.priority >= _RESERVED
        old_arrival = flight.handle.when
        new_arrival = old_arrival + shift
        for other in self._propagating:
            if (other is not flight
                    and (other.packet.priority >= _RESERVED) == high
                    and other.handle.when > new_arrival):
                new_arrival = other.handle.when
        flight.handle.reschedule(new_arrival)
        # Keep the no-reorder clamp honest: if this delivery was the
        # band's latest, track its move.
        if high:
            if self._last_delivery_high == old_arrival:
                self._last_delivery_high = new_arrival
        elif self._last_delivery_low == old_arrival:
            self._last_delivery_low = new_arrival

    def scale_rate(self, factor: float) -> float:
        """Scale the serialisation rate by ``factor``; returns the old rate."""
        if factor <= 0:
            raise ValueError(f"rate factor must be positive, got {factor}")
        old = self.bandwidth_bps
        self.set_rate(old * factor)
        return old

    # -- data path -------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Enqueue ``packet`` for transmission.

        Idle-wire commit: when the link is up, the wire idle and the
        packet fits the buffer, its serialisation span is known here,
        so :meth:`_launch` decides its whole fate at once (loss, then
        BER, then jitter, drawn from this link's own stream) and arms
        its one delivery flight directly: one scheduler event per packet
        instead of two.  A dropped packet arms nothing but still holds
        the wire until its serialisation ends.  A busy wire queues into
        the priority bands, and :meth:`_tx_done` launches each queued
        packet at its serialisation end.  The draw order is the same
        either way: a packet committed on an idle wire is the next one
        to finish serialising, so the link draws its fate in the same
        place in its stream as it would at tx end.  The gate must not
        depend on whether anyone is *observing* the run (tracing,
        auditing): the scheduled-event count is part of a run's pinned
        behaviour, so the commit emits the same serialisation-span
        trace record the queued path does, with the same explicit
        start/end timestamps.
        """
        bits = packet.size_bits
        self._c_sent.value += 1
        self._c_sent_bits.value += bits
        sim = self.sim
        prof = sim.profile
        if prof is not None:
            _t0 = prof.clock()
        now = sim._now
        if (self._free_at <= now
                and not self._transmitting
                and not self._down
                and bits * 0.125 <= self.buffer_bytes):
            # The previous wire entry (if any) matured at _free_at <=
            # now, so settling it is just replacing it.
            complete = now + bits / self.bandwidth_bps
            self._free_at = complete
            self._wire = (complete, bits * 0.125,
                          self._launch(packet, now, complete))
            if prof is not None:
                prof.add("link.commit", _t0, prof.clock())
            return
        if self._down:
            # A downed interface: the packet goes nowhere.
            self._c_lost.value += 1
            trace = sim.trace
            if trace.packets:
                trace.instant(
                    "drop:down", track=self._track, cat="link",
                    args={"flow": packet.flow_id,
                          "packet_id": packet.packet_id,
                          "link": self._name},
                )
            if prof is not None:
                prof.add("link.commit", _t0, prof.clock())
            return
        size_bytes = bits * 0.125
        if self._queued_bytes + self._wire_bytes() + size_bytes > self.buffer_bytes:
            self._c_buffer_drops.value += 1
            trace = sim.trace
            if trace.packets:
                trace.instant(
                    "drop:buffer", track=self._track, cat="link",
                    args={"flow": packet.flow_id,
                          "packet_id": packet.packet_id,
                          "link": self._name},
                )
            if prof is not None:
                prof.add("link.commit", _t0, prof.clock())
            return
        self._queued_bytes += size_bytes
        entry = (packet, now)
        if packet.priority >= _RESERVED:
            self._high.append(entry)
        else:
            self._low.append(entry)
        if not self._transmitting:
            if self._free_at > now:
                # An idle-committed packet still owns the wire: wake the
                # serialiser when it frees up instead of starting now.
                self._transmitting = True
                self._tx_handle = self._tx_timer
                sim._push(self._tx_timer, self._free_at)
            else:
                self._start_next()
        if prof is not None:
            prof.add("link.commit", _t0, prof.clock())

    def _start_next(self) -> None:
        """Begin serialising the next queued packet, if any."""
        queue = self._high or self._low
        if not queue:
            self._transmitting = False
            self._tx_packet = None
            self._tx_handle = None
            return
        self._transmitting = True
        packet, enqueued_at = queue.popleft()
        sim = self.sim
        now = sim._now
        self._g_queue_delay.value += now - enqueued_at
        self._tx_packet = packet
        self._tx_started = now
        complete = now + packet.size_bits / self.bandwidth_bps
        self._free_at = complete
        timer = self._tx_timer
        self._tx_handle = timer
        sim._push(timer, complete)

    def _tx_done(self) -> None:
        """Serialisation finished: launch the packet, start the next one.

        With no packet on the wire this is the wire-idle wake-up after
        an idle-wire commit: there is nothing to launch.
        """
        packet = self._tx_packet
        self._tx_handle = None
        if packet is not None:
            self._tx_packet = None
            self._queued_bytes -= packet.size_bits * 0.125
            self._launch(packet, self._tx_started, self.sim._now)
        self._start_next()

    def _launch(self, packet: Packet, start: float,
                complete: float) -> Optional[_Flight]:
        """Decide the fate of ``packet``, serialised over [start, complete].

        Records the serialisation span, then draws loss, BER and jitter
        from this link's own stream, in that order, and hands the
        survivor off at its clamped arrival time.  Returns the armed
        delivery flight, or None when the loss model dropped the packet
        (or :attr:`_hand_off` delivered it elsewhere).  Both the idle-wire
        commit in :meth:`send` and the queued path's :meth:`_tx_done`
        call this, once per packet in serialisation order, so a link's
        draws happen in the same sequence whichever path a packet took.
        """
        trace = self.sim.trace
        if trace.packets:
            trace.complete(
                packet.flow_id or type(packet.payload).__name__,
                start, complete,
                track=self._track, cat="link",
                args={"bits": packet.size_bits,
                      "priority": int(packet.priority),
                      "packet_id": packet.packet_id},
            )
        loss = self.loss
        if loss is not _NO_LOSS and loss.is_lost(self.rng):
            self._c_lost.value += 1
            if trace.packets:
                trace.instant(
                    "loss", track=self._track, cat="link",
                    args={"flow": packet.flow_id,
                          "packet_id": packet.packet_id,
                          "link": self._name},
                )
            return None
        if self.ber > 0.0:
            p_corrupt = 1.0 - (1.0 - self.ber) ** packet.size_bits
            if self.rng.random() < p_corrupt:
                packet.corrupted = True
                self._c_corrupted.value += 1
        arrival = complete + self.prop_delay
        jitter = self.jitter
        if jitter is not _NO_JITTER:
            arrival += jitter.sample(self.rng)
        # Jitter must not reorder packets within a priority band (but
        # may reorder across bands: control traffic is never clamped
        # behind a best-effort delivery).
        if packet.priority >= _RESERVED:
            if arrival < self._last_delivery_high:
                arrival = self._last_delivery_high
            self._last_delivery_high = arrival
        else:
            if arrival < self._last_delivery_low:
                arrival = self._last_delivery_low
            self._last_delivery_low = arrival
        if self._hand_off is not None:
            self._hand_off(packet, arrival)
            return None
        pool = self._flight_pool
        flight = pool.pop() if pool else _Flight(self)
        flight.packet = packet
        self.sim._push(flight.handle, arrival)
        self._propagating.add(flight)
        return flight

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Human-readable summary for debugging."""
        return (
            f"Link({self.src}->{self.dst}, {self.bandwidth_bps/1e6:.1f} Mbit/s, "
            f"{self.prop_delay*1e3:.2f} ms)"
        )
