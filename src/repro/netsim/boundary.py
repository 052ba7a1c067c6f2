"""Boundary links: the shard-side stand-in for a cross-shard wire.

A :class:`BoundaryLink` replaces the egress half of a cut link (see
:mod:`repro.netsim.partition`).  It reuses the real
:class:`~repro.netsim.link.Link` serialisation machinery -- counters,
priority bands, buffer accounting, the idle-wire fast commit and the
classic queued path -- but instead of arming an in-process delivery
flight it *exports* each departing packet, stamped with its computed
arrival time, into the shard's :class:`~repro.sim.shard.runner.Outbox`.

The export happens at **serialization-completion (wire-exit) time**,
not at arrival time.  This is the load-bearing choice of the whole
synchronization scheme: a packet exported at wire exit ``c`` arrives at
``c + prop_delay >= c + lookahead``, which is at or beyond the *next*
synchronization barrier -- so the receiving shard always learns about
the packet before executing the window containing its arrival.  (A
delivery-time hook would fire inside a window the receiver has already
run: one window too late.)

Because cut links are pristine by partition rule (no jitter, loss or
bit errors -- enforced again here), the exported arrival times are
bit-identical to what a real pristine ``Link`` would compute, which is
what makes an N-shard run's QoS conformance equal the unsharded
baseline's.  Cut links are consequently not valid fault targets:
:meth:`BoundaryLink.set_down` and friends raise
:class:`~repro.netsim.partition.PartitionError`.
"""

from __future__ import annotations

from repro.netsim.link import _RESERVED, Link
from repro.netsim.packet import Packet
from repro.netsim.partition import CutLink, PartitionError
from repro.netsim.topology import Network
from repro.sim.scheduler import Simulator
from repro.sim.shard.runner import Outbox


class BoundaryLink(Link):
    """Egress half of a cut link: serialises locally, delivers remotely.

    Behaves exactly like a pristine :class:`~repro.netsim.link.Link`
    up to wire exit (same fast-commit gate, same queueing, same
    counters and trace spans, same per-band no-reorder clamps), then
    hands ``(dst_shard, dst_node, arrival, packet)`` to the outbox
    instead of scheduling a local delivery.  Delivered counters and the
    packet hop count are settled at export, since the arrival event
    runs in another process.
    """

    def __init__(self, sim: Simulator, cut: CutLink, outbox: Outbox):
        super().__init__(
            sim, cut.src, cut.dst, cut.bandwidth_bps,
            prop_delay=cut.prop_delay, buffer_bytes=cut.buffer_bytes,
        )
        if cut.prop_delay <= 0:
            raise PartitionError(
                f"boundary link {cut.src}->{cut.dst} needs positive "
                "propagation delay"
            )
        self.cut = cut
        self.dst_shard = cut.dst_shard
        self.outbox = outbox

    # -- fault API: cuts are not valid targets ---------------------------

    def set_down(self) -> None:
        """Refuse: a cut link cannot be a fault target (see module doc)."""
        raise PartitionError(
            f"cut link {self._name} cannot be a fault target: its "
            "latency is the shards' synchronization lookahead"
        )

    def set_up(self) -> None:
        """Refuse, matching :meth:`set_down`."""
        raise PartitionError(
            f"cut link {self._name} cannot be a fault target"
        )

    def set_rate(self, bandwidth_bps: float) -> None:
        """Refuse: mid-run retiming would desynchronize the shards."""
        raise PartitionError(
            f"cut link {self._name} cannot change rate mid-run"
        )

    # -- serialisation path ----------------------------------------------

    def send(self, packet: Packet) -> None:
        """Enqueue ``packet``, exporting it at wire exit.

        Mirrors :meth:`Link.send` with the impairment branches dropped
        (the constructor guarantees a pristine, never-down link): an
        idle wire commits the whole fate here; a busy wire queues into
        the priority bands and :meth:`_tx_done` exports later.
        """
        bits = packet.size_bits
        self._c_sent.value += 1
        self._c_sent_bits.value += bits
        sim = self.sim
        now = sim._now
        if (self._free_at <= now
                and not self._transmitting
                and bits * 0.125 <= self.buffer_bytes):
            complete = now + bits / self.bandwidth_bps
            self._free_at = complete
            trace = sim.trace
            if trace.packets:
                trace.complete(
                    packet.flow_id or type(packet.payload).__name__,
                    now, complete,
                    track=self._track, cat="link",
                    args={"bits": bits,
                          "priority": int(packet.priority),
                          "packet_id": packet.packet_id},
                )
            self._export(packet, complete + self.prop_delay)
            self._wire = (complete, bits * 0.125, None)
            return
        size_bytes = bits * 0.125
        if (self._queued_bytes + self._wire_bytes() + size_bytes
                > self.buffer_bytes):
            self._c_buffer_drops.value += 1
            trace = sim.trace
            if trace.packets:
                trace.instant(
                    "drop:buffer", track=self._track, cat="link",
                    args={"flow": packet.flow_id,
                          "packet_id": packet.packet_id,
                          "link": self._name},
                )
            return
        self._queued_bytes += size_bytes
        entry = (packet, now)
        if packet.priority >= _RESERVED:
            self._high.append(entry)
        else:
            self._low.append(entry)
        if not self._transmitting:
            if self._free_at > now:
                self._transmitting = True
                self._tx_handle = self._tx_timer
                sim._push(self._tx_timer, self._free_at)
            else:
                self._start_next()

    def _tx_done(self) -> None:
        """Serialisation finished: export instead of launching a flight."""
        packet = self._tx_packet
        if packet is None:
            # Woken at wire-idle after a fast commit: start the queue.
            self._tx_handle = None
            self._start_next()
            return
        self._tx_packet = None
        self._tx_handle = None
        self._queued_bytes -= packet.size_bits * 0.125
        sim = self.sim
        trace = sim.trace
        if trace.packets:
            trace.complete(
                packet.flow_id or type(packet.payload).__name__,
                self._tx_started, sim.now,
                track=self._track, cat="link",
                args={"bits": packet.size_bits,
                      "priority": int(packet.priority),
                      "packet_id": packet.packet_id},
            )
        self._export(packet, sim._now + self.prop_delay)
        self._start_next()

    def _export(self, packet: Packet, arrival: float) -> None:
        """Settle delivery accounting and hand off to the outbox.

        The per-band no-reorder clamps are kept for strict parity with
        :meth:`Link._tx_done` even though a pristine wire never needs
        them (arrivals are already monotone per band).
        """
        if packet.priority >= _RESERVED:
            if arrival < self._last_delivery_high:
                arrival = self._last_delivery_high
            self._last_delivery_high = arrival
        else:
            if arrival < self._last_delivery_low:
                arrival = self._last_delivery_low
            self._last_delivery_low = arrival
        self._c_delivered.value += 1
        self._c_delivered_bits.value += packet.size_bits
        packet.hops += 1
        self.outbox.export(self.dst_shard, self.dst, arrival, packet)


def attach_egress(network: Network, cut: CutLink,
                  outbox: Outbox) -> BoundaryLink:
    """Wire a cut's egress half into a shard-local network.

    Builds the :class:`BoundaryLink` and attaches it to the (local)
    source node, which makes the (remote, ghost) destination name
    routable so routing treats the cut like any other hop.  Returns the
    link.
    """
    link = BoundaryLink(network.sim, cut, outbox)
    network.attach(link)
    return link
