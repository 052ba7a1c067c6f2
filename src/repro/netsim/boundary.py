"""Boundary links: the shard-side stand-in for a cross-shard wire.

A :class:`BoundaryLink` replaces the egress half of a cut link (see
:mod:`repro.netsim.partition`).  It is a real
:class:`~repro.netsim.link.Link` -- counters, priority bands, buffer
accounting, the idle-wire commit, the queued path and the one fate
routine :meth:`~repro.netsim.link.Link._launch` -- and overrides only
the final hand-off: instead of arming an in-process delivery flight it
*exports* each departing packet, stamped with its computed arrival
time, into the shard's :class:`~repro.sim.shard.runner.Outbox`.

The export happens **no later than serialization completion (wire
exit)**: at commit for a packet that finds the wire idle, at wire exit
for a queued one -- never at arrival time.  This is the load-bearing
choice of the whole synchronization scheme: a packet exported by wire
exit ``c`` arrives at ``c + prop_delay >= c + lookahead``, which is at
or beyond the *next* synchronization barrier -- so the receiving shard
always learns about the packet before executing the window containing
its arrival.  (A delivery-time hook would fire inside a window the
receiver has already run: one window too late.)

Because cut links are pristine by partition rule (no jitter, loss or
bit errors -- enforced again here), the exported arrival times are
bit-identical to what a real pristine ``Link`` would compute, which is
what makes an N-shard run's QoS conformance equal the unsharded
baseline's.  Cut links are consequently not valid fault targets:
:meth:`BoundaryLink.set_down` and friends raise
:class:`~repro.netsim.partition.PartitionError`.
"""

from __future__ import annotations

from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.netsim.partition import CutLink, PartitionError
from repro.netsim.topology import Network
from repro.sim.scheduler import Simulator
from repro.sim.shard.runner import Outbox


class BoundaryLink(Link):
    """Egress half of a cut link: serialises locally, delivers remotely.

    Behaves exactly like a pristine :class:`~repro.netsim.link.Link`
    up to the hand-off (same idle-wire commit, same queueing, same
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

    # -- hand-off --------------------------------------------------------

    def _hand_off(self, packet: Packet, arrival: float) -> None:
        """Settle delivery accounting and export to the outbox.

        Called by :meth:`Link._launch` at commit or wire exit with the
        clamped arrival time, in place of arming a local flight.
        """
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
