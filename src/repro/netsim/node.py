"""Hosts and routers.

A :class:`Node` owns the outgoing :class:`~repro.netsim.link.Link`
objects toward its neighbours and a next-hop table from destination to
one of those links.  A :class:`Router` forwards packets along the route
computed by the :class:`~repro.netsim.topology.Network`, which fills the
table on a destination's first packet.  A
:class:`Host` is an end-system: it has a drifting local clock (paper
section 3.6) and a registry of payload handlers, which is how protocol
entities (transport, orchestrator) attach to the network.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.sim.clock import NodeClock
from repro.sim.scheduler import Simulator

if TYPE_CHECKING:
    from repro.netsim.topology import Network

PacketHandler = Callable[[Packet], None]


class Node:
    """Base node: a named entity with outgoing links."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.links: Dict[str, Link] = {}  # neighbour name -> outgoing link
        self.hops: Dict[str, Link] = {}  # destination name -> first-hop link

    def attach_link(self, link: Link) -> None:
        """Adopt an outgoing link originating at this node."""
        if link.src != self.name:
            raise ValueError(
                f"link {link!r} does not originate at node {self.name!r}"
            )
        self.links[link.dst] = link
        link.on_deliver = None  # the Network wires delivery

    def receive(self, packet: Packet) -> None:
        """Handle a packet delivered to this node (subclass hook)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Human-readable summary for debugging."""
        return f"{type(self).__name__}({self.name!r})"


class Router(Node):
    """Store-and-forward router.

    A packet leaves on ``hops[dst]``; the first packet for ``dst`` asks
    the :class:`Network` (``network.hop``) to fill that entry.  For
    multicast packets the router *splits*: one copy per distinct next
    hop, each carrying the subset of group targets reached through it
    -- source-rooted shortest-path-tree replication.
    """

    def __init__(self, sim: Simulator, name: str, network: "Network"):
        super().__init__(sim, name)
        self.network = network
        self.forwarded_packets = 0
        self.multicast_splits = 0
        self.crashed = False
        self.dropped_while_crashed = 0

    def crash(self) -> None:
        """Fail-stop the router: every packet it receives is dropped.

        Links attached to the router keep delivering into it (the wire
        is intact; the forwarding engine is not), which is exactly the
        failure mode the transport monitor must surface as sustained
        zero delivery.  Idempotent.
        """
        self.crashed = True
        trace = self.sim.trace
        if trace.enabled:
            trace.instant(
                "node.crash", track=f"node:{self.name}", cat="fault",
            )

    def restart(self) -> None:
        """Bring a crashed router back; forwarding state is stateless
        (routes live in the Network), so recovery is immediate.  Idempotent.
        """
        self.crashed = False
        trace = self.sim.trace
        if trace.enabled:
            trace.instant(
                "node.restart", track=f"node:{self.name}", cat="fault",
                args={"dropped_while_crashed": self.dropped_while_crashed},
            )

    def receive(self, packet: Packet) -> None:
        """Forward ``packet`` toward its destination (or drop if crashed)."""
        if self.crashed:
            self.dropped_while_crashed += 1
            return
        if packet.group_targets is not None:
            self._forward_multicast(packet)
            return
        dst = packet.dst
        if dst == self.name:
            return  # routers sink packets addressed to themselves
        link = self.hops.get(dst) or self.network.hop(self.name, dst)
        self.forwarded_packets += 1
        link.send(packet)

    def _forward_multicast(self, packet: Packet) -> None:
        """Split a multicast packet: one copy per distinct next hop."""
        from dataclasses import replace as dc_replace

        hops = self.hops
        branches: dict[Link, list[str]] = {}
        for target in packet.group_targets:
            if target == self.name:
                continue
            link = hops.get(target) or self.network.hop(self.name, target)
            branches.setdefault(link, []).append(target)
        if len(branches) > 1:
            self.multicast_splits += 1
        for link, targets in branches.items():
            copy = dc_replace(packet, group_targets=tuple(targets))
            self.forwarded_packets += 1
            link.send(copy)


class Host(Node):
    """An end-system with a local clock and payload handlers.

    Handlers are keyed by *payload kind*: the class name of the payload
    object, or an explicit string key registered with
    :meth:`register_handler`.  Payload objects may define a
    ``handler_key`` attribute to override the class-name key; the
    transport entity uses ``"tpdu"`` and the orchestrator ``"opdu"``.
    """

    def __init__(self, sim: Simulator, name: str, clock: Optional[NodeClock] = None):
        super().__init__(sim, name)
        self.clock = clock or NodeClock(sim)
        self._handlers: Dict[str, PacketHandler] = {}
        self.received_packets = 0
        self.unhandled_packets = 0
        self._track = sys.intern(f"node:{name}")
        #: Interned ``rx:<key>`` trace labels, built once per payload kind.
        self._rx_labels: Dict[str, str] = {}

    def register_handler(self, key: str, handler: PacketHandler) -> None:
        """Attach a protocol entity for payloads with ``handler_key == key``."""
        if key in self._handlers:
            raise ValueError(f"handler for {key!r} already registered on {self.name}")
        self._handlers[key] = handler

    def unregister_handler(self, key: str) -> None:
        """Detach the protocol entity registered under ``key``, if any."""
        self._handlers.pop(key, None)

    def receive(self, packet: Packet) -> None:
        """Dispatch a delivered packet to the handler for its payload kind."""
        if packet.group_targets is not None and (
            self.name not in packet.group_targets
        ):
            # A multicast copy routed through this host (degenerate
            # topology): hosts do not forward.
            return
        self.received_packets += 1
        key = getattr(packet.payload, "handler_key", type(packet.payload).__name__)
        trace = self.sim.trace
        if trace.packets:
            label = self._rx_labels.get(key)
            if label is None:
                label = self._rx_labels[key] = sys.intern(f"rx:{key}")
            trace.instant(
                label, track=self._track, cat="host",
                args={"src": packet.src, "flow": packet.flow_id,
                      "packet_id": packet.packet_id},
            )
        handler = self._handlers.get(key)
        if handler is None:
            self.unhandled_packets += 1
            Packet.release(packet)
            return
        handler(packet)
        # The packet shell terminates here: no handler retains it (they
        # copy out payload fields synchronously), so pooled shells go
        # back to the freelist.  Multicast pass-through copies returned
        # above are never recycled -- they may alias a shell still in
        # flight elsewhere.
        Packet.release(packet)
