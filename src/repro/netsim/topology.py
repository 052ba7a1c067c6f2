"""Network topology, routing and packet delivery.

The :class:`Network` holds nodes and links, computes shortest-path
routes (weighted by link propagation delay) and wires each link's
delivery callback to the receiving node.  Hosts inject packets with
:meth:`Network.send`; routers forward hop by hop.  Each node's next-hop
table maps a destination to the outgoing link, so a packet costs one
dict lookup per hop once its route is known.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.netsim.link import JitterModel, Link, LossModel
from repro.netsim.node import Host, Node, Router
from repro.netsim.packet import Packet
from repro.sim.clock import NodeClock
from repro.sim.random import RandomStreams
from repro.sim.scheduler import Simulator


def _chain(preds: Dict[str, Optional[str]], node: Optional[str]) -> List[str]:
    """``node`` and its predecessors, nearest first, up to the search root."""
    chain = []
    while node is not None:
        chain.append(node)
        node = preds[node]
    return chain


class Network:
    """A routed packet network over the simulation kernel."""

    def __init__(self, sim: Simulator, streams: Optional[RandomStreams] = None):
        self.sim = sim
        self.streams = streams or RandomStreams(0)
        self.nodes: Dict[str, Node] = {}
        #: Destination name -> {source name: link}: the incoming half of
        #: the adjacency (each ``Node.links`` is the outgoing half).  Its
        #: keys are the routable names, ghost egress destinations included.
        self._incoming: Dict[str, Dict[str, Link]] = {}
        self._routes: Dict[Tuple[str, str], List[str]] = {}

    # -- construction ------------------------------------------------------

    def add_host(self, name: str, clock_skew_ppm: float = 0.0) -> Host:
        """Create a host whose local clock drifts at ``clock_skew_ppm``."""
        self._check_new(name)
        host = Host(self.sim, name, NodeClock(self.sim, skew_ppm=clock_skew_ppm))
        self.nodes[name] = host
        self._incoming[name] = {}
        return host

    def add_router(self, name: str) -> Router:
        """Create a store-and-forward router wired to this network's routes."""
        self._check_new(name)
        router = Router(self.sim, name, self)
        self.nodes[name] = router
        self._incoming[name] = {}
        return router

    def _check_new(self, name: str) -> None:
        """Reject duplicate node names."""
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")

    def add_link(
        self,
        a: str,
        b: str,
        bandwidth_bps: float,
        prop_delay: float = 0.001,
        jitter: Optional[JitterModel] = None,
        loss: Optional[LossModel] = None,
        ber: float = 0.0,
        buffer_bytes: int = 256 * 1024,
        bidirectional: bool = True,
    ) -> Tuple[Link, Optional[Link]]:
        """Create link(s) between existing nodes ``a`` and ``b``.

        Returns ``(a_to_b, b_to_a)``; the second element is None for a
        simplex link.
        """
        forward = self._make_link(
            a, b, bandwidth_bps, prop_delay, jitter, loss, ber, buffer_bytes
        )
        backward = None
        if bidirectional:
            backward = self._make_link(
                b, a, bandwidth_bps, prop_delay, jitter, loss, ber, buffer_bytes
            )
        return forward, backward

    def _make_link(
        self,
        src: str,
        dst: str,
        bandwidth_bps: float,
        prop_delay: float,
        jitter: Optional[JitterModel],
        loss: Optional[LossModel],
        ber: float,
        buffer_bytes: int,
    ) -> Link:
        if src not in self.nodes or dst not in self.nodes:
            missing = src if src not in self.nodes else dst
            raise KeyError(f"unknown node {missing!r}")
        link = Link(
            self.sim,
            src,
            dst,
            bandwidth_bps,
            prop_delay=prop_delay,
            jitter=jitter,
            loss=loss,
            ber=ber,
            buffer_bytes=buffer_bytes,
            rng=self.streams.stream(f"link:{src}->{dst}"),
        )
        self.attach(link)
        link.on_deliver = self.nodes[dst].receive
        return link

    def attach(self, link: Link) -> None:
        """Add ``link`` to the adjacency and forget every cached route.

        ``link.dst`` need not be a node of this network: a shard's
        egress link leads to a ghost name that becomes routable here.
        """
        self.nodes[link.src].attach_link(link)
        self._incoming.setdefault(link.dst, {})[link.src] = link
        if self._routes:
            # Next-hop entries are filled only from cached routes, so with
            # none cached every table is already empty.
            self._routes.clear()
            for node in self.nodes.values():
                node.hops.clear()

    # -- routing -----------------------------------------------------------

    def route(self, src: str, dst: str) -> List[str]:
        """Node-name path from ``src`` to ``dst`` (inclusive)."""
        key = (src, dst)
        path = self._routes.get(key)
        if path is None:
            path = self._routes[key] = self._shortest_path(src, dst)
        return path

    def _shortest_path(self, src: str, dst: str) -> List[str]:
        """Bidirectional Dijkstra weighted by link propagation delay.

        A port of networkx 3.6.1's ``bidirectional_dijkstra`` that keeps
        its tie rules, so a route is the one ``nx.shortest_path(G, src,
        dst, weight="weight")`` picks: neighbours in link insertion
        order, ``(dist, counter, node)`` heap entries from one counter,
        a node relaxed and the meet node moved only on a strictly
        shorter distance, and the two directions alternating, forward
        first.  The forward half walks ``Node.links``, the backward half
        the incoming-link map.
        """
        incoming = self._incoming
        if src not in incoming or dst not in incoming:
            raise ValueError(f"no route from {src!r} to {dst!r}")
        if src == dst:
            return [src]
        nodes = self.nodes
        dists: tuple = ({}, {})
        seen: tuple = ({src: 0}, {dst: 0})
        preds: tuple = ({src: None}, {dst: None})
        fringe: tuple = ([(0, 0, src)], [(0, 1, dst)])
        counter = itertools.count(2)
        finaldist = meet = None
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, v = heappop(fringe[direction])
            done = dists[direction]
            if v in done:
                continue
            done[v] = dist
            if v in dists[1 - direction]:
                path = _chain(preds[0], meet)
                path.reverse()
                return path + _chain(preds[1], preds[1][meet])
            if direction == 0:
                adjacent = nodes[v].links if v in nodes else {}
            else:
                adjacent = incoming[v]
            near, far = seen[direction], seen[1 - direction]
            for w, link in adjacent.items():
                if w in done:
                    continue
                length = dist + link.prop_delay
                if w not in near or length < near[w]:
                    near[w] = length
                    heappush(fringe[direction], (length, next(counter), w))
                    preds[direction][w] = v
                    if w in far:
                        total = length + far[w]
                        if finaldist is None or total < finaldist:
                            finaldist, meet = total, w
        raise ValueError(f"no route from {src!r} to {dst!r}")

    def next_hop(self, at: str, dst: str) -> str:
        """The neighbour a packet at ``at`` should be forwarded to."""
        path = self.route(at, dst)
        if len(path) < 2:
            raise ValueError(f"no next hop from {at!r} toward {dst!r}")
        return path[1]

    def hop(self, at: str, dst: str) -> Link:
        """The link a packet at ``at`` bound for ``dst`` leaves on.

        Fills ``at``'s next-hop table, which the per-packet paths read
        first; :meth:`attach` clears every table along with the routes.
        """
        node = self.nodes[at]
        link = node.hops[dst] = node.links[self.next_hop(at, dst)]
        return link

    def link_between(self, src: str, dst: str) -> Link:
        """The directed link ``src -> dst``; KeyError when absent.

        Fault plans address links by endpoint names; this is the lookup
        the injector uses to resolve an episode's target.
        """
        node = self.nodes.get(src)
        link = node.links.get(dst) if node is not None else None
        if link is None:
            raise KeyError(f"no link {src!r} -> {dst!r}")
        return link

    def links(self) -> Iterator[Link]:
        """Every link, by source node in creation order, then by link."""
        for node in self.nodes.values():
            yield from node.links.values()

    def links_on_route(self, src: str, dst: str) -> List[Link]:
        """The Link objects along the route (used for reservation)."""
        path = self.route(src, dst)
        nodes = self.nodes
        return [nodes[u].links[v] for u, v in zip(path, path[1:])]

    def path_propagation_delay(self, src: str, dst: str) -> float:
        """Sum of propagation delays along the route ``src -> dst``."""
        return sum(link.prop_delay for link in self.links_on_route(src, dst))

    # -- sending -----------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Inject ``packet`` at its source node."""
        if packet.src == packet.dst:
            # Local delivery: model a small loopback latency of zero but
            # keep the asynchronous discipline (handler runs from the
            # event loop, never inline).
            self.sim.call_soon(lambda: self.nodes[packet.dst].receive(packet))
            return
        packet.sent_at = self.sim.now
        src = packet.src
        link = self.nodes[src].hops.get(packet.dst) or self.hop(src, packet.dst)
        link.send(packet)

    def send_multicast(self, packet: Packet, targets: Iterable[str]) -> None:
        """Inject a 1:N multicast packet at its source node.

        Replication follows the source-rooted shortest-path tree: the
        source splits per next hop, and routers split further at branch
        points, so each tree edge carries exactly one copy.
        """
        from dataclasses import replace as dc_replace

        target_set = tuple(sorted(set(targets)))
        packet.sent_at = self.sim.now
        src = packet.src
        hops = self.nodes[src].hops
        branches: Dict[Link, List[str]] = {}
        for target in target_set:
            if target == src:
                copy = dc_replace(packet, group_targets=(target,))
                self.sim.call_soon(
                    lambda c=copy: self.nodes[src].receive(c)
                )
                continue
            link = hops.get(target) or self.hop(src, target)
            branches.setdefault(link, []).append(target)
        for link, hop_targets in branches.items():
            copy = dc_replace(packet, group_targets=tuple(hop_targets))
            link.send(copy)

    def tree_links(self, src: str, targets: Iterable[str]) -> List[Link]:
        """Unique links of the source-rooted tree covering ``targets``."""
        links: List[Link] = []
        seen = set()
        for target in targets:
            if target == src:
                continue
            for link in self.links_on_route(src, target):
                key = (link.src, link.dst)
                if key not in seen:
                    seen.add(key)
                    links.append(link)
        return links

    def host(self, name: str) -> Host:
        """The Host called ``name``; TypeError if it is a router."""
        node = self.nodes[name]
        if not isinstance(node, Host):
            raise TypeError(f"node {name!r} is a {type(node).__name__}, not a Host")
        return node

    def hosts(self) -> Iterable[Host]:
        """All Host nodes in the network."""
        return (n for n in self.nodes.values() if isinstance(n, Host))
