"""Tests for the network topology and routing."""

import pytest

from repro.netsim.boundary import attach_egress
from repro.netsim.packet import Packet
from repro.netsim.partition import CutLink
from repro.netsim.topology import Network
from repro.sim.random import RandomStreams
from repro.sim.shard import Outbox


class Probe:
    handler_key = "probe"


def probe_packet(src, dst, size_bits=800):
    return Packet(src, dst, payload=Probe(), size_bits=size_bits)


@pytest.fixture
def triangle(sim):
    """a -- r -- b with an extra slow direct a -- b path."""
    net = Network(sim, RandomStreams(1))
    net.add_host("a")
    net.add_host("b")
    net.add_router("r")
    net.add_link("a", "r", 10e6, prop_delay=0.001)
    net.add_link("r", "b", 10e6, prop_delay=0.001)
    net.add_link("a", "b", 10e6, prop_delay=0.050)
    return net


class TestRouting:
    def test_shortest_path_by_delay(self, triangle):
        assert triangle.route("a", "b") == ["a", "r", "b"]

    def test_next_hop(self, triangle):
        assert triangle.next_hop("a", "b") == "r"

    def test_no_route_raises(self, sim):
        net = Network(sim, RandomStreams(0))
        net.add_host("x")
        net.add_host("y")
        with pytest.raises(ValueError):
            net.route("x", "y")

    def test_links_on_route(self, triangle):
        links = triangle.links_on_route("a", "b")
        assert [(l.src, l.dst) for l in links] == [("a", "r"), ("r", "b")]

    def test_path_propagation_delay(self, triangle):
        assert triangle.path_propagation_delay("a", "b") == pytest.approx(0.002)

    def test_duplicate_node_rejected(self, sim):
        net = Network(sim, RandomStreams(0))
        net.add_host("a")
        with pytest.raises(ValueError):
            net.add_host("a")

    def test_link_to_unknown_node_rejected(self, sim):
        net = Network(sim, RandomStreams(0))
        net.add_host("a")
        with pytest.raises(KeyError):
            net.add_link("a", "ghost", 1e6)


class TestDelivery:
    def test_multi_hop_delivery(self, sim, triangle):
        got = []
        triangle.host("b").register_handler("probe", lambda p: got.append(p))
        triangle.send(probe_packet("a", "b"))
        sim.run()
        assert len(got) == 1
        assert got[0].hops == 2

    def test_local_delivery_same_node(self, sim, triangle):
        got = []
        triangle.host("a").register_handler("probe", lambda p: got.append(p))
        triangle.send(probe_packet("a", "a"))
        sim.run()
        assert len(got) == 1
        assert got[0].hops == 0

    def test_unhandled_payload_counted(self, sim, triangle):
        triangle.send(probe_packet("a", "b"))
        sim.run()
        assert triangle.host("b").unhandled_packets == 1

    def test_duplicate_handler_rejected(self, triangle):
        triangle.host("b").register_handler("probe", lambda p: None)
        with pytest.raises(ValueError):
            triangle.host("b").register_handler("probe", lambda p: None)

    def test_router_forward_count(self, sim, triangle):
        triangle.host("b").register_handler("probe", lambda p: None)
        for _ in range(3):
            triangle.send(probe_packet("a", "b"))
        sim.run()
        assert triangle.nodes["r"].forwarded_packets == 3

    def test_host_accessor_type_checks(self, triangle):
        with pytest.raises(TypeError):
            triangle.host("r")

    def test_hosts_iterator(self, triangle):
        assert sorted(h.name for h in triangle.hosts()) == ["a", "b"]

    def test_bidirectional_link_creates_reverse(self, sim, triangle):
        got = []
        triangle.host("a").register_handler("probe", lambda p: got.append(p))
        triangle.send(probe_packet("b", "a"))
        sim.run()
        assert len(got) == 1

    def test_simplex_link_has_no_reverse(self, sim):
        net = Network(sim, RandomStreams(0))
        net.add_host("s")
        net.add_host("t")
        forward, backward = net.add_link("s", "t", 1e6, bidirectional=False)
        assert backward is None
        with pytest.raises(ValueError):
            net.route("t", "s")

    def test_linkless_node_routes_to_itself(self, sim):
        net = Network(sim, RandomStreams(0))
        net.add_router("lonely")
        assert net.route("lonely", "lonely") == ["lonely"]
        with pytest.raises(ValueError):
            net.route("lonely", "nowhere")

    def test_links_in_creation_order(self, triangle):
        assert [(link.src, link.dst) for link in triangle.links()] == [
            ("a", "r"), ("a", "b"), ("b", "r"), ("b", "a"),
            ("r", "a"), ("r", "b"),
        ]


def _connect_direct(net, src, dst, delay):
    return net.add_link(src, dst, 10e6, prop_delay=delay, bidirectional=False)[0]


def _connect_egress(net, src, dst, delay):
    cut = CutLink(src=src, dst=dst, src_shard=0, dst_shard=1,
                  bandwidth_bps=10e6, prop_delay=delay)
    return attach_egress(net, cut, Outbox())


class TestNextHopTables:
    """A cached next hop must follow a topology change.

    Hosts ``a`` and ``h`` send to ``d`` over simplex links through
    router ``r`` (5 ms last hop), caching ``d``'s next hop at ``a`` and at ``r``.  Then a
    1 ms ``a -> d`` link and a ``r2 -> d`` link (making ``r -> r2 -> d``
    cheaper) appear.  The next packets must leave ``a`` and ``r`` on the
    new paths.  ``d`` is a host joined by :meth:`Network.add_link`, or a
    ghost joined by :func:`attach_egress`.
    """

    @pytest.mark.parametrize("connect", [_connect_direct, _connect_egress],
                             ids=["add_link", "attach_egress"])
    def test_cheaper_path_takes_over_at_host_and_router(self, sim, connect):
        net = Network(sim, RandomStreams(0))
        for host in ("a", "h"):
            net.add_host(host)
        net.add_router("r")
        net.add_router("r2")
        if connect is _connect_direct:
            net.add_host("d")
        for src, dst in (("a", "r"), ("h", "r"), ("r", "r2")):
            _connect_direct(net, src, dst, 0.001)
        slow = connect(net, "r", "d", 0.005)
        for src in ("a", "h"):
            net.send(probe_packet(src, "d"))
        sim.run()
        assert slow.stats.sent_packets == 2
        assert net.nodes["a"].hops["d"] is net.link_between("a", "r")
        assert net.nodes["r"].hops["d"] is slow

        direct = connect(net, "a", "d", 0.001)
        detour = connect(net, "r2", "d", 0.001)
        for src in ("a", "h"):
            net.send(probe_packet(src, "d"))
        sim.run()
        assert direct.stats.sent_packets == 1
        assert detour.stats.sent_packets == 1
        assert slow.stats.sent_packets == 2
