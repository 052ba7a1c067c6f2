"""Unit tests for network-level multicast replication."""

import pytest

from repro.netsim.packet import Packet
from repro.netsim.topology import Network
from repro.sim.random import RandomStreams


class Probe:
    handler_key = "probe"


@pytest.fixture
def tree(sim):
    """src -- r1 -- r2 with leaves a,b off r1 and c,d off r2."""
    net = Network(sim, RandomStreams(2))
    net.add_host("src")
    net.add_router("r1")
    net.add_router("r2")
    for leaf in ("a", "b", "c", "d"):
        net.add_host(leaf)
    net.add_link("src", "r1", 10e6, prop_delay=0.001)
    net.add_link("r1", "r2", 10e6, prop_delay=0.001)
    net.add_link("r1", "a", 10e6, prop_delay=0.001)
    net.add_link("r1", "b", 10e6, prop_delay=0.001)
    net.add_link("r2", "c", 10e6, prop_delay=0.001)
    net.add_link("r2", "d", 10e6, prop_delay=0.001)
    return net


def watch(net, names):
    got = {n: [] for n in names}
    for n in names:
        net.host(n).register_handler(
            "probe", lambda p, n=n: got[n].append(p)
        )
    return got


class TestMulticastRouting:
    def test_every_target_receives_exactly_once(self, sim, tree):
        got = watch(tree, ["a", "b", "c", "d"])
        packet = Packet("src", "group:x", Probe(), size_bits=800)
        tree.send_multicast(packet, ["a", "b", "c", "d"])
        sim.run()
        assert all(len(got[n]) == 1 for n in ("a", "b", "c", "d"))

    def test_shared_edges_carry_one_copy(self, sim, tree):
        watch(tree, ["a", "b", "c", "d"])
        packet = Packet("src", "group:x", Probe(), size_bits=800)
        tree.send_multicast(packet, ["a", "b", "c", "d"])
        sim.run()
        # src->r1 is shared by all four: one copy.
        assert tree.link_between("src", "r1").stats.sent_packets == 1
        # r1->r2 is shared by c and d: one copy.
        assert tree.link_between("r1", "r2").stats.sent_packets == 1
        # Each leaf link carries its own copy.
        for router, leaf in (("r1", "a"), ("r1", "b"), ("r2", "c"),
                             ("r2", "d")):
            link = tree.link_between(router, leaf)
            assert link.stats.sent_packets == 1

    def test_routers_split_at_branch_points(self, sim, tree):
        watch(tree, ["a", "b", "c", "d"])
        packet = Packet("src", "group:x", Probe(), size_bits=800)
        tree.send_multicast(packet, ["a", "b", "c", "d"])
        sim.run()
        assert tree.nodes["r1"].multicast_splits == 1  # a/b/r2 three-way
        assert tree.nodes["r2"].multicast_splits == 1  # c/d two-way

    def test_subset_targets_prune_the_tree(self, sim, tree):
        got = watch(tree, ["a", "b", "c", "d"])
        packet = Packet("src", "group:x", Probe(), size_bits=800)
        tree.send_multicast(packet, ["a"])
        sim.run()
        assert len(got["a"]) == 1
        assert got["b"] == got["c"] == got["d"] == []
        assert tree.link_between("r1", "r2").stats.sent_packets == 0

    def test_source_in_target_set_gets_local_copy(self, sim, tree):
        got = watch(tree, ["a"])
        local = []
        tree.host("src").register_handler("probe", lambda p: local.append(p))
        packet = Packet("src", "group:x", Probe(), size_bits=800)
        tree.send_multicast(packet, ["src", "a"])
        sim.run()
        assert len(local) == 1
        assert len(got["a"]) == 1

    def test_tree_links_deduplicates(self, tree):
        links = tree.tree_links("src", ["a", "b", "c", "d"])
        pairs = [(l.src, l.dst) for l in links]
        assert len(pairs) == len(set(pairs)) == 6

    def test_duplicate_targets_collapse(self, sim, tree):
        got = watch(tree, ["a"])
        packet = Packet("src", "group:x", Probe(), size_bits=800)
        tree.send_multicast(packet, ["a", "a", "a"])
        sim.run()
        assert len(got["a"]) == 1
