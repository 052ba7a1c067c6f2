"""Tests for link/router fault semantics (down/up, rate, crash)."""

import pytest

from repro.netsim.faults import FaultLedger
from repro.netsim.link import JitterModel, Link, LossModel
from repro.netsim.packet import Packet, Priority
from repro.netsim.topology import Network
from repro.sim.random import RandomStreams
from repro.sim.scheduler import Simulator


def make_link(sim, **kwargs):
    defaults = dict(bandwidth_bps=1e6, prop_delay=0.01)
    defaults.update(kwargs)
    return Link(sim, "a", "b", **defaults)


def packet(size_bits=8000, priority=Priority.BEST_EFFORT):
    return Packet("a", "b", payload=None, size_bits=size_bits, priority=priority)


class ScriptedJitter(JitterModel):
    """Returns pre-scripted delays, then zero forever."""

    def __init__(self, samples):
        self.samples = list(samples)

    def sample(self, rng):
        return self.samples.pop(0) if self.samples else 0.0

    def bound(self):
        return max(self.samples) if self.samples else 0.0


class ScriptedLoss(LossModel):
    """Loses the packets whose draws are scripted True, then none."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def is_lost(self, rng):
        return self.outcomes.pop(0) if self.outcomes else False

    def expected_loss(self):
        return 0.0


class TestLinkDownUp:
    def test_down_loses_queued_serialising_and_propagating(self, sim):
        link = make_link(sim)
        arrivals = []
        link.on_deliver = lambda p: arrivals.append(sim.now)
        # One packet into propagation, one serialising, one queued.
        link.send(packet())                    # tx 8 ms
        sim.run(until=0.009)                   # past tx, in propagation
        link.send(packet())                    # serialising
        link.send(packet())                    # queued behind it
        sim.run(until=0.010)
        link.set_down()
        sim.run(until=1.0)
        assert arrivals == []
        assert link.stats.lost_packets == 3
        assert link.queued_bytes == 0
        assert not link.up
        # A lossy link decides each idle-wire packet's fate at send:
        # whichever packets the loss model dropped, the outage counts
        # every other one, and each is counted lost exactly once.
        for drops in ([True, False], [False, True], [True, True]):
            sim = Simulator()
            link = make_link(sim, loss=ScriptedLoss(drops))
            arrivals = []
            link.on_deliver = lambda p: arrivals.append(sim.now)
            link.send(packet())                # idle wire, 8 ms
            sim.run(until=0.009)
            link.send(packet())                # idle wire again
            link.send(packet())                # queued behind it
            sim.run(until=0.010)
            link.set_down()
            sim.run(until=1.0)
            assert arrivals == []
            assert link.stats.lost_packets == 3
            assert link.queued_bytes == 0

    def test_send_while_down_is_lost(self, sim):
        link = make_link(sim)
        arrivals = []
        link.on_deliver = lambda p: arrivals.append(sim.now)
        link.set_down()
        link.send(packet())
        sim.run(until=1.0)
        assert arrivals == []
        assert link.stats.lost_packets == 1

    def test_up_restores_delivery(self, sim):
        link = make_link(sim)
        arrivals = []
        link.on_deliver = lambda p: arrivals.append(sim.now)
        link.set_down()
        link.set_up()
        link.send(packet())
        sim.run()
        assert arrivals == [pytest.approx(0.008 + 0.01)]

    def test_down_up_idempotent(self, sim):
        link = make_link(sim)
        link.set_down()
        link.set_down()
        link.set_up()
        link.set_up()
        assert link.up

    def test_clamp_reset_regression(self, sim):
        """A post-outage packet must not be held behind the ghost of a
        cancelled pre-outage delivery.

        The pre-outage packet's jittered arrival pushes the band's
        no-reorder clamp far into the future; set_down cancels that
        delivery, and set_up must reset the clamp.  Without the reset,
        the post-outage packet is delivered at the ghost's arrival time
        instead of its own.
        """
        link = make_link(sim, jitter=ScriptedJitter([30.0]))
        arrivals = []
        link.on_deliver = lambda p: arrivals.append(sim.now)
        link.send(packet())            # jittered arrival at ~30.018
        sim.run(until=0.009)           # serialised, now propagating
        link.set_down()
        link.set_up()
        link.send(packet())            # jitter script exhausted: 0 extra
        sim.run()
        assert len(arrivals) == 1
        # tx restarts at 0.009: arrival = 0.009 + 0.008 + 0.010, far
        # before the cancelled packet's ghost at ~30.018.
        assert arrivals[0] == pytest.approx(0.027)

    def test_clamp_still_orders_within_band_after_up(self, sim):
        """After the reset, the no-reorder clamp still applies to new
        traffic: a low-jitter packet sent after a high-jitter one in the
        same band must not overtake it."""
        link = make_link(sim, jitter=ScriptedJitter([0.5, 0.0]))
        arrivals = []
        link.on_deliver = lambda p: arrivals.append(sim.now)
        link.set_down()
        link.set_up()
        link.send(packet())            # arrival 0.008 + 0.01 + 0.5
        link.send(packet())            # no jitter, clamped behind it
        sim.run()
        assert len(arrivals) == 2
        assert arrivals[0] == pytest.approx(0.518)
        assert arrivals[1] >= arrivals[0]


class TestLinkRate:
    def test_set_rate_stretches_inflight_serialisation(self, sim):
        link = make_link(sim)
        arrivals = []
        link.on_deliver = lambda p: arrivals.append(sim.now)
        link.send(packet(8000))        # 8 ms at 1 Mbit/s
        sim.run(until=0.004)           # half serialised
        link.set_rate(0.5e6)           # remaining 4000 bits now take 8 ms
        sim.run()
        assert arrivals == [pytest.approx(0.004 + 0.008 + 0.01)]

    def test_scale_rate_returns_old_rate(self, sim):
        link = make_link(sim)
        old = link.scale_rate(0.25)
        assert old == 1e6
        assert link.bandwidth_bps == 0.25e6

    def test_bad_rates_rejected(self, sim):
        link = make_link(sim)
        with pytest.raises(ValueError):
            link.set_rate(0)
        with pytest.raises(ValueError):
            link.scale_rate(-1)


def star_network(sim):
    net = Network(sim, RandomStreams(7))
    net.add_host("a")
    net.add_host("b")
    net.add_router("r")
    net.add_link("a", "r", 10e6, prop_delay=0.002)
    net.add_link("b", "r", 10e6, prop_delay=0.002)
    return net


class TestRouterCrash:
    def test_crash_drops_forwarded_packets(self, sim):
        net = star_network(sim)
        received = []
        net.nodes["b"].register_handler("str", lambda p: received.append(p))
        router = net.nodes["r"]
        router.crash()
        net.send(Packet("a", "b", payload="x", size_bits=8000))
        sim.run(until=1.0)
        assert received == []
        assert router.dropped_while_crashed == 1

    def test_restart_restores_forwarding(self, sim):
        net = star_network(sim)
        received = []
        net.nodes["b"].register_handler("str", lambda p: received.append(p))
        router = net.nodes["r"]
        router.crash()
        router.restart()
        net.send(Packet("a", "b", payload="x", size_bits=8000))
        sim.run(until=1.0)
        assert len(received) == 1


class TestFaultMechanisms:
    def test_take_down_and_restore_by_name(self, sim):
        net = star_network(sim)
        ledger = FaultLedger(net)
        ledger.link_down("a", "r")
        assert not net.link_between("a", "r").up
        assert net.link_between("r", "a").up      # simplex: one direction
        ledger.link_up("a", "r")
        assert net.link_between("a", "r").up

    def test_squeeze_state_restores_original_rate(self, sim):
        net = star_network(sim)
        link = net.link_between("a", "r")
        token = FaultLedger(net).begin_squeeze("a", "r", factor=0.25)
        assert link.bandwidth_bps == pytest.approx(2.5e6)
        token.restore()
        assert link.bandwidth_bps == pytest.approx(10e6)

    def test_loss_burst_swaps_and_restores_loss_model(self, sim):
        from repro.netsim.link import BernoulliLoss, NoLoss

        net = star_network(sim)
        link = net.link_between("a", "r")
        original = link.loss
        assert isinstance(original, NoLoss)
        token = FaultLedger(net).begin_loss_burst("a", "r", BernoulliLoss(0.5))
        assert isinstance(link.loss, BernoulliLoss)
        token.restore()
        assert link.loss is original

    def test_crash_requires_router(self, sim):
        net = star_network(sim)
        ledger = FaultLedger(net)
        with pytest.raises(TypeError):
            ledger.crash("a")
        with pytest.raises(TypeError):
            ledger.restart("a")
        ledger.crash("r")
        assert net.nodes["r"].crashed
        ledger.restart("r")
        assert not net.nodes["r"].crashed
