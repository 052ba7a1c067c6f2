"""Tests for links: timing, priority, impairments."""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.link import (
    BernoulliLoss,
    GilbertElliottLoss,
    JitterModel,
    Link,
    LossModel,
    NoJitter,
    NoLoss,
    TruncatedGaussianJitter,
    UniformJitter,
)
from repro.netsim.packet import Packet, Priority
from repro.sim.scheduler import Simulator


def make_link(sim, **kwargs):
    defaults = dict(bandwidth_bps=1e6, prop_delay=0.01)
    defaults.update(kwargs)
    return Link(sim, "a", "b", **defaults)


def packet(size_bits=8000, priority=Priority.BEST_EFFORT):
    return Packet("a", "b", payload=None, size_bits=size_bits, priority=priority)


class TestLinkTiming:
    def test_single_packet_delay_is_tx_plus_prop(self, sim):
        link = make_link(sim)
        arrivals = []
        link.on_deliver = lambda p: arrivals.append(sim.now)
        link.send(packet(8000))  # 8 ms serialisation at 1 Mbit/s
        sim.run()
        assert arrivals == [pytest.approx(0.008 + 0.01)]

    def test_back_to_back_packets_queue(self, sim):
        link = make_link(sim)
        arrivals = []
        link.on_deliver = lambda p: arrivals.append(sim.now)
        link.send(packet(8000))
        link.send(packet(8000))
        sim.run()
        assert arrivals == [
            pytest.approx(0.018),
            pytest.approx(0.026),
        ]

    def test_throughput_matches_bandwidth(self, sim):
        link = make_link(sim, bandwidth_bps=8e6, prop_delay=0.0)
        arrivals = []
        link.on_deliver = lambda p: arrivals.append(sim.now)
        for _ in range(100):
            link.send(packet(8000))
        sim.run()
        # 100 * 8000 bits at 8 Mbit/s = 100 ms.
        assert arrivals[-1] == pytest.approx(0.1)

    def test_control_priority_preempts_queued_best_effort(self, sim):
        link = make_link(sim)
        order = []
        link.on_deliver = lambda p: order.append(p.priority)
        link.send(packet())
        link.send(packet())
        link.send(packet(priority=Priority.CONTROL))
        sim.run()
        # The control packet overtakes the queued (not in-flight) one.
        assert order[1] == Priority.CONTROL

    def test_jitter_never_reorders(self, sim):
        link = make_link(
            sim, jitter=UniformJitter(0.05), rng=random.Random(1)
        )
        order = []
        link.on_deliver = lambda p: order.append(p.packet_id)
        sent = [packet() for _ in range(50)]
        for p in sent:
            link.send(p)
        sim.run()
        assert order == [p.packet_id for p in sent]

    def test_control_not_clamped_behind_jittered_best_effort(self, sim):
        """Regression: the no-reorder clamp must be per priority band.

        A single shared ``_last_delivery`` clamp held CONTROL packets
        behind the jittered delivery time of an earlier BEST_EFFORT
        packet, delaying the out-of-band control channel by up to the
        full jitter bound.
        """

        class ScriptedJitter(JitterModel):
            def __init__(self, samples):
                self._samples = list(samples)

            def sample(self, rng):
                return self._samples.pop(0)

            def bound(self):
                return 0.5

        link = make_link(sim, jitter=ScriptedJitter([0.5, 0.0]))
        arrivals = {}
        link.on_deliver = lambda p: arrivals.setdefault(p.priority, sim.now)
        link.send(packet())  # best-effort, drawn 0.5 s of jitter
        link.send(packet(priority=Priority.CONTROL))  # no jitter
        sim.run()
        # tx 8 ms each at 1 Mbit/s, prop 10 ms: control is done at
        # 16 ms and must arrive at 26 ms, not be held to 518 ms.
        assert arrivals[Priority.CONTROL] == pytest.approx(0.026)
        assert arrivals[Priority.BEST_EFFORT] == pytest.approx(0.518)

    def test_jitter_never_reorders_within_band(self, sim):
        link = make_link(
            sim, jitter=UniformJitter(0.05), rng=random.Random(7)
        )
        order = []
        link.on_deliver = lambda p: order.append(
            (p.priority, p.packet_id)
        )
        sent = []
        for i in range(40):
            p = packet(
                priority=Priority.CONTROL if i % 3 == 0
                else Priority.BEST_EFFORT
            )
            sent.append(p)
            link.send(p)
        sim.run()
        for band in (Priority.CONTROL, Priority.BEST_EFFORT):
            got = [pid for prio, pid in order if prio == band]
            expected = [p.packet_id for p in sent if p.priority == band]
            assert got == expected

    def test_buffer_overflow_drops(self, sim):
        link = make_link(sim, buffer_bytes=2500)  # room for 2.5 packets
        delivered = []
        link.on_deliver = lambda p: delivered.append(p)
        for _ in range(10):
            link.send(packet(8000))  # 1000 bytes each
        sim.run()
        assert link.stats.buffer_drops == 8
        assert len(delivered) == 2

    def test_hops_incremented(self, sim):
        link = make_link(sim)
        seen = []
        link.on_deliver = lambda p: seen.append(p.hops)
        p = packet()
        link.send(p)
        sim.run()
        assert seen == [1]

    def test_invalid_parameters_rejected(self, sim):
        with pytest.raises(ValueError):
            make_link(sim, bandwidth_bps=0)
        with pytest.raises(ValueError):
            make_link(sim, prop_delay=-1)
        with pytest.raises(ValueError):
            make_link(sim, ber=1.5)


class TestImpairments:
    def test_bernoulli_loss_rate(self, sim):
        link = make_link(
            sim, loss=BernoulliLoss(0.3), rng=random.Random(7), prop_delay=0.0
        )
        delivered = []
        link.on_deliver = lambda p: delivered.append(p)
        n = 2000
        for _ in range(n):
            link.send(packet(80))
        sim.run()
        loss = link.stats.lost_packets / n
        assert 0.25 < loss < 0.35

    def test_ber_marks_corruption(self, sim):
        link = make_link(sim, ber=1e-4, rng=random.Random(3), prop_delay=0.0)
        corrupted = []
        link.on_deliver = lambda p: corrupted.append(p.corrupted)
        for _ in range(500):
            link.send(packet(8000))  # p_corrupt ~= 0.55
        sim.run()
        frac = sum(corrupted) / len(corrupted)
        assert 0.4 < frac < 0.7

    def test_gilbert_elliott_is_bursty(self, sim):
        loss_model = GilbertElliottLoss(0.02, 0.25, 0.0, 0.8)
        link = make_link(sim, loss=loss_model, rng=random.Random(11),
                         prop_delay=0.0)
        outcomes = []
        original = loss_model.is_lost

        def spy(rng):
            lost = original(rng)
            outcomes.append(lost)
            return lost

        loss_model.is_lost = spy
        for _ in range(5000):
            link.send(packet(80))
        sim.run()
        losses = sum(outcomes)
        assert losses > 0
        # Burstiness: probability of loss after loss far exceeds the
        # marginal loss rate.
        after_loss = [
            b for a, b in zip(outcomes, outcomes[1:]) if a
        ]
        marginal = losses / len(outcomes)
        conditional = sum(after_loss) / max(len(after_loss), 1)
        assert conditional > 2 * marginal

    def test_expected_loss_estimates(self):
        assert NoLoss().expected_loss() == 0.0
        assert BernoulliLoss(0.1).expected_loss() == pytest.approx(0.1)
        ge = GilbertElliottLoss(0.01, 0.99, 0.0, 0.5)
        assert 0.0 < ge.expected_loss() < 0.01

    def test_jitter_bounds(self):
        assert NoJitter().bound() == 0.0
        assert UniformJitter(0.05).bound() == pytest.approx(0.05)
        assert TruncatedGaussianJitter(0.01, 0.002).bound() == pytest.approx(
            0.018
        )

    def test_jitter_samples_within_bound(self, sim):
        rng = random.Random(5)
        for model in (
            UniformJitter(0.03),
            TruncatedGaussianJitter(0.01, 0.01),
        ):
            for _ in range(1000):
                sample = model.sample(rng)
                assert 0.0 <= sample <= model.bound()

    def test_loss_probability_validation(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.2)
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_bad=-0.1)
        with pytest.raises(ValueError):
            UniformJitter(-0.1)


class ScriptedLoss(LossModel):
    """Loses the packets whose draws are scripted True, then none."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def is_lost(self, rng):
        return self.outcomes.pop(0) if self.outcomes else False

    def expected_loss(self):
        return 0.0


def serialise_then_draw(sends, bandwidth, prop, loss_p, ber, max_jitter,
                        seed):
    """Reference link: each fate drawn at serialisation end, in order.

    ``sends`` is ``[(time, packet_id, bits, high)]`` in time order.  The
    wire serialises one packet at a time, strict priority between the
    bands and FIFO within one; a packet that finds the wire idle starts
    at once.  Returns ``{packet_id: (arrival, corrupted)}`` for the
    delivered packets and the lost and corrupted counts.
    """
    rng = random.Random(seed)
    delivered = {}
    lost = corrupted = 0
    last = {True: 0.0, False: 0.0}
    bands = {True: deque(), False: deque()}
    free_at = 0.0
    i = 0
    while i < len(sends) or bands[True] or bands[False]:
        if bands[True] or bands[False]:
            _, packet_id, bits, high = (bands[True] or bands[False]).popleft()
            start = free_at
        else:
            start, packet_id, bits, high = sends[i]
            i += 1
        free_at = start + bits / bandwidth
        while i < len(sends) and sends[i][0] < free_at:
            bands[sends[i][3]].append(sends[i])
            i += 1
        if rng.random() < loss_p:
            lost += 1
            continue
        bad = ber > 0.0 and rng.random() < 1.0 - (1.0 - ber) ** bits
        corrupted += bad
        arrival = free_at + prop + rng.uniform(0.0, max_jitter)
        arrival = last[high] = max(arrival, last[high])
        delivered[packet_id] = (arrival, bad)
    return delivered, lost, corrupted


class TestIdleWireCommit:
    """An idle wire decides a packet's whole fate at send time."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        loss_p=st.sampled_from([0.0, 0.1, 0.4]),
        ber=st.sampled_from([0.0, 2e-5]),
        max_jitter=st.sampled_from([0.0, 0.003, 0.02]),
        plan=st.lists(
            st.tuples(st.integers(0, 12_000), st.integers(1, 1500),
                      st.booleans()),
            min_size=1, max_size=40),
    )
    def test_fates_match_draws_at_serialisation_end(
            self, seed, loss_p, ber, max_jitter, plan):
        """Same arrivals, corruption and counters as drawing each fate
        at serialisation end, whether the wire was idle or busy.

        Gaps are whole microseconds plus half of one and serialisation
        spans whole microseconds, so no send ties a serialisation end.
        """
        sim = Simulator()
        link = Link(sim, "a", "b", 1e6, prop_delay=0.004,
                    loss=BernoulliLoss(loss_p), ber=ber,
                    jitter=UniformJitter(max_jitter),
                    buffer_bytes=10 ** 7, rng=random.Random(seed))
        got = {}
        link.on_deliver = lambda p: got.setdefault(
            p.packet_id, (sim.now, p.corrupted))
        sends = []
        when = 0.0
        for gap_us, size_bytes, high in plan:
            when += (gap_us + 0.5) * 1e-6
            p = packet(size_bytes * 8,
                       Priority.CONTROL if high else Priority.BEST_EFFORT)
            sends.append((when, p.packet_id, p.size_bits, high))
            sim.call_at(when, lambda p=p: link.send(p))
        sim.run()
        expected, lost, corrupted = serialise_then_draw(
            sends, 1e6, 0.004, loss_p, ber, max_jitter, seed)
        assert got == expected
        stats = link.stats
        assert stats.sent_packets == len(sends)
        assert stats.lost_packets == lost
        assert stats.corrupted_packets == corrupted
        assert stats.delivered_packets == len(sends) - lost
        assert stats.buffer_drops == 0

    def test_set_rate_stretches_a_dropped_packet_on_the_wire(self, sim):
        link = make_link(sim, loss=ScriptedLoss([True]))
        arrivals = []
        link.on_deliver = lambda p: arrivals.append(sim.now)
        link.send(packet(8000))          # idle wire: dropped at commit
        assert link.stats.lost_packets == 1
        sim.run(until=0.004)             # half of its 8 ms serialised
        link.set_rate(0.5e6)             # the rest takes 8 ms, not 4
        assert not link._propagating     # nothing armed, nothing moved
        sim.run(until=0.005)
        link.send(packet(8000))          # waits for the stretched end
        assert link.queued_bytes == 2000
        sim.run(until=0.0119)
        assert link.queued_bytes == 2000
        sim.run()
        # Starts at 12 ms, 16 ms at 0.5 Mbit/s, 10 ms propagation.
        assert arrivals == [pytest.approx(0.038)]
        assert link.stats.lost_packets == 1

    def test_faster_rate_never_pulls_a_clamped_arrival_ahead(self, sim):
        class ScriptedJitter(JitterModel):
            def __init__(self, samples):
                self._samples = list(samples)

            def sample(self, rng):
                return self._samples.pop(0)

            def bound(self):
                return 0.02

        link = make_link(sim, jitter=ScriptedJitter([0.02, 0.0]))
        order = []
        link.on_deliver = lambda p: order.append((p.packet_id, sim.now))
        first, second = packet(8000), packet(8000)
        link.send(first)                 # arrives 8 + 10 + 20 = 38 ms
        sim.run(until=0.009)
        link.send(second)                # 17 + 10 ms, clamped to 38 ms
        sim.run(until=0.010)
        link.set_rate(8e6)               # rest of it in 0.875 ms
        sim.run()
        assert [pid for pid, _ in order] == [first.packet_id,
                                             second.packet_id]
        assert order[1][1] == pytest.approx(0.038)
