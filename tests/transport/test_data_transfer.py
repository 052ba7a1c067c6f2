"""End-to-end data transfer over established VCs."""

import pytest

from repro.netsim.link import BernoulliLoss
from repro.netsim.reservation import ReservationManager
from repro.netsim.topology import Network
from repro.sim.random import RandomStreams
from repro.sim.scheduler import Timer
from repro.transport.addresses import TransportAddress
from repro.transport.osdu import OPDU, OSDU
from repro.transport.profiles import ClassOfService, ProtocolProfile
from repro.transport.qos import QoSSpec
from repro.transport.service import build_transport, connect_pair


def make_pair(sim, profile=ProtocolProfile.CM_RATE_BASED, cos=None,
              loss=None, ber=0.0, bandwidth=10e6, qos=None,
              gap_timeout=0.05):
    net = Network(sim, RandomStreams(11))
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", bandwidth, prop_delay=0.003, loss=loss, ber=ber)
    entities = build_transport(
        sim, net, ReservationManager(net), gap_timeout=gap_timeout
    )
    qos = qos or QoSSpec.simple(2e6, max_osdu_bytes=1500, per=0.5, ber=0.5)
    send, recv = connect_pair(
        sim, entities, TransportAddress("a", 1), TransportAddress("b", 1),
        qos, profile=profile, cos=cos,
    )
    return net, entities, send, recv


def pump(sim, send, recv, count, size=1000, window=30.0):
    received = []

    def producer():
        for i in range(count):
            yield from send.write(OSDU(size_bytes=size, payload=i))

    def consumer():
        for _ in range(count):
            received.append((yield from recv.read()))

    sim.spawn(producer())
    proc = sim.spawn(consumer())
    sim.run(until=sim.now + window)
    return received, proc.finished.is_set


class TestRateBasedTransfer:
    def test_all_osdus_delivered_in_order(self, sim):
        _net, _e, send, recv = make_pair(sim)
        received, done = pump(sim, send, recv, 50)
        assert done
        assert [o.seq for o in received] == list(range(50))
        assert [o.payload for o in received] == list(range(50))

    def test_osdu_boundaries_preserved_for_variable_sizes(self, sim):
        _net, _e, send, recv = make_pair(sim)
        sizes = [100, 1500, 7, 900, 1, 1499]
        received = []

        def producer():
            for i, size in enumerate(sizes):
                yield from send.write(OSDU(size_bytes=size, payload=i))

        def consumer():
            for _ in sizes:
                received.append((yield from recv.read()))

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run(until=30.0)
        assert [o.size_bytes for o in received] == sizes

    def test_oversized_osdu_rejected(self, sim):
        _net, _e, send, _recv = make_pair(sim)
        with pytest.raises(ValueError):
            send.try_write(OSDU(size_bytes=10_000))

    def test_delivery_rate_respects_contract(self, sim):
        _net, _e, send, recv = make_pair(sim)
        arrivals = []

        def producer():
            for i in range(40):
                yield from send.write(OSDU(size_bytes=1000, payload=i))

        def consumer():
            for _ in range(40):
                yield from recv.read()
                arrivals.append(sim.now)

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run(until=30.0)
        # 2 Mbit/s contract, (1000+40)B per unit: >= ~4.1 ms spacing,
        # minus the initial pipeline burst of buffer_osdus units.
        steady = arrivals[16:]
        gaps = [b - a for a, b in zip(steady, steady[1:])]
        assert min(gaps) >= 0.004

    def test_application_event_field_survives_transfer(self, sim):
        _net, _e, send, recv = make_pair(sim)
        received = []

        def producer():
            marked = OSDU(size_bytes=10, payload="marked",
                          opdu=OPDU(0, event=0xBEEF))
            yield from send.write(marked)
            yield from send.write(OSDU(size_bytes=10, payload="plain"))

        def consumer():
            for _ in range(2):
                received.append((yield from recv.read()))

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run(until=10.0)
        assert received[0].event == 0xBEEF
        assert received[1].event is None


class TestLossRecovery:
    def test_correction_recovers_losses(self, sim):
        cos = ClassOfService.detect_and_correct()
        _net, entities, send, recv = make_pair(
            sim, cos=cos, loss=BernoulliLoss(0.1)
        )
        received, done = pump(sim, send, recv, 100)
        assert done
        assert [o.seq for o in received] == list(range(100))
        assert entities["a"].send_vcs[send.vc_id].retransmit_count > 0

    def test_detection_without_correction_skips_losses(self, sim):
        cos = ClassOfService.detect_and_indicate()
        _net, entities, send, recv = make_pair(
            sim, cos=cos, loss=BernoulliLoss(0.1)
        )
        received = []

        def producer():
            for i in range(200):
                yield from send.write(OSDU(size_bytes=500, payload=i))

        def consumer():
            while True:
                received.append((yield from recv.read()))

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run(until=30.0)
        seqs = [o.seq for o in received]
        assert seqs == sorted(seqs)  # order preserved
        assert 100 < len(seqs) < 200  # losses skipped, not recovered
        recv_vc = entities["b"].recv_vcs[recv.vc_id]
        assert recv_vc.lost_count == 200 - len(seqs)

    def test_corrupted_packets_discarded_with_detection(self, sim):
        cos = ClassOfService.detect_and_indicate()
        _net, entities, send, recv = make_pair(sim, cos=cos, ber=2e-5)
        received = []

        def producer():
            for i in range(100):
                yield from send.write(OSDU(size_bytes=1000, payload=i))

        def consumer():
            while True:
                received.append((yield from recv.read()))

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run(until=30.0)
        recv_vc = entities["b"].recv_vcs[recv.vc_id]
        assert recv_vc.corrupted_discards > 0
        assert len(received) == 100 - recv_vc.corrupted_discards

    def test_correction_recovers_corruption_too(self, sim):
        cos = ClassOfService.detect_and_correct()
        _net, _e, send, recv = make_pair(sim, cos=cos, ber=2e-5)
        received, done = pump(sim, send, recv, 100)
        assert done
        assert len(received) == 100


class TestWindowProfile:
    def test_window_transfer_delivers_everything(self, sim):
        _net, _e, send, recv = make_pair(
            sim, profile=ProtocolProfile.WINDOW_BASED
        )
        received, done = pump(sim, send, recv, 80)
        assert done
        assert [o.seq for o in received] == list(range(80))

    def test_window_recovers_from_loss_by_go_back_n(self, sim):
        _net, entities, send, recv = make_pair(
            sim,
            profile=ProtocolProfile.WINDOW_BASED,
            loss=BernoulliLoss(0.05),
        )
        received, done = pump(sim, send, recv, 100, window=60.0)
        assert done
        assert [o.seq for o in received] == list(range(100))
        assert entities["a"].send_vcs[send.vc_id].retransmit_count > 0


class TestBlockingStats:
    def test_source_app_blocks_when_protocol_is_slower(self, sim):
        # 0.2 Mbit/s contract: writing 30 KB blocks the producer.
        qos = QoSSpec.simple(0.2e6, max_osdu_bytes=1500, per=1.0, ber=1.0)
        _net, entities, send, recv = make_pair(sim, qos=qos)
        received, _done = pump(sim, send, recv, 60, size=1000, window=10.0)
        send_vc = entities["a"].send_vcs[send.vc_id]
        assert send_vc.blocked_time("application") > 1.0

    def test_sink_app_blocks_when_starved(self, sim):
        _net, entities, send, recv = make_pair(sim)
        received = []

        def slow_producer():
            for i in range(3):
                yield Timer(sim).after(1.0)
                yield from send.write(OSDU(size_bytes=100, payload=i))

        def consumer():
            for _ in range(3):
                received.append((yield from recv.read()))

        sim.spawn(slow_producer())
        sim.spawn(consumer())
        sim.run(until=10.0)
        recv_vc = entities["b"].recv_vcs[recv.vc_id]
        assert recv_vc.blocked_time("application") > 2.0
