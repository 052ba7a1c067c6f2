"""Unit tests for SendVC/RecvVC internals: credits, drops, epochs."""

import pytest

from repro.netsim.reservation import ReservationManager
from repro.netsim.topology import Network
from repro.sim.random import RandomStreams
from repro.sim.scheduler import Timer
from repro.transport.addresses import TransportAddress
from repro.transport.multicast import create_multicast
from repro.transport.osdu import OSDU
from repro.transport.qos import QoSSpec
from repro.transport.profiles import ClassOfService, ProtocolProfile
from repro.transport.service import build_transport, connect_pair
from repro.transport.vc import RETRANSMIT_CACHE


def make(sim, buffer_osdus=8, throughput=2e6, **connect_kwargs):
    net = Network(sim, RandomStreams(55))
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", 10e6, prop_delay=0.004)
    entities = build_transport(sim, net, ReservationManager(net))
    qos = QoSSpec.simple(throughput, max_osdu_bytes=1000,
                         buffer_osdus=buffer_osdus)
    send, recv = connect_pair(
        sim, entities, TransportAddress("a", 1), TransportAddress("b", 1),
        qos, **connect_kwargs,
    )
    send_vc = entities["a"].send_vcs[send.vc_id]
    recv_vc = entities["b"].recv_vcs[recv.vc_id]
    return entities, send, recv, send_vc, recv_vc


def make_group(sim):
    """A 1:2 group from a to b and c, shaped like make(): b is the end
    under test, and c reads whatever reaches it."""
    net = Network(sim, RandomStreams(55))
    for node in "abc":
        net.add_host(node)
    net.add_link("a", "b", 10e6, prop_delay=0.004)
    net.add_link("a", "c", 10e6, prop_delay=0.004)
    entities = build_transport(sim, net, ReservationManager(net))
    qos = QoSSpec.simple(2e6, max_osdu_bytes=1000, buffer_osdus=8)
    group = create_multicast(
        entities, TransportAddress("a", 1),
        [TransportAddress("b", 1), TransportAddress("c", 1)], qos,
    )

    def drain():
        while True:
            yield from group.recv_endpoints["c"].read()

    sim.spawn(drain())
    recv_vc = entities["b"].recv_vcs[group.vc_id]
    return (entities, group.send_endpoint, group.recv_endpoints["b"],
            group.send_vc, recv_vc)


class TestCreditLoop:
    def test_sender_stops_at_pipeline_depth_when_sink_gated(self, sim):
        entities, send, recv, send_vc, recv_vc = make(sim)
        recv_vc.close_gate()

        def producer():
            for i in range(100):
                wrote = send.try_write(OSDU(size_bytes=500, payload=i))
                if not wrote:
                    yield Timer(sim).after(0.01)

        sim.spawn(producer())
        sim.run(until=sim.now + 5.0)
        # Exactly the pipeline depth was transmitted, then the credit
        # loop stalled the sender (section 6.2.1 semantics).
        assert send_vc.sent_count == 8
        assert recv_vc.buffer.full

    def test_credits_resume_flow_after_gate_opens(self, sim):
        entities, send, recv, send_vc, recv_vc = make(sim)
        recv_vc.close_gate()
        consumed = []

        def producer():
            for i in range(30):
                yield from send.write(OSDU(size_bytes=500, payload=i))

        def consumer():
            while True:
                osdu = yield from recv.read()
                consumed.append(osdu.seq)

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run(until=sim.now + 2.0)
        assert consumed == []
        recv_vc.open_gate()
        sim.run(until=sim.now + 5.0)
        assert consumed == list(range(30))

    def test_backpressure_time_recorded(self, sim):
        entities, send, recv, send_vc, recv_vc = make(sim)
        recv_vc.close_gate()
        # Discard the idle time accumulated while the connection sat
        # unused during set-up.
        send_vc.reset_blocking_stats()

        def producer():
            for i in range(20):
                yield from send.write(OSDU(size_bytes=500, payload=i))

        sim.spawn(producer())
        sim.run(until=sim.now + 3.0)
        assert send_vc.backpressure_time() > 1.0
        # Starvation-only protocol blocking is near zero: data was
        # always available.
        assert send_vc.blocked_time("protocol") < 0.5


class TestSourceDrops:
    def test_drop_notice_piggybacks_and_skips(self, sim):
        entities, send, recv, send_vc, recv_vc = make(sim)
        recv_vc.close_gate()  # stall the pipeline so units queue
        got = []

        def producer():
            for i in range(16):
                yield from send.write(OSDU(size_bytes=500, payload=i))

        sim.spawn(producer())
        sim.run(until=sim.now + 2.0)
        dropped = send_vc.drop_oldest_unsent()
        assert dropped is not None
        recv_vc.open_gate()

        def consumer():
            while True:
                osdu = yield from recv.read()
                got.append(osdu.seq)

        sim.spawn(consumer())
        sim.run(until=sim.now + 5.0)
        assert dropped not in got
        assert got == sorted(got)
        assert recv_vc.source_dropped_count == 1
        assert recv_vc.lost_count == 0

    def test_drop_on_empty_buffer_is_none(self, sim):
        entities, send, recv, send_vc, recv_vc = make(sim)
        sim.run(until=sim.now + 0.5)
        assert send_vc.drop_oldest_unsent() is None


class TestFlushEpoch:
    """Flush epochs on a unicast VC; :class:`TestGroupFlushEpoch` runs
    the same cases on a 1:2 group."""

    make = staticmethod(make)

    @pytest.fixture
    def ends(self, sim):
        return self.make(sim)

    def test_flush_announces_all_queued_seqs(self, sim, ends):
        entities, send, recv, send_vc, recv_vc = ends
        recv_vc.close_gate()

        def producer():
            for i in range(16):
                yield from send.write(OSDU(size_bytes=500, payload=i))

        sim.spawn(producer())
        sim.run(until=sim.now + 2.0)
        queued = len(send_vc.buffer)
        flushed = send_vc.flush()
        assert flushed == queued
        assert send_vc.buffer.dropped_at_source == 0  # administrative

    def test_blocked_write_across_flush_is_retracted(self, sim, ends):
        entities, send, recv, send_vc, recv_vc = ends
        recv_vc.close_gate()
        written = []
        delivered = []

        def producer():
            # More writes than pipeline + buffer: the last write blocks.
            for i in range(30):
                yield from send.write(OSDU(size_bytes=500, payload=i))
                written.append(i)

        sim.spawn(producer())
        sim.run(until=sim.now + 2.0)
        send_vc.flush()
        parked = len(written)  # the write blocked across the flush
        assert parked < 30
        recv_vc.flush()
        recv_vc.open_gate()

        def consumer():
            while True:
                osdu = yield from recv.read()
                delivered.append(osdu.payload)

        sim.spawn(consumer())
        sim.run(until=sim.now + 5.0)
        # The write parked across the flush is pre-seek data: it never
        # reaches the sink, and what follows it is contiguous new data.
        assert parked not in delivered
        assert parked + 1 in delivered
        assert delivered == sorted(delivered)

    def test_oversized_write_rejected_without_seq_leak(self, sim, ends):
        entities, send, recv, send_vc, recv_vc = ends
        with pytest.raises(ValueError):
            send.try_write(OSDU(size_bytes=5000))
        assert send.try_write(OSDU(size_bytes=100, payload="ok"))
        sim.run(until=sim.now + 1.0)
        got = recv.try_read()
        assert got is not None and got.seq == 0


class TestGroupFlushEpoch(TestFlushEpoch):
    make = staticmethod(make_group)


class TestRetransmitCache:
    def pump(self, sim, send, recv, count):
        def producer():
            for i in range(count):
                yield from send.write(OSDU(size_bytes=100, payload=i))

        def consumer():
            while True:
                yield from recv.read()

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run(until=sim.now + 30.0)

    def test_full_cache_evicts_the_oldest_seq(self, sim):
        _entities, send, recv, send_vc, _recv_vc = make(
            sim, cos=ClassOfService.detect_and_correct()
        )
        extra = 10
        self.pump(sim, send, recv, RETRANSMIT_CACHE + extra)
        assert send_vc.sent_count == RETRANSMIT_CACHE + extra
        # A rate-based VC sees no ACK: the cache stays full and the
        # oldest sequence numbers are the ones that went.
        assert list(send_vc._cache) == list(
            range(extra, RETRANSMIT_CACHE + extra)
        )
        # NACK repair reaches exactly the newest RETRANSMIT_CACHE units.
        send_vc.on_nack(list(range(RETRANSMIT_CACHE + extra)))
        assert send_vc.retransmit_count == RETRANSMIT_CACHE

    def test_ack_releases_the_acknowledged_prefix(self, sim):
        _entities, send, recv, send_vc, _recv_vc = make(
            sim, profile=ProtocolProfile.WINDOW_BASED
        )
        self.pump(sim, send, recv, 40)
        assert send_vc.sent_count == 40
        assert list(send_vc._cache) == []
        for seq in range(40, 50):
            send_vc._cache[seq] = object()
        send_vc.on_ack(45)
        assert list(send_vc._cache) == list(range(45, 50))
