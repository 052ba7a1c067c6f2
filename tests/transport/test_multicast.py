"""Tests for 1:N multicast CM connections (the section 3.8/7 extension)."""

import pytest

from repro.apps.testbed import Testbed
from repro.netsim.link import BernoulliLoss
from repro.transport.addresses import TransportAddress
from repro.transport.multicast import create_multicast
from repro.transport.osdu import OSDU
from repro.transport.primitives import TDisconnectIndication, TDisconnectRequest
from repro.transport.profiles import ClassOfService
from repro.transport.qos import QoSSpec
from repro.transport.service import ConnectionRefused


def star(n_sinks=3, bandwidth=10e6, loss=None, seed=61):
    bed = Testbed(seed=seed)
    bed.host("src")
    bed.router("r")
    bed.link("src", "r", bandwidth, prop_delay=0.002)
    for i in range(n_sinks):
        bed.host(f"sink{i}")
        bed.link("r", f"sink{i}", bandwidth, prop_delay=0.002, loss=loss)
    return bed.up()


def qos(throughput=2e6):
    return QoSSpec.simple(throughput, max_osdu_bytes=1000, per=0.5, ber=0.5)


class TestMulticastDelivery:
    def test_all_sinks_receive_everything_in_order(self):
        bed = star(3)
        group = create_multicast(
            bed.entities, TransportAddress("src", 1),
            [TransportAddress(f"sink{i}", 1) for i in range(3)],
            qos(),
        )
        received = {i: [] for i in range(3)}

        def producer():
            for i in range(40):
                yield from group.send_endpoint.write(
                    OSDU(size_bytes=500, payload=i)
                )

        def consumer(i):
            def proc():
                endpoint = group.recv_endpoints[f"sink{i}"]
                while True:
                    osdu = yield from endpoint.read()
                    received[i].append(osdu.payload)
            return proc

        bed.spawn(producer())
        for i in range(3):
            bed.spawn(consumer(i)())
        bed.run(30.0)
        for i in range(3):
            assert received[i] == list(range(40))

    def test_shared_tree_edge_carries_one_copy(self):
        """The src->router link must carry each OSDU once, not N times."""
        bed = star(4)
        group = create_multicast(
            bed.entities, TransportAddress("src", 1),
            [TransportAddress(f"sink{i}", 1) for i in range(4)],
            qos(),
        )
        uplink = bed.network.link_between("src", "r")
        before = uplink.stats.sent_packets

        def producer():
            for i in range(20):
                yield from group.send_endpoint.write(
                    OSDU(size_bytes=500, payload=i)
                )

        def consumers():
            for i in range(4):
                endpoint = group.recv_endpoints[f"sink{i}"]

                def consume(ep):
                    def proc():
                        while True:
                            yield from ep.read()
                    return proc

                bed.spawn(consume(endpoint)())
            if False:
                yield None

        bed.spawn(producer())
        bed.spawn(consumers())
        bed.run(20.0)
        data_packets = uplink.stats.sent_packets - before
        # 20 data packets + control; definitely not 80.
        assert data_packets < 40
        # Each downlink carried its own copy.
        for i in range(4):
            downlink = bed.network.link_between("r", f"sink{i}")
            assert downlink.stats.delivered_packets >= 20

    def test_reservation_covers_tree_once(self):
        bed = star(3)
        group = create_multicast(
            bed.entities, TransportAddress("src", 1),
            [TransportAddress(f"sink{i}", 1) for i in range(3)],
            qos(2e6),
        )
        # 4 unique tree edges (uplink + 3 downlinks).
        assert len(group.reservation.links) == 4
        uplink = bed.network.link_between("src", "r")
        assert bed.reservations.committed_bps(uplink) == pytest.approx(2e6)

    def test_admission_rejects_oversized_group_rate(self):
        bed = star(2, bandwidth=1e6)
        with pytest.raises(ConnectionRefused):
            create_multicast(
                bed.entities, TransportAddress("src", 1),
                [TransportAddress("sink0", 1), TransportAddress("sink1", 1)],
                QoSSpec.simple(5e6, slack=1.01, max_osdu_bytes=1000),
            )
        # Failed admission leaves nothing committed.
        uplink = bed.network.link_between("src", "r")
        assert bed.reservations.committed_bps(uplink) == 0.0


class TestMulticastFlowControl:
    def test_slowest_receiver_gates_the_group(self):
        bed = star(2)
        group = create_multicast(
            bed.entities, TransportAddress("src", 1),
            [TransportAddress("sink0", 1), TransportAddress("sink1", 1)],
            qos(),
        )
        # sink1 never consumes: its credits stop after the pipeline.
        consumed = []

        def producer():
            for i in range(100):
                yield from group.send_endpoint.write(
                    OSDU(size_bytes=500, payload=i)
                )

        def fast_consumer():
            endpoint = group.recv_endpoints["sink0"]
            while True:
                osdu = yield from endpoint.read()
                consumed.append(osdu.payload)

        bed.spawn(producer())
        bed.spawn(fast_consumer())
        bed.run(20.0)
        depth = group.send_endpoint.contract.buffer_osdus
        assert group.send_vc.sent_count <= 2 * depth
        assert len(consumed) <= 2 * depth

    def test_unicast_repair_on_lossy_branch(self):
        bed = star(2, loss=None, seed=67)
        # Make only sink1's branch lossy.
        lossy = bed.network.link_between("r", "sink1")
        lossy.loss = BernoulliLoss(0.15)
        group = create_multicast(
            bed.entities, TransportAddress("src", 1),
            [TransportAddress("sink0", 1), TransportAddress("sink1", 1)],
            qos(), cos=ClassOfService.detect_and_correct(),
        )
        received = {0: [], 1: []}

        def producer():
            for i in range(60):
                yield from group.send_endpoint.write(
                    OSDU(size_bytes=500, payload=i)
                )

        def consumer(i):
            def proc():
                endpoint = group.recv_endpoints[f"sink{i}"]
                while True:
                    osdu = yield from endpoint.read()
                    received[i].append(osdu.payload)
            return proc

        bed.spawn(producer())
        bed.spawn(consumer(0)())
        bed.spawn(consumer(1)())
        bed.run(40.0)
        assert received[0] == list(range(60))
        # The lossy branch recovered (possibly short of a lost tail).
        assert received[1] == list(range(len(received[1])))
        assert len(received[1]) >= 55
        assert group.send_vc.retransmit_count > 0
        # Repairs went unicast: sink0's clean downlink did not see them.
        clean = bed.network.link_between("r", "sink0")
        # 60 data copies + credits; retransmissions would add more than
        # this bound.
        assert clean.stats.delivered_packets <= 62 + 5

    def test_close_releases_everything(self):
        bed = star(2)
        group = create_multicast(
            bed.entities, TransportAddress("src", 1),
            [TransportAddress("sink0", 1), TransportAddress("sink1", 1)],
            qos(),
        )
        group.close(bed.entities)
        bed.run(0.5)
        assert group.vc_id not in bed.entities["src"].send_vcs
        for i in range(2):
            assert group.vc_id not in bed.entities[f"sink{i}"].recv_vcs
        uplink = bed.network.link_between("src", "r")
        assert bed.reservations.committed_bps(uplink) == 0.0


def primitives_at(bed, node, tsap=1):
    """Every indication/confirm queued for the user at ``node``."""
    queue = bed.entities[node].bindings[tsap].primitives
    return [queue.get_nowait() for _ in range(len(queue))]


class TestMulticastRelease:
    def group(self):
        bed = star(2)
        group = create_multicast(
            bed.entities, TransportAddress("src", 1),
            [TransportAddress("sink0", 1), TransportAddress("sink1", 1)],
            qos(),
        )
        return bed, group

    def assert_released_everywhere(self, bed, group):
        for entity in bed.entities.values():
            assert group.vc_id not in entity.send_vcs
            assert group.vc_id not in entity.recv_vcs
        uplink = bed.network.link_between("src", "r")
        assert bed.reservations.committed_bps(uplink) == 0.0

    def test_disconnect_at_source_releases_every_end(self):
        bed, group = self.group()
        src = TransportAddress("src", 1)
        bed.entities["src"].request(
            TDisconnectRequest(initiator=src, vc_id=group.vc_id)
        )
        bed.run(0.5)
        self.assert_released_everywhere(bed, group)
        for node in ("sink0", "sink1"):
            indications = primitives_at(bed, node)
            assert [type(p) for p in indications] == [TDisconnectIndication]
            assert indications[0].initiator == src

    def test_disconnect_at_one_sink_releases_every_end(self):
        bed, group = self.group()
        sink1 = TransportAddress("sink1", 1)
        bed.entities["sink1"].request(
            TDisconnectRequest(initiator=sink1, vc_id=group.vc_id)
        )
        bed.run(0.5)
        self.assert_released_everywhere(bed, group)
        # The source and the other sink hear of it; the asker does not.
        for node in ("src", "sink0"):
            indications = primitives_at(bed, node)
            assert [type(p) for p in indications] == [TDisconnectIndication]
            assert indications[0].initiator == sink1
        assert primitives_at(bed, "sink1") == []
