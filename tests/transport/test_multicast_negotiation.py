"""Multicast admission/negotiation edge cases."""

import pytest

from repro.apps.testbed import Testbed
from repro.netsim.link import UniformJitter
from repro.transport.addresses import TransportAddress
from repro.transport.multicast import create_multicast
from repro.transport.qos import QoSSpec, Tolerance, delay, throughput
from repro.transport.service import ConnectionRefused


def asymmetric_bed():
    """sink0 is near and clean; sink1 is far and jittery."""
    bed = Testbed(seed=79)
    bed.host("src")
    bed.router("r")
    bed.host("sink0")
    bed.host("sink1")
    bed.link("src", "r", 10e6, prop_delay=0.002)
    bed.link("r", "sink0", 10e6, prop_delay=0.002)
    bed.link("r", "sink1", 10e6, prop_delay=0.030,
             jitter=UniformJitter(0.01))
    return bed.up()


class TestMulticastNegotiation:
    def test_contract_reflects_worst_branch(self):
        bed = asymmetric_bed()
        qos = QoSSpec.simple(2e6, delay_s=0.2, jitter_s=0.05,
                             max_osdu_bytes=1000, per=0.5, ber=0.5)
        group = create_multicast(
            bed.entities, TransportAddress("src", 1),
            [TransportAddress("sink0", 1), TransportAddress("sink1", 1)],
            qos,
        )
        contract = group.send_endpoint.contract
        # The far branch's propagation dominates the agreed delay.
        assert contract.delay_s > 0.030
        assert contract.jitter_s >= 0.01

    def test_rejected_when_worst_branch_unacceptable(self):
        bed = asymmetric_bed()
        strict = QoSSpec(
            throughput=throughput(2e6, 1e6),
            delay=delay(0.005, 0.010),  # impossible via the 30 ms branch
            jitter=Tolerance(0.0, 1.0),
            packet_error_rate=Tolerance(0.0, 1.0),
            bit_error_rate=Tolerance(0.0, 1.0),
            max_osdu_bytes=1000,
        )
        with pytest.raises(ConnectionRefused):
            create_multicast(
                bed.entities, TransportAddress("src", 1),
                [TransportAddress("sink0", 1), TransportAddress("sink1", 1)],
                strict,
            )
        # Nothing stays reserved after the refusal.
        uplink = bed.network.link_between("src", "r")
        assert bed.reservations.committed_bps(uplink) == 0.0

    def test_acceptable_only_via_near_branch_still_rejected(self):
        """Every receiver must be servable: one bad branch kills the
        group rather than silently degrading it."""
        bed = asymmetric_bed()
        strict = QoSSpec(
            throughput=throughput(2e6, 1e6),
            delay=delay(0.005, 0.020),  # fine for sink0, not for sink1
            jitter=Tolerance(0.0, 1.0),
            packet_error_rate=Tolerance(0.0, 1.0),
            bit_error_rate=Tolerance(0.0, 1.0),
            max_osdu_bytes=1000,
        )
        # Unicast to the near sink would be accepted...
        from repro.transport.service import connect_pair

        send, _recv = connect_pair(
            bed.sim, bed.entities, TransportAddress("src", 5),
            TransportAddress("sink0", 5), strict,
        )
        assert send is not None
        # ...but the group including the far sink is refused.
        with pytest.raises(ConnectionRefused):
            create_multicast(
                bed.entities, TransportAddress("src", 1),
                [TransportAddress("sink0", 1), TransportAddress("sink1", 1)],
                strict,
            )

    def test_group_offer_is_the_worst_unicast_offer(self):
        """The group is offered what a unicast VC to its worst sink is
        offered, so a delay bound that sink misses refuses the group."""
        from repro.transport.service import connect_pair

        def spec(delay_bound):
            return QoSSpec(
                throughput=throughput(2e6, 1e6),
                delay=delay(0.0, delay_bound),
                jitter=Tolerance(0.0, 1.0),
                packet_error_rate=Tolerance(0.0, 1.0),
                bit_error_rate=Tolerance(0.0, 1.0),
                max_osdu_bytes=1000,
            )

        bed = asymmetric_bed()
        sinks = [TransportAddress("sink0", 1), TransportAddress("sink1", 1)]
        far, _recv = connect_pair(
            bed.sim, bed.entities, TransportAddress("src", 5),
            TransportAddress("sink1", 5), spec(1.0),
        )
        group = create_multicast(
            bed.entities, TransportAddress("src", 1), sinks, spec(1.0),
        )
        assert group.send_endpoint.contract == far.contract
        with pytest.raises(ConnectionRefused):
            create_multicast(
                bed.entities, TransportAddress("src", 2), sinks,
                spec(far.contract.delay_s * (1 - 1e-4)),
            )

    def test_empty_sink_list_rejected(self):
        bed = asymmetric_bed()
        with pytest.raises((ValueError, ConnectionRefused)):
            create_multicast(
                bed.entities, TransportAddress("src", 1), [],
                QoSSpec.simple(1e6, max_osdu_bytes=1000),
            )
