"""Conventional connection establishment and release (Table 1)."""

import pytest

from repro.sim.scheduler import Timer
from repro.transport.primitives import (
    REASON_NO_SUCH_TSAP,
    REASON_QOS_UNACCEPTABLE,
    REASON_REJECTED_BY_DESTINATION,
    REASON_REJECTED_BY_NETWORK,
    TConnectConfirm,
    TConnectIndication,
    TConnectResponse,
    TDisconnectIndication,
    TDisconnectRequest,
    TRenegotiateIndication,
    TRenegotiateResponse,
)
from repro.transport.profiles import ClassOfService, Guarantee
from repro.transport.qos import QoSSpec, Tolerance, delay, throughput


def accept_all(stack, node, tsap):
    """Bind tsap on node and auto-accept incoming connects.

    Non-connect primitives are collected in ``binding.inbox`` for the
    tests to inspect.
    """
    entity = stack.entity(node)
    binding = entity.bind(tsap)
    binding.inbox = []

    def acceptor():
        while True:
            primitive = yield binding.next_primitive()
            if isinstance(primitive, TConnectIndication):
                entity.request(
                    TConnectResponse(
                        initiator=primitive.initiator, src=primitive.src,
                        dst=primitive.dst, protocol=primitive.protocol,
                        class_of_service=primitive.class_of_service,
                        qos=primitive.qos, vc_id=primitive.vc_id,
                    )
                )
            elif isinstance(primitive, TRenegotiateIndication):
                entity.request(
                    TRenegotiateResponse(
                        initiator=primitive.initiator, src=primitive.src,
                        dst=primitive.dst, new_qos=primitive.new_qos,
                        vc_id=primitive.vc_id,
                    )
                )
            else:
                binding.inbox.append(primitive)

    stack.sim.spawn(acceptor())
    return binding


def issue_connect(stack, binding, request):
    stack.entity(request.initiator.node).request(request)
    outcome = {}

    def waiter():
        while True:
            primitive = yield binding.next_primitive()
            if isinstance(primitive, (TConnectConfirm, TDisconnectIndication)):
                if primitive.vc_id == request.vc_id:
                    outcome["primitive"] = primitive
                    return

    stack.sim.spawn(waiter())
    stack.sim.run(until=stack.sim.now + 10.0)
    return outcome.get("primitive")


class TestConventionalConnect:
    def test_successful_connect_delivers_confirm_with_contract(self, stack):
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        binding = stack.entity("alpha").bind(1)
        accept_all(stack, "beta", 1)
        request = stack.connect_request(src, src, dst)
        confirm = issue_connect(stack, binding, request)
        assert isinstance(confirm, TConnectConfirm)
        assert confirm.contract is not None
        assert confirm.contract.throughput_bps == pytest.approx(1e6)
        assert request.vc_id in stack.entity("alpha").send_vcs
        assert request.vc_id in stack.entity("beta").recv_vcs

    def test_endpoints_registered_on_bindings(self, stack):
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        binding = stack.entity("alpha").bind(1)
        dst_binding = accept_all(stack, "beta", 1)
        request = stack.connect_request(src, src, dst)
        issue_connect(stack, binding, request)
        assert binding.endpoints[request.vc_id].kind == "send"
        assert dst_binding.endpoints[request.vc_id].kind == "recv"

    def test_connect_to_unbound_tsap_rejected(self, stack):
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 99)
        binding = stack.entity("alpha").bind(1)
        request = stack.connect_request(src, src, dst)
        outcome = issue_connect(stack, binding, request)
        assert isinstance(outcome, TDisconnectIndication)
        assert outcome.reason == REASON_NO_SUCH_TSAP

    def test_destination_can_refuse(self, stack):
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        binding = stack.entity("alpha").bind(1)
        entity_b = stack.entity("beta")
        b_binding = entity_b.bind(1)

        def refuser():
            while True:
                primitive = yield b_binding.next_primitive()
                if isinstance(primitive, TConnectIndication):
                    entity_b.request(
                        TDisconnectRequest(
                            initiator=primitive.initiator,
                            vc_id=primitive.vc_id,
                        )
                    )

        stack.sim.spawn(refuser())
        request = stack.connect_request(src, src, dst)
        outcome = issue_connect(stack, binding, request)
        assert isinstance(outcome, TDisconnectIndication)
        assert outcome.reason == REASON_REJECTED_BY_DESTINATION

    def test_late_acceptance_leaves_no_half_open_vc(self, stack):
        """The sink's user accepts after the source has spent its CR
        retries and told its user the call failed: the source answers
        the CC with a release, so the sink does not hold the VC."""
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        binding = stack.entity("alpha").bind(1)
        entity_b = stack.entity("beta")
        b_binding = entity_b.bind(1)
        b_got = []

        def late_acceptor():
            while True:
                primitive = yield b_binding.next_primitive()
                b_got.append(primitive)
                if isinstance(primitive, TConnectIndication):
                    yield Timer(stack.sim).after(4.0)
                    entity_b.request(
                        TConnectResponse(
                            initiator=primitive.initiator, src=primitive.src,
                            dst=primitive.dst, protocol=primitive.protocol,
                            class_of_service=primitive.class_of_service,
                            qos=primitive.qos, vc_id=primitive.vc_id,
                        )
                    )

        stack.sim.spawn(late_acceptor())
        request = stack.connect_request(src, src, dst)
        outcome = issue_connect(stack, binding, request)
        assert isinstance(outcome, TDisconnectIndication)
        assert outcome.reason == REASON_REJECTED_BY_NETWORK
        assert request.vc_id not in stack.entity("alpha").send_vcs
        assert request.vc_id not in entity_b.recv_vcs
        assert entity_b.endpoint_for(request.vc_id) is None
        assert [
            p.reason for p in b_got if isinstance(p, TDisconnectIndication)
        ] == [REASON_REJECTED_BY_NETWORK]

    def test_admission_control_rejects_excess_throughput(self, stack):
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        binding = stack.entity("alpha").bind(1)
        accept_all(stack, "beta", 1)
        # The 10 Mbit/s link reserves at most 9 Mbit/s.
        qos = QoSSpec.simple(20e6, slack=1.2, max_osdu_bytes=1000)
        request = stack.connect_request(src, src, dst, qos=qos)
        outcome = issue_connect(stack, binding, request)
        assert isinstance(outcome, TDisconnectIndication)
        assert outcome.reason == REASON_REJECTED_BY_NETWORK

    def test_negotiation_clamps_to_available_bandwidth(self, stack):
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        binding = stack.entity("alpha").bind(1)
        accept_all(stack, "beta", 1)
        # Ask for 20 Mbit/s preferred but accept down to 2: the network
        # offers its reservable 9 Mbit/s.
        qos = QoSSpec(
            throughput=throughput(20e6, 2e6),
            delay=delay(0.1, 0.5),
            jitter=Tolerance(0.0, 1.0),
            packet_error_rate=Tolerance(0.0, 1.0),
            bit_error_rate=Tolerance(0.0, 1.0),
            max_osdu_bytes=1000,
        )
        request = stack.connect_request(src, src, dst, qos=qos)
        confirm = issue_connect(stack, binding, request)
        assert isinstance(confirm, TConnectConfirm)
        assert confirm.contract.throughput_bps == pytest.approx(9e6)

    def test_best_effort_skips_reservation(self, stack):
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        binding = stack.entity("alpha").bind(1)
        accept_all(stack, "beta", 1)
        cos = ClassOfService(
            error_detection=True, error_indication=True,
            guarantee=Guarantee.BEST_EFFORT,
        )
        request = stack.connect_request(src, src, dst, cos=cos)
        confirm = issue_connect(stack, binding, request)
        assert isinstance(confirm, TConnectConfirm)
        assert stack.reservations.admitted_count == 0

    def test_reservation_capacity_shared_between_connects(self, stack):
        src = stack.addr("alpha", 1)
        binding = stack.entity("alpha").bind(1)
        accept_all(stack, "beta", 1)
        accept_all(stack, "beta", 2)
        qos = QoSSpec.simple(6e6, slack=1.0, max_osdu_bytes=1000)
        first = stack.connect_request(src, src, stack.addr("beta", 1), qos=qos)
        assert isinstance(issue_connect(stack, binding, first), TConnectConfirm)
        second = stack.connect_request(src, src, stack.addr("beta", 2), qos=qos)
        outcome = issue_connect(stack, binding, second)
        assert isinstance(outcome, TDisconnectIndication)
        assert outcome.reason == REASON_REJECTED_BY_NETWORK

    def test_qos_tightening_by_destination_can_reject(self, stack):
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        binding = stack.entity("alpha").bind(1)
        entity_b = stack.entity("beta")
        b_binding = entity_b.bind(1)

        def tightener():
            while True:
                primitive = yield b_binding.next_primitive()
                if isinstance(primitive, TConnectIndication):
                    # Demand an impossible delay bound.
                    strict = QoSSpec(
                        throughput=primitive.qos.throughput,
                        delay=delay(1e-9, 1e-8),
                        jitter=primitive.qos.jitter,
                        packet_error_rate=primitive.qos.packet_error_rate,
                        bit_error_rate=primitive.qos.bit_error_rate,
                        max_osdu_bytes=primitive.qos.max_osdu_bytes,
                    )
                    entity_b.request(
                        TConnectResponse(
                            initiator=primitive.initiator, src=primitive.src,
                            dst=primitive.dst, protocol=primitive.protocol,
                            class_of_service=primitive.class_of_service,
                            qos=strict, vc_id=primitive.vc_id,
                        )
                    )

        stack.sim.spawn(tightener())
        request = stack.connect_request(src, src, dst)
        outcome = issue_connect(stack, binding, request)
        assert isinstance(outcome, TDisconnectIndication)
        assert outcome.reason == REASON_QOS_UNACCEPTABLE


class TestRelease:
    def _connect(self, stack):
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        binding = stack.entity("alpha").bind(1)
        dst_binding = accept_all(stack, "beta", 1)
        request = stack.connect_request(src, src, dst)
        confirm = issue_connect(stack, binding, request)
        assert isinstance(confirm, TConnectConfirm)
        return binding, dst_binding, request

    def test_source_release_tears_down_both_ends(self, stack):
        binding, dst_binding, request = self._connect(stack)
        stack.entity("alpha").request(
            TDisconnectRequest(initiator=binding.address, vc_id=request.vc_id)
        )
        stack.sim.run(until=stack.sim.now + 1.0)
        assert request.vc_id not in stack.entity("alpha").send_vcs
        assert request.vc_id not in stack.entity("beta").recv_vcs

    def test_peer_receives_disconnect_indication(self, stack):
        binding, dst_binding, request = self._connect(stack)
        stack.entity("alpha").request(
            TDisconnectRequest(initiator=binding.address, vc_id=request.vc_id)
        )
        stack.sim.run(until=stack.sim.now + 1.0)
        got = dst_binding.inbox
        assert got and isinstance(got[0], TDisconnectIndication)
        assert got[0].vc_id == request.vc_id

    def test_release_returns_reserved_bandwidth(self, stack):
        binding, _dst, request = self._connect(stack)
        committed_before = stack.reservations.route_available_bps(
            "alpha", "beta"
        )
        stack.entity("alpha").request(
            TDisconnectRequest(initiator=binding.address, vc_id=request.vc_id)
        )
        stack.sim.run(until=stack.sim.now + 1.0)
        assert stack.reservations.route_available_bps("alpha", "beta") > (
            committed_before
        )

    def test_sink_side_release_also_works(self, stack):
        binding, dst_binding, request = self._connect(stack)
        stack.entity("beta").request(
            TDisconnectRequest(
                initiator=dst_binding.address, vc_id=request.vc_id
            )
        )
        stack.sim.run(until=stack.sim.now + 1.0)
        assert request.vc_id not in stack.entity("alpha").send_vcs
        assert request.vc_id not in stack.entity("beta").recv_vcs
