"""QoS renegotiation (Table 3, section 4.1.3)."""

import pytest

from repro.transport.primitives import (
    REASON_QOS_UNACCEPTABLE,
    REASON_RENEGOTIATION_REFUSED,
    TConnectConfirm,
    TDisconnectIndication,
    TDisconnectRequest,
    TRenegotiateConfirm,
    TRenegotiateIndication,
    TRenegotiateRequest,
    TRenegotiateResponse,
)
from repro.transport.qos import QoSSpec

from tests.transport.test_connect import accept_all, issue_connect


def connect(stack, throughput_bps=1e6):
    src = stack.addr("alpha", 1)
    dst = stack.addr("beta", 1)
    binding = stack.entity("alpha").bind(1)
    dst_binding = accept_all(stack, "beta", 1)
    qos = QoSSpec.simple(throughput_bps, max_osdu_bytes=1000)
    request = stack.connect_request(src, src, dst, qos=qos)
    confirm = issue_connect(stack, binding, request)
    assert isinstance(confirm, TConnectConfirm)
    return binding, dst_binding, request, confirm.contract


def accept_renegotiations(stack, node, binding):
    entity = stack.entity(node)

    def responder():
        while True:
            primitive = yield binding.next_primitive()
            if isinstance(primitive, TRenegotiateIndication):
                entity.request(
                    TRenegotiateResponse(
                        initiator=primitive.initiator, src=primitive.src,
                        dst=primitive.dst, new_qos=primitive.new_qos,
                        vc_id=primitive.vc_id,
                    )
                )

    stack.sim.spawn(responder())


def issue_renegotiate(stack, binding, request):
    stack.entity(request.initiator.node).request(request)
    outcome = {}

    def waiter():
        while True:
            primitive = yield binding.next_primitive()
            if isinstance(
                primitive, (TRenegotiateConfirm, TDisconnectIndication)
            ) and primitive.vc_id == request.vc_id:
                outcome["primitive"] = primitive
                return

    stack.sim.spawn(waiter())
    stack.sim.run(until=stack.sim.now + 10.0)
    return outcome.get("primitive")


class TestRenegotiation:
    def test_upgrade_within_headroom(self, stack):
        binding, dst_binding, request, contract = connect(stack, 1e6)
        accept_renegotiations(stack, "beta", dst_binding)
        reneg = TRenegotiateRequest(
            initiator=request.src, src=request.src, dst=request.dst,
            new_qos=QoSSpec.simple(4e6, max_osdu_bytes=1000),
            vc_id=request.vc_id,
        )
        confirm = issue_renegotiate(stack, binding, reneg)
        assert isinstance(confirm, TRenegotiateConfirm)
        assert confirm.contract.throughput_bps == pytest.approx(4e6)
        send_vc = stack.entity("alpha").send_vcs[request.vc_id]
        assert send_vc.contract.throughput_bps == pytest.approx(4e6)
        assert send_vc.flow.rate_bps == pytest.approx(4e6)

    def test_downgrade_releases_bandwidth(self, stack):
        binding, dst_binding, request, _contract = connect(stack, 4e6)
        accept_renegotiations(stack, "beta", dst_binding)
        before = stack.reservations.route_available_bps("alpha", "beta")
        reneg = TRenegotiateRequest(
            initiator=request.src, src=request.src, dst=request.dst,
            new_qos=QoSSpec.simple(1e6, max_osdu_bytes=1000),
            vc_id=request.vc_id,
        )
        confirm = issue_renegotiate(stack, binding, reneg)
        assert isinstance(confirm, TRenegotiateConfirm)
        after = stack.reservations.route_available_bps("alpha", "beta")
        assert after == pytest.approx(before + 3e6)

    def test_impossible_upgrade_refused_but_vc_survives(self, stack):
        binding, dst_binding, request, contract = connect(stack, 1e6)
        accept_renegotiations(stack, "beta", dst_binding)
        reneg = TRenegotiateRequest(
            initiator=request.src, src=request.src, dst=request.dst,
            new_qos=QoSSpec.simple(50e6, slack=1.1, max_osdu_bytes=1000),
            vc_id=request.vc_id,
        )
        outcome = issue_renegotiate(stack, binding, reneg)
        assert isinstance(outcome, TDisconnectIndication)
        assert outcome.reason == REASON_RENEGOTIATION_REFUSED
        # "The existing VC is not torn down" (section 4.1.3).
        assert request.vc_id in stack.entity("alpha").send_vcs
        assert request.vc_id in stack.entity("beta").recv_vcs
        send_vc = stack.entity("alpha").send_vcs[request.vc_id]
        assert send_vc.contract.throughput_bps == pytest.approx(
            contract.throughput_bps
        )

    def test_destination_refusal_keeps_vc(self, stack):
        # Build the connection with a destination that accepts connects
        # but refuses any renegotiation.
        from repro.transport.primitives import (
            TConnectIndication,
            TConnectResponse,
        )

        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        binding = stack.entity("alpha").bind(1)
        entity_b = stack.entity("beta")
        dst_binding = entity_b.bind(1)

        def accept_connect_refuse_reneg():
            while True:
                primitive = yield dst_binding.next_primitive()
                if isinstance(primitive, TConnectIndication):
                    entity_b.request(
                        TConnectResponse(
                            initiator=primitive.initiator, src=primitive.src,
                            dst=primitive.dst, protocol=primitive.protocol,
                            class_of_service=primitive.class_of_service,
                            qos=primitive.qos, vc_id=primitive.vc_id,
                        )
                    )
                elif isinstance(primitive, TRenegotiateIndication):
                    entity_b.request(
                        TDisconnectRequest(
                            initiator=primitive.initiator,
                            vc_id=primitive.vc_id,
                        )
                    )

        stack.sim.spawn(accept_connect_refuse_reneg())
        request = stack.connect_request(
            src, src, dst, qos=QoSSpec.simple(1e6, max_osdu_bytes=1000)
        )
        confirm = issue_connect(stack, binding, request)
        assert isinstance(confirm, TConnectConfirm)
        reneg = TRenegotiateRequest(
            initiator=request.src, src=request.src, dst=request.dst,
            new_qos=QoSSpec.simple(2e6, max_osdu_bytes=1000),
            vc_id=request.vc_id,
        )
        outcome = issue_renegotiate(stack, binding, reneg)
        assert isinstance(outcome, TDisconnectIndication)
        assert outcome.reason == REASON_RENEGOTIATION_REFUSED
        assert request.vc_id in stack.entity("alpha").send_vcs

    def test_unmeetable_sink_tightening_is_indicated_at_both_ends(self, stack):
        """A sink whose tightened response the offer cannot meet gets a
        T-Disconnect.indication, as for a connect; the VC stays up."""
        from repro.transport.primitives import (
            TConnectIndication,
            TConnectResponse,
        )

        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        binding = stack.entity("alpha").bind(1)
        entity_b = stack.entity("beta")
        dst_binding = entity_b.bind(1)
        sink_got = []

        def tightening_sink():
            while True:
                primitive = yield dst_binding.next_primitive()
                sink_got.append(primitive)
                if isinstance(primitive, TConnectIndication):
                    entity_b.request(
                        TConnectResponse(
                            initiator=primitive.initiator, src=primitive.src,
                            dst=primitive.dst, protocol=primitive.protocol,
                            class_of_service=primitive.class_of_service,
                            qos=primitive.qos, vc_id=primitive.vc_id,
                        )
                    )
                elif isinstance(primitive, TRenegotiateIndication):
                    entity_b.request(
                        TRenegotiateResponse(
                            initiator=primitive.initiator, src=primitive.src,
                            dst=primitive.dst, vc_id=primitive.vc_id,
                            new_qos=QoSSpec.simple(
                                50e6, slack=1.1, max_osdu_bytes=1000
                            ),
                        )
                    )

        stack.sim.spawn(tightening_sink())
        request = stack.connect_request(src, src, dst)
        confirm = issue_connect(stack, binding, request)
        assert isinstance(confirm, TConnectConfirm)
        reneg = TRenegotiateRequest(
            initiator=src, src=src, dst=dst,
            new_qos=QoSSpec.simple(2e6, max_osdu_bytes=1000),
            vc_id=request.vc_id,
        )
        outcome = issue_renegotiate(stack, binding, reneg)
        assert isinstance(outcome, TDisconnectIndication)
        assert outcome.reason == REASON_QOS_UNACCEPTABLE
        assert [
            p.reason for p in sink_got if isinstance(p, TDisconnectIndication)
        ] == [REASON_QOS_UNACCEPTABLE]
        recv_vc = entity_b.recv_vcs[request.vc_id]
        send_vc = stack.entity("alpha").send_vcs[request.vc_id]
        assert recv_vc.contract == send_vc.contract == confirm.contract

    def test_protocol_state_sustained_across_renegotiation(self, stack):
        """Section 3.3/4.1.3: sequence numbering continues."""
        binding, dst_binding, request, _contract = connect(stack, 1e6)
        accept_renegotiations(stack, "beta", dst_binding)
        send_vc = stack.entity("alpha").send_vcs[request.vc_id]
        assert send_vc.alloc_seq() == 0
        reneg = TRenegotiateRequest(
            initiator=request.src, src=request.src, dst=request.dst,
            new_qos=QoSSpec.simple(2e6, max_osdu_bytes=1000),
            vc_id=request.vc_id,
        )
        issue_renegotiate(stack, binding, reneg)
        # Still the same protocol machine with continuing sequence.
        assert stack.entity("alpha").send_vcs[request.vc_id] is send_vc
        assert send_vc.alloc_seq() == 1

    def test_remote_renegotiation_via_source_indication(self, stack):
        """The Figure 3 pattern applies to T-Renegotiate too."""
        initiator = stack.addr("gamma", 9)
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        init_binding = stack.entity("gamma").bind(9)
        src_binding = accept_all(stack, "alpha", 1)
        dst_binding = accept_all(stack, "beta", 1)
        request = stack.connect_request(initiator, src, dst)
        confirm = issue_connect(stack, init_binding, request)
        assert isinstance(confirm, TConnectConfirm)
        # accept_all already answers renegotiation indications at both
        # the source (Figure 3 relay) and the destination.
        reneg = TRenegotiateRequest(
            initiator=initiator, src=src, dst=dst,
            new_qos=QoSSpec.simple(3e6, max_osdu_bytes=1000),
            vc_id=request.vc_id,
        )
        outcome = issue_renegotiate(stack, init_binding, reneg)
        assert isinstance(outcome, TRenegotiateConfirm)
        assert outcome.contract.throughput_bps == pytest.approx(3e6)
