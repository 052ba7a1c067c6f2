"""Remote connect: initiator, source and sink all distinct (Figures 2/3)."""

import pytest

from repro.sim.scheduler import Timer
from repro.transport.entity import TransportServiceError
from repro.transport.primitives import (
    REASON_NO_SUCH_TSAP,
    REASON_REJECTED_BY_NETWORK,
    REASON_REJECTED_BY_SOURCE,
    REASON_USER_RELEASE,
    TConnectConfirm,
    TConnectIndication,
    TConnectResponse,
    TDisconnectIndication,
    TDisconnectRequest,
)

from tests.transport.test_connect import accept_all, issue_connect


class TestRemoteConnect:
    def test_three_party_establishment(self, stack):
        """Figure 2: gamma connects alpha's TSAP A to beta's TSAP B."""
        initiator = stack.addr("gamma", 9)
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        init_binding = stack.entity("gamma").bind(9)
        src_binding = accept_all(stack, "alpha", 1)
        accept_all(stack, "beta", 1)
        request = stack.connect_request(initiator, src, dst)
        confirm = issue_connect(stack, init_binding, request)
        assert isinstance(confirm, TConnectConfirm)
        assert confirm.contract is not None
        # VC endpoints live at the source and destination, not at the
        # initiator.
        assert request.vc_id in stack.entity("alpha").send_vcs
        assert request.vc_id in stack.entity("beta").recv_vcs
        assert request.vc_id not in stack.entity("gamma").send_vcs

    def test_source_application_also_gets_confirm(self, stack):
        """Figure 3: the confirm reaches source *and* initiator."""
        initiator = stack.addr("gamma", 9)
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        init_binding = stack.entity("gamma").bind(9)
        src_binding = accept_all(stack, "alpha", 1)
        accept_all(stack, "beta", 1)
        request = stack.connect_request(initiator, src, dst)
        issue_connect(stack, init_binding, request)
        confirms = [
            p for p in src_binding.inbox if isinstance(p, TConnectConfirm)
        ]
        assert len(confirms) == 1
        assert confirms[0].vc_id == request.vc_id

    def test_source_endpoint_registered_at_source_binding(self, stack):
        initiator = stack.addr("gamma", 9)
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        init_binding = stack.entity("gamma").bind(9)
        src_binding = accept_all(stack, "alpha", 1)
        accept_all(stack, "beta", 1)
        request = stack.connect_request(initiator, src, dst)
        issue_connect(stack, init_binding, request)
        assert src_binding.endpoints[request.vc_id].kind == "send"

    def test_rejection_by_source(self, stack):
        initiator = stack.addr("gamma", 9)
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        init_binding = stack.entity("gamma").bind(9)
        entity_a = stack.entity("alpha")
        a_binding = entity_a.bind(1)

        def refuser():
            while True:
                primitive = yield a_binding.next_primitive()
                if isinstance(primitive, TConnectIndication):
                    entity_a.request(
                        TDisconnectRequest(
                            initiator=primitive.initiator,
                            vc_id=primitive.vc_id,
                        )
                    )

        stack.sim.spawn(refuser())
        request = stack.connect_request(initiator, src, dst)
        outcome = issue_connect(stack, init_binding, request)
        assert isinstance(outcome, TDisconnectIndication)
        assert outcome.reason == REASON_REJECTED_BY_SOURCE

    def test_rejection_when_source_tsap_unbound(self, stack):
        initiator = stack.addr("gamma", 9)
        request = stack.connect_request(
            initiator, stack.addr("alpha", 55), stack.addr("beta", 1)
        )
        init_binding = stack.entity("gamma").bind(9)
        outcome = issue_connect(stack, init_binding, request)
        assert isinstance(outcome, TDisconnectIndication)
        assert outcome.reason == REASON_NO_SUCH_TSAP

    def test_initiator_notified_when_vc_released(self, stack):
        """Section 3.5: management responses go to initiator too."""
        initiator = stack.addr("gamma", 9)
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        init_binding = stack.entity("gamma").bind(9)
        src_binding = accept_all(stack, "alpha", 1)
        accept_all(stack, "beta", 1)
        request = stack.connect_request(initiator, src, dst)
        issue_connect(stack, init_binding, request)
        # The source releases the VC.
        stack.entity("alpha").request(
            TDisconnectRequest(
                initiator=src_binding.address, vc_id=request.vc_id
            )
        )
        got = []

        def watcher():
            got.append((yield init_binding.next_primitive()))

        stack.sim.spawn(watcher())
        stack.sim.run(until=stack.sim.now + 1.0)
        assert got and isinstance(got[0], TDisconnectIndication)

    def test_initiator_notified_when_sink_releases(self, stack):
        """Section 3.5: a release by the sink reaches the initiator too,
        which then forgets the VC."""
        initiator = stack.addr("gamma", 9)
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        init_binding = stack.entity("gamma").bind(9)
        accept_all(stack, "alpha", 1)
        accept_all(stack, "beta", 1)
        request = stack.connect_request(initiator, src, dst)
        issue_connect(stack, init_binding, request)
        stack.entity("beta").request(
            TDisconnectRequest(initiator=dst, vc_id=request.vc_id)
        )
        got = []

        def watcher():
            got.append((yield init_binding.next_primitive()))

        stack.sim.spawn(watcher())
        stack.sim.run(until=stack.sim.now + 1.0)
        assert [(type(p), p.reason) for p in got] == [
            (TDisconnectIndication, REASON_USER_RELEASE)
        ]
        with pytest.raises(TransportServiceError):
            stack.entity("gamma").request(
                TDisconnectRequest(initiator=initiator, vc_id=request.vc_id)
            )

    def test_remote_release_indicates_to_endpoint_app(self, stack):
        """Section 4.1.1: a remote T-Disconnect.request raises an
        indication at the endpoint; the app then releases."""
        initiator = stack.addr("gamma", 9)
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        init_binding = stack.entity("gamma").bind(9)
        src_binding = accept_all(stack, "alpha", 1)
        accept_all(stack, "beta", 1)
        request = stack.connect_request(initiator, src, dst)
        issue_connect(stack, init_binding, request)
        stack.entity("gamma").remote_release(
            initiator, "alpha", request.vc_id
        )
        stack.sim.run(until=stack.sim.now + 1.0)
        indications = [
            p for p in src_binding.inbox
            if isinstance(p, TDisconnectIndication)
            and p.reason == REASON_USER_RELEASE
        ]
        assert indications
        # The application acts on the indication.
        stack.entity("alpha").request(
            TDisconnectRequest(
                initiator=src_binding.address, vc_id=request.vc_id
            )
        )
        stack.sim.run(until=stack.sim.now + 1.0)
        assert request.vc_id not in stack.entity("alpha").send_vcs
        assert request.vc_id not in stack.entity("beta").recv_vcs

    def test_initiator_can_release_a_vc_it_remote_connected(self, stack):
        """Section 4.1.1: the initiator's T-Disconnect.request goes to
        the source recorded at connect time, until the source reports
        the VC released."""
        initiator = stack.addr("gamma", 9)
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        gamma = stack.entity("gamma")
        init_binding = gamma.bind(9)
        src_binding = accept_all(stack, "alpha", 1)
        accept_all(stack, "beta", 1)
        request = stack.connect_request(initiator, src, dst)
        assert isinstance(
            issue_connect(stack, init_binding, request), TConnectConfirm
        )
        release = TDisconnectRequest(initiator=initiator, vc_id=request.vc_id)
        gamma.request(release)
        stack.sim.run(until=stack.sim.now + 1.0)
        assert [
            p.reason for p in src_binding.inbox
            if isinstance(p, TDisconnectIndication)
        ] == [REASON_USER_RELEASE]
        # The source's application acts on the indication.
        stack.entity("alpha").request(
            TDisconnectRequest(initiator=src, vc_id=request.vc_id)
        )
        got = []

        def watcher():
            got.append((yield init_binding.next_primitive()))

        stack.sim.spawn(watcher())
        stack.sim.run(until=stack.sim.now + 1.0)
        assert request.vc_id not in stack.entity("alpha").send_vcs
        assert request.vc_id not in stack.entity("beta").recv_vcs
        assert [(type(p), p.vc_id) for p in got] == [
            (TDisconnectIndication, request.vc_id)
        ]
        with pytest.raises(TransportServiceError):
            gamma.request(release)

    def test_acceptance_after_the_initiator_gave_up_is_released(self, stack):
        """The source's user accepts after the initiator has spent its
        relay retries and reported the call failed: the initiator asks
        the source to release the VC it no longer awaits."""
        initiator = stack.addr("gamma", 9)
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        init_binding = stack.entity("gamma").bind(9)
        entity_a = stack.entity("alpha")
        a_binding = entity_a.bind(1)
        a_got = []

        def late_acceptor():
            while True:
                primitive = yield a_binding.next_primitive()
                a_got.append(primitive)
                if isinstance(primitive, TConnectIndication):
                    yield Timer(stack.sim).after(4.0)
                    entity_a.request(
                        TConnectResponse(
                            initiator=primitive.initiator, src=primitive.src,
                            dst=primitive.dst, protocol=primitive.protocol,
                            class_of_service=primitive.class_of_service,
                            qos=primitive.qos, vc_id=primitive.vc_id,
                        )
                    )

        stack.sim.spawn(late_acceptor())
        accept_all(stack, "beta", 1)
        request = stack.connect_request(initiator, src, dst)
        outcome = issue_connect(stack, init_binding, request)
        assert isinstance(outcome, TDisconnectIndication)
        assert outcome.reason == REASON_REJECTED_BY_NETWORK
        assert [type(p) for p in a_got] == [
            TConnectIndication, TConnectConfirm, TDisconnectIndication
        ]
        assert a_got[-1].reason == REASON_USER_RELEASE

    def test_conventional_when_initiator_equals_source(self, stack):
        """Section 4.1.1: initiator == source short-circuits the relay."""
        src = stack.addr("alpha", 1)
        dst = stack.addr("beta", 1)
        binding = stack.entity("alpha").bind(1)
        accept_all(stack, "beta", 1)
        request = stack.connect_request(src, src, dst)
        confirm = issue_connect(stack, binding, request)
        assert isinstance(confirm, TConnectConfirm)
        # Exactly one confirm: no duplicate relay to "the initiator".
        more = [p for p in binding.primitives._items]
        assert not any(isinstance(p, TConnectConfirm) for p in more)
