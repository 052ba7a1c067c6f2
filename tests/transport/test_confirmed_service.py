"""Tables 1 and 3 as one confirmed service: every request is answered.

T-Connect (Table 1) and T-Renegotiate (Table 3) both run request ->
indication -> response -> confirm, relayed through the source when the
initiator is a distinct host (section 3.5).  The matrix below covers
{conventional, remote} x {connect, renegotiate} x {sink accepts, sink
refuses, source refuses (remote only)}, each with exactly one fault:
none, the first control TPDU of one type dropped, or the deciding
user's response 3 s late.  Every case must leave

- the initiator with exactly one confirm or one T-Disconnect.indication,
  delivered within 10 s;
- the VC at the source if and only if it is at the sink, under one
  contract;
- no exchange record on any entity;
- the route's reservable bandwidth at its starting value less what the
  VC, if it is held, reserves.
"""

from __future__ import annotations

import pytest

from repro.sim.scheduler import Timer
from repro.transport.primitives import (
    TConnectConfirm,
    TConnectIndication,
    TConnectResponse,
    TDisconnectIndication,
    TDisconnectRequest,
    TRenegotiateConfirm,
    TRenegotiateIndication,
    TRenegotiateRequest,
    TRenegotiateResponse,
)
from repro.transport.qos import QoSSpec
from repro.transport.tpdu import (
    ConnectConfirmTPDU,
    ConnectRejectTPDU,
    ConnectRequestTPDU,
    RemoteConnectTPDU,
    RemoteOutcomeTPDU,
    RemoteRenegotiateOutcomeTPDU,
    RemoteRenegotiateTPDU,
    RenegotiateConfirmTPDU,
    RenegotiateRejectTPDU,
    RenegotiateRequestTPDU,
)

from tests.transport.conftest import Stack

#: The entity's exchange tables, one per waiting role.
EXCHANGE_TABLES = ("_await_outcome", "_await_src_user", "_await_peer",
                   "_await_sink_user")

LATE_S = 3.0
#: request, confirm, reject, relayed request, relayed outcome.
TPDUS = {
    "connect": (ConnectRequestTPDU, ConnectConfirmTPDU, ConnectRejectTPDU,
                RemoteConnectTPDU, RemoteOutcomeTPDU),
    "renegotiate": (RenegotiateRequestTPDU, RenegotiateConfirmTPDU,
                    RenegotiateRejectTPDU, RemoteRenegotiateTPDU,
                    RemoteRenegotiateOutcomeTPDU),
}
CONFIRMS = {"connect": TConnectConfirm, "renegotiate": TRenegotiateConfirm}


def _cases():
    for remote in (False, True):
        for kind in ("connect", "renegotiate"):
            request, confirm, reject, relay, outcome = TPDUS[kind]
            decisions = {"sink-accepts": [request, confirm],
                         "sink-refuses": [request, reject]}
            if remote:
                decisions["source-refuses"] = []
            for decision, sent in decisions.items():
                if remote:
                    sent = sent + [relay, outcome]
                faults = [None, "late"] + [cls.__name__ for cls in sent]
                for fault in faults:
                    yield pytest.param(
                        remote, kind, decision, fault,
                        id=f"{'remote' if remote else 'conventional'}-{kind}-"
                           f"{decision}-{fault or 'no-fault'}",
                    )


def _expected_outcome(kind, decision, fault):
    if decision != "sink-accepts":
        return TDisconnectIndication
    # A connect's retry budget (5 x 0.5 s) runs out before a 3 s late
    # acceptance; a renegotiation's (8 x 0.5 s) does not.
    if fault == "late" and kind == "connect":
        return TDisconnectIndication
    return CONFIRMS[kind]


class _User:
    """A transport user that answers indications of one kind.

    Indications of the other kind (the set-up connect of a
    renegotiation case) are accepted at once.
    """

    def __init__(self, stack, node, tsap, kind, refuse=False, delay=0.0):
        self.stack = stack
        self.entity = stack.entity(node)
        self.binding = self.entity.bind(tsap)
        self.kind = kind
        self.refuse = refuse
        self.delay = delay
        self.got = []
        stack.sim.spawn(self._run())

    def _run(self):
        while True:
            primitive = yield self.binding.next_primitive()
            self.got.append(primitive)
            if isinstance(primitive, (TConnectIndication,
                                      TRenegotiateIndication)):
                under_test = isinstance(primitive, TConnectIndication) == (
                    self.kind == "connect")
                self.stack.sim.spawn(self._answer(primitive, under_test))

    def _answer(self, indication, under_test):
        if under_test and self.delay:
            yield Timer(self.stack.sim).after(self.delay)
        if under_test and self.refuse:
            self.entity.request(TDisconnectRequest(
                initiator=self.binding.address, vc_id=indication.vc_id))
        elif isinstance(indication, TConnectIndication):
            self.entity.request(TConnectResponse(
                initiator=indication.initiator, src=indication.src,
                dst=indication.dst, protocol=indication.protocol,
                class_of_service=indication.class_of_service,
                qos=indication.qos, vc_id=indication.vc_id))
        else:
            self.entity.request(TRenegotiateResponse(
                initiator=indication.initiator, src=indication.src,
                dst=indication.dst, new_qos=indication.new_qos,
                vc_id=indication.vc_id))


def _drop_first(stack, tpdu_name):
    """Drop the first control packet carrying a ``tpdu_name`` TPDU."""
    send = stack.network.send
    dropped = []

    def filtered(packet):
        if type(packet.payload).__name__ == tpdu_name and not dropped:
            dropped.append(packet)
            return
        send(packet)

    stack.network.send = filtered
    return dropped


@pytest.mark.parametrize("remote,kind,decision,fault", list(_cases()))
def test_every_request_gets_exactly_one_outcome(sim, remote, kind, decision,
                                                fault):
    stack = Stack(sim)
    start_bps = stack.reservations.route_available_bps("alpha", "beta")
    deciding = "source" if decision == "source-refuses" else "sink"
    delay = LATE_S if fault == "late" else 0.0
    source = _User(stack, "alpha", 1, kind,
                   refuse=decision == "source-refuses",
                   delay=delay if deciding == "source" else 0.0)
    sink = _User(stack, "beta", 1, kind,
                 refuse=decision == "sink-refuses",
                 delay=delay if deciding == "sink" else 0.0)
    initiator = _User(stack, "gamma", 9, kind) if remote else source
    dropped = (_drop_first(stack, fault)
               if fault not in (None, "late") else None)
    src, dst = stack.addr("alpha", 1), stack.addr("beta", 1)
    connect = stack.connect_request(initiator.binding.address, src, dst)
    vc_id = connect.vc_id

    if kind == "connect":
        request = connect
    else:
        initiator.entity.request(connect)
        stack.sim.run(until=stack.sim.now + 1.0)
        assert isinstance(initiator.got[-1], TConnectConfirm)
        request = TRenegotiateRequest(
            initiator=initiator.binding.address, src=src, dst=dst,
            new_qos=QoSSpec.simple(2e6, max_osdu_bytes=1000), vc_id=vc_id)
    issued = len(initiator.got)
    initiator.entity.request(request)

    def outcomes():
        return [p for p in initiator.got[issued:]
                if isinstance(p, (CONFIRMS[kind], TDisconnectIndication))
                and p.vc_id == vc_id]

    stack.sim.run(until=stack.sim.now + 10.0)
    assert [type(p) for p in outcomes()] == [
        _expected_outcome(kind, decision, fault)]
    stack.sim.run(until=stack.sim.now + 20.0)
    assert len(outcomes()) == 1
    if dropped is not None:
        assert len(dropped) == 1

    send_vc = stack.entity("alpha").send_vcs.get(vc_id)
    recv_vc = stack.entity("beta").recv_vcs.get(vc_id)
    assert (send_vc is None) == (recv_vc is None)
    if send_vc is not None:
        assert send_vc.contract == recv_vc.contract
    for name in ("alpha", "beta", "gamma"):
        entity = stack.entity(name)
        for table in EXCHANGE_TABLES:
            assert not getattr(entity, table), (name, table)
    held_bps = send_vc.contract.throughput_bps if send_vc is not None else 0.0
    assert stack.reservations.route_available_bps("alpha", "beta") == (
        pytest.approx(start_bps - held_bps))
