"""The per-node transport entity: connection management and dispatch.

One :class:`TransportEntity` runs on each host.  Service users attach
by *binding* a TSAP (:meth:`TransportEntity.bind`) and then exchange
primitives: requests/responses go down through
:meth:`TransportEntity.request`; indications/confirms come up through
the binding's primitive queue.

Implemented flows, each mapped to the paper:

- T-Connect (Table 1) and T-Renegotiate (Table 3) as one confirmed
  service -- request, indication, response, confirm -- conventional
  (initiator == source, section 4.1.1) or relayed through the source
  for a distinct initiator (section 3.5, Figures 2 and 3), with the
  rejected-renegotiation rule "the existing VC is not torn down"
  (section 4.1.3).  A :class:`_Kind` record holds what differs
  between the two; everything else is one exchange;
- remote and local release (section 4.1.1);
- QoS degradation indication (section 4.1.2, Table 2).

QoS offers are computed from the route: reservable bandwidth (via the
ST-II-like :class:`~repro.netsim.reservation.ReservationManager`),
propagation + per-hop serialisation delay, summed link jitter bounds,
and composed loss/BER estimates.  Error-correcting classes of service
improve the offered residual error rates (one recovery round).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace as dc_replace
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.netsim.packet import Packet, Priority
from repro.netsim.reservation import AdmissionError, Reservation, ReservationManager
from repro.netsim.topology import Network
from repro.sim.scheduler import Simulator, Timer
from repro.sim.sync import Queue
from repro.transport.addresses import TransportAddress
from repro.transport.degradation import DegradationConfig, OutageState
from repro.transport.monitor import QoSMonitor
from repro.transport.osdu import OSDU
from repro.transport.primitives import (
    REASON_NO_SUCH_TSAP,
    REASON_NO_SUCH_VC,
    REASON_OUTAGE,
    REASON_QOS_UNACCEPTABLE,
    REASON_REJECTED_BY_DESTINATION,
    REASON_REJECTED_BY_NETWORK,
    REASON_REJECTED_BY_SOURCE,
    REASON_RENEGOTIATION_REFUSED,
    REASON_USER_RELEASE,
    TConnectConfirm,
    TConnectIndication,
    TConnectRequest,
    TConnectResponse,
    TDisconnectIndication,
    TDisconnectRequest,
    TQoSIndication,
    TRenegotiateConfirm,
    TRenegotiateIndication,
    TRenegotiateRequest,
    TRenegotiateResponse,
    TransportPrimitive,
)
from repro.transport.profiles import ClassOfService, Guarantee
from repro.transport.qos import (
    QoSContract,
    QoSMeasurement,
    QoSOffer,
    QoSSpec,
    QoSViolation,
)
from repro.transport.tpdu import (
    AckTPDU,
    CONTROL_TPDU_BYTES,
    ConnectConfirmTPDU,
    ConnectRejectTPDU,
    ConnectRequestTPDU,
    CreditTPDU,
    DataTPDU,
    DisconnectTPDU,
    NackTPDU,
    QoSReportTPDU,
    RemoteConnectTPDU,
    RemoteDisconnectTPDU,
    RemoteOutcomeTPDU,
    RemoteRenegotiateOutcomeTPDU,
    RemoteRenegotiateTPDU,
    RenegotiateConfirmTPDU,
    RenegotiateRejectTPDU,
    RenegotiateRequestTPDU,
)
from repro.transport.vc import RecvVC, SendVC


class TransportServiceError(Exception):
    """Raised for misuse of the transport service interface."""


class VCEndpoint:
    """User-side handle on one end of an established VC.

    ``kind`` is ``"send"`` at the source, ``"recv"`` at the sink.  The
    data path is the shared-buffer interface of section 3.7: ``write``
    and ``read`` are coroutines that block via the buffer semaphores.

    ``orch_queue`` carries (primitive, reply_event) pairs delivered by
    the local LLO instance -- the Orch.Prime/Start/Stop/Delayed
    indications of Tables 5 and 6.  Applications that do not care can
    attach :func:`repro.orchestration.llo.auto_orch_responder`.
    """

    def __init__(self, entity: "TransportEntity", vc, kind: str):
        self.entity = entity
        self.vc = vc
        self.kind = kind
        self.orch_queue = Queue(entity.sim)

    @property
    def vc_id(self) -> str:
        return self.vc.vc_id

    @property
    def contract(self) -> QoSContract:
        return self.vc.contract

    def write(self, osdu: OSDU) -> Generator:
        if self.kind != "send":
            raise TransportServiceError("write() on a receive endpoint")
        return (yield from self.vc.write(osdu))

    def try_write(self, osdu: OSDU) -> bool:
        if self.kind != "send":
            raise TransportServiceError("try_write() on a receive endpoint")
        return self.vc.try_write(osdu)

    def read(self) -> Generator:
        if self.kind != "recv":
            raise TransportServiceError("read() on a send endpoint")
        return (yield from self.vc.buffer.take())

    def try_read(self) -> Optional[OSDU]:
        if self.kind != "recv":
            raise TransportServiceError("try_read() on a send endpoint")
        return self.vc.buffer.try_take()

    def next_orch(self):
        """Waitable for the next orchestration indication."""
        return self.orch_queue.get()


class TSAPBinding:
    """A transport user attached to one TSAP.

    ``primitives`` receives every indication and confirm addressed to
    this TSAP; ``endpoints`` holds the established VC endpoints.
    """

    def __init__(self, entity: "TransportEntity", address: TransportAddress):
        self.entity = entity
        self.address = address
        self.primitives = Queue(entity.sim)
        self.endpoints: Dict[str, VCEndpoint] = {}

    def next_primitive(self):
        """Waitable for the next indication/confirm."""
        return self.primitives.get()

    def endpoint(self, vc_id: str) -> VCEndpoint:
        try:
            return self.endpoints[vc_id]
        except KeyError:
            raise TransportServiceError(
                f"no endpoint for VC {vc_id!r} at {self.address}"
            ) from None

    def deliver(self, primitive: TransportPrimitive) -> None:
        self.primitives.put_nowait(primitive)


@dataclass
class _Exchange:
    """One T-Connect or T-Renegotiate in progress at one entity.

    It waits in the table of the role this entity plays: initiator
    awaiting the relayed outcome, source awaiting its user or its peer,
    or sink awaiting its user.
    """

    kind: "_Kind"
    request: Any  # TConnectRequest or TRenegotiateRequest
    offer: Optional[QoSOffer] = None
    reservation: Optional[Reservation] = None
    #: At the source: a distinct initiator relayed the request and is
    #: owed the outcome too (section 3.5).
    remote_initiator: bool = False
    #: Open trace span over the source's request -> confirm/reject
    #: handshake (None when tracing is disabled).
    span: Optional[object] = None


@dataclass
class _VCRecord:
    """Bookkeeping for an established VC at its source, and at a
    distinct initiator (which reserves nothing)."""

    #: None for a 1:N group, which is set up without a T-Connect
    #: (:func:`repro.transport.multicast.create_multicast`).
    request: Optional[TConnectRequest]
    contract: QoSContract
    reservation: Optional[Reservation]


class TransportEntity:
    """Transport protocol entity for one host."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        reservations: ReservationManager,
        node_name: str,
        sample_period: float = 1.0,
        gap_timeout: float = 0.05,
    ):
        self.sim = sim
        self.network = network
        self.reservations = reservations
        self.node_name = node_name
        self.sample_period = sample_period
        self.gap_timeout = gap_timeout
        self.host = network.host(node_name)
        self.host.register_handler("tpdu", self._on_packet)
        # Control-TPDU dispatch, built once per entity instead of per
        # packet: the transition table of the confirmed services.  A
        # handler gets the TPDU and the node it came from.
        self._control_dispatch = {
            # Table 1 T-Connect, at the sink: CR -> indication.
            ConnectRequestTPDU: partial(self._on_peer_request, CONNECT),
            # Table 1, at the source: CC -> confirm.
            ConnectConfirmTPDU: partial(self._on_peer_confirm, CONNECT),
            # Table 1, at the source: refused -> T-Disconnect.indication.
            ConnectRejectTPDU: partial(self._on_peer_reject, CONNECT),
            # Table 1 relayed (Figure 3), at the source: -> indication.
            RemoteConnectTPDU: partial(self._on_relayed_request, CONNECT),
            # Table 1 relayed, at the initiator: outcome -> confirm or
            # T-Disconnect.indication; later, the VC's release.
            RemoteOutcomeTPDU: self._on_remote_outcome,
            # Table 1 T-Disconnect from a remote initiator.
            RemoteDisconnectTPDU: self._on_remote_disconnect,
            # Table 1 T-Disconnect from the peer end.
            DisconnectTPDU: self._on_disconnect,
            # Table 3 T-Renegotiate, at the sink: RR -> indication.
            RenegotiateRequestTPDU: partial(self._on_peer_request, RENEGOTIATE),
            # Table 3, at the source: RC -> confirm.
            RenegotiateConfirmTPDU: partial(self._on_peer_confirm, RENEGOTIATE),
            # Table 3, at the source: refused -> T-Disconnect.indication.
            RenegotiateRejectTPDU: partial(self._on_peer_reject, RENEGOTIATE),
            # Table 3 relayed, at the source: -> indication.
            RemoteRenegotiateTPDU: partial(self._on_relayed_request, RENEGOTIATE),
            # Table 3 relayed, at the initiator: outcome -> confirm or
            # T-Disconnect.indication.
            RemoteRenegotiateOutcomeTPDU: partial(self._on_outcome, RENEGOTIATE),
            # Table 2 T-QoS.indication for a distinct initiator.
            QoSReportTPDU: self._on_qos_report,
        }
        self.bindings: Dict[int, TSAPBinding] = {}
        self.send_vcs: Dict[str, SendVC] = {}
        self.recv_vcs: Dict[str, RecvVC] = {}
        # Exchanges in progress by vc id, one table per waiting role: the
        # initiator awaiting the relayed outcome, the source awaiting its
        # user or its peer, the sink awaiting its user.
        self._await_outcome: Dict[str, _Exchange] = {}
        self._await_src_user: Dict[str, _Exchange] = {}
        self._await_peer: Dict[str, _Exchange] = {}
        self._await_sink_user: Dict[str, _Exchange] = {}
        # Established VCs at their source (for release, renegotiation
        # and relay) and at a distinct initiator (for release).
        self._vc_records: Dict[str, _VCRecord] = {}
        # Graceful degradation (opt-in; see repro.transport.degradation).
        self._degradation: Optional[DegradationConfig] = None
        self._outage_states: Dict[str, OutageState] = {}
        self._outage_probes: set = set()
        # Per-entity VC numbering: since node names are globally
        # unique, ids like "host-vc3" are a pure function of the host
        # and its connect order -- never of process-global state.  A
        # sharded run therefore mints the same vc ids regardless of
        # which worker a host lands on (the merge identity rule, see
        # repro.obs.audit.merge_snapshots).
        self._vc_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # User interface
    # ------------------------------------------------------------------

    def bind(self, tsap: int) -> TSAPBinding:
        """Attach a transport user to ``tsap`` on this node."""
        if tsap in self.bindings:
            raise TransportServiceError(
                f"TSAP {tsap} already bound on {self.node_name}"
            )
        binding = TSAPBinding(self, TransportAddress(self.node_name, tsap))
        self.bindings[tsap] = binding
        return binding

    def unbind(self, tsap: int) -> None:
        self.bindings.pop(tsap, None)

    def new_vc_id(self) -> str:
        return f"{self.node_name}-vc{next(self._vc_counter)}"

    def enable_degradation(
        self, config: Optional[DegradationConfig] = None
    ) -> DegradationConfig:
        """Turn on outage detection and the downgrade ladder.

        Off by default: an entity that never calls this schedules no
        extra events and generates no extra primitives, so fault-free
        runs are unaffected.  Enable it at *both* ends of a monitored
        VC -- the sink detects outages, the initiator drives the
        ladder.  Returns the active config.
        """
        self._degradation = config or DegradationConfig()
        return self._degradation

    def request(self, primitive: TransportPrimitive) -> None:
        """Issue a request or response primitive at this entity."""
        if isinstance(primitive, TConnectRequest):
            self._on_user_request(CONNECT, primitive)
        elif isinstance(primitive, TConnectResponse):
            self._on_user_response(CONNECT, primitive)
        elif isinstance(primitive, TDisconnectRequest):
            self._handle_disconnect_request(primitive)
        elif isinstance(primitive, TRenegotiateRequest):
            self._on_user_request(RENEGOTIATE, primitive)
        elif isinstance(primitive, TRenegotiateResponse):
            self._on_user_response(RENEGOTIATE, primitive)
        else:
            raise TransportServiceError(
                f"primitive {type(primitive).__name__} is not a request type"
            )

    # ------------------------------------------------------------------
    # Confirmed service: T-Connect (Table 1) and T-Renegotiate (Table 3)
    # ------------------------------------------------------------------
    #
    # Every leg that waits on a peer -- source -> sink, and initiator ->
    # source for a distinct initiator -- is retransmitted until it is
    # answered or the kind's budget is spent, and the request is then
    # answered by the waiting end.  Responders ignore a request they
    # have already indicated; a relayed connect or a CR for a VC already
    # held gets its accepted outcome repeated (the kind's ``admit_*``
    # steps).

    def _on_user_request(self, kind: "_Kind", request) -> None:
        if request.initiator.node != self.node_name:
            raise TransportServiceError(
                f"{kind.service}.request issued at {self.node_name}, but "
                f"initiator is {request.initiator}"
            )
        if request.initiator == request.src:
            self._begin_source(kind, request, remote_initiator=False)
            return
        # A distinct initiator relays to the source entity (Figure 2).
        refusal = kind.outcome_tpdu(
            vc_id=request.vc_id, reason=REASON_REJECTED_BY_NETWORK
        )
        self._send_until_answered(
            self._await_outcome, _Exchange(kind, request), request.src.node,
            kind.relay_tpdu(request=request), f"relay-{kind.retry_name}",
            partial(self._on_outcome, kind, refusal, self.node_name),
        )

    def _on_relayed_request(self, kind: "_Kind", tpdu, sender: str) -> None:
        """At the source: a distinct initiator's request (Figure 3)."""
        request = tpdu.request
        vc_id = request.vc_id
        if vc_id in self._await_src_user or vc_id in self._await_peer:
            return  # already indicated: a retransmission
        reply = kind.admit_at_source(self, request)
        if reply is not None:
            self._send_control(request.initiator.node, reply)
            return
        self._await_src_user[vc_id] = _Exchange(
            kind, request, remote_initiator=True
        )
        self.bindings[request.src.tsap].deliver(
            kind.indication(**_params(request))
        )

    def _on_user_response(self, kind: "_Kind", response) -> None:
        vc_id = response.vc_id
        pending = self._await_src_user.get(vc_id)
        if pending is not None and pending.kind is kind:
            # The source's user accepted a relayed request.
            del self._await_src_user[vc_id]
            request = dc_replace(
                pending.request,
                **{kind.qos_field: kind.tightened(pending.request, response)},
            )
            self._begin_source(kind, request, remote_initiator=True)
            return
        pending = self._await_sink_user.get(vc_id)
        if pending is None or pending.kind is not kind:
            raise TransportServiceError(
                f"{kind.service}.response for unknown VC {vc_id!r}"
            )
        del self._await_sink_user[vc_id]
        request = pending.request
        contract = kind.tightened(request, response).negotiate(pending.offer)
        if contract is None or not kind.commit_at_sink(self, request, contract):
            self._send_control(
                request.src.node,
                kind.reject_tpdu(vc_id=vc_id, reason=REASON_QOS_UNACCEPTABLE),
            )
            binding = self.bindings.get(request.dst.tsap)
            if binding is not None:
                binding.deliver(
                    TDisconnectIndication(
                        initiator=request.initiator,
                        vc_id=vc_id,
                        reason=REASON_QOS_UNACCEPTABLE,
                    )
                )
            return
        self._send_control(
            request.src.node, kind.confirm_tpdu(vc_id=vc_id, contract=contract)
        )

    def _begin_source(
        self, kind: "_Kind", request, remote_initiator: bool
    ) -> None:
        offer, reservation, reason = kind.offer(self, request)
        exchange = _Exchange(kind, request, offer, reservation, remote_initiator)
        if offer is None:
            self._fail(exchange, reason)
            return
        trace = self.sim.trace
        if trace.enabled:
            exchange.span = trace.span(
                f"{kind.name}:{request.vc_id}",
                track=f"vc:{request.vc_id}",
                cat="transport",
                args={
                    "src": str(request.src),
                    "dst": str(request.dst),
                    "remote_initiator": remote_initiator,
                },
            )
        refusal = kind.reject_tpdu(
            vc_id=request.vc_id, reason=REASON_REJECTED_BY_NETWORK
        )
        self._send_until_answered(
            self._await_peer, exchange, request.dst.node,
            kind.request_tpdu(request=request, offer=offer), kind.retry_name,
            partial(self._on_peer_reject, kind, refusal, self.node_name),
        )

    def _send_until_answered(
        self,
        table: Dict[str, _Exchange],
        exchange: _Exchange,
        dst_node: str,
        tpdu,
        name: str,
        give_up: Callable[[], None],
    ) -> None:
        """Wait in ``table`` for ``exchange``'s answer, sending ``tpdu``.

        Control TPDUs may be lost: ``tpdu`` is retransmitted until the
        exchange leaves ``table`` or the kind's budget is spent, when
        ``give_up()`` answers it as a refusal by the network.
        """
        vc_id = exchange.request.vc_id
        table[vc_id] = exchange
        self._send_control(dst_node, tpdu)
        self.sim.spawn(
            self._retransmit(table, exchange, dst_node, tpdu, give_up),
            name=f"{name}:{vc_id}",
        )

    def _retransmit(self, table, exchange, dst_node, tpdu, give_up):
        vc_id = exchange.request.vc_id
        retry = Timer(self.sim)
        for _attempt in range(exchange.kind.retry_limit):
            yield retry.after(exchange.kind.retry_interval)
            if table.get(vc_id) is not exchange:
                return  # answered
            self._send_control(dst_node, tpdu)
        if table.get(vc_id) is exchange:
            give_up()

    def _fail(self, exchange: _Exchange, reason: str) -> None:
        """The source concludes ``exchange`` unsuccessfully.

        Its user, and a distinct initiator, get a
        T-Disconnect.indication carrying ``reason``.
        """
        if exchange.span is not None:
            exchange.span.end(outcome="rejected", reason=reason)
        if exchange.reservation is not None:
            self.reservations.release(exchange.reservation)
        request = exchange.request
        exchange.kind.failed_at_source(self, request, reason)
        binding = self.bindings.get(request.src.tsap)
        if binding is not None:
            binding.deliver(
                TDisconnectIndication(
                    initiator=request.initiator, vc_id=request.vc_id,
                    reason=reason,
                )
            )
        if exchange.remote_initiator:
            self._send_control(
                request.initiator.node,
                exchange.kind.outcome_tpdu(
                    vc_id=request.vc_id, accepted=False, reason=reason,
                    request=request,
                ),
            )

    def _on_peer_request(self, kind: "_Kind", tpdu, sender: str) -> None:
        """At the sink: the source's request -> indication."""
        request = tpdu.request
        if request.vc_id in self._await_sink_user:
            return  # already indicated: a retransmission
        reply = kind.admit_at_sink(self, request)
        if reply is not None:
            self._send_control(request.src.node, reply)
            return
        self._await_sink_user[request.vc_id] = _Exchange(
            kind, request, tpdu.offer
        )
        self.bindings[request.dst.tsap].deliver(
            kind.indication(**_params(request))
        )

    def _on_peer_confirm(self, kind: "_Kind", tpdu, sender: str) -> None:
        """At the source: the sink accepted -> confirm."""
        vc_id = tpdu.vc_id
        exchange = self._await_peer.get(vc_id)
        if exchange is None or exchange.kind is not kind:
            if vc_id not in self.send_vcs:
                # The sink accepted after this source gave up: release
                # the sink's half of the VC.
                self._send_control(
                    sender,
                    DisconnectTPDU(
                        vc_id=vc_id, reason=REASON_REJECTED_BY_NETWORK
                    ),
                )
            return
        del self._await_peer[vc_id]
        if exchange.span is not None:
            exchange.span.end(outcome="confirmed")
        contract = tpdu.contract
        kind.commit_at_source(self, exchange, contract)
        request = exchange.request
        binding = self.bindings.get(request.src.tsap)
        if binding is not None:
            binding.deliver(kind.confirm(**_params(request), contract=contract))
        if exchange.remote_initiator:
            self._send_control(
                request.initiator.node,
                kind.outcome_tpdu(
                    vc_id=vc_id, accepted=True, contract=contract,
                    request=request,
                ),
            )

    def _on_peer_reject(self, kind: "_Kind", tpdu, sender: str) -> None:
        exchange = self._await_peer.get(tpdu.vc_id)
        if exchange is None or exchange.kind is not kind:
            return
        del self._await_peer[tpdu.vc_id]
        self._fail(exchange, tpdu.reason)

    def _on_outcome(self, kind: "_Kind", tpdu, sender: str) -> bool:
        """At a distinct initiator: the outcome the source relayed
        (section 3.5).  False when no exchange awaited it."""
        exchange = self._await_outcome.get(tpdu.vc_id)
        if exchange is None or exchange.kind is not kind:
            return False
        del self._await_outcome[tpdu.vc_id]
        request = exchange.request
        binding = self.bindings.get(request.initiator.tsap)
        if binding is None:
            return True
        if tpdu.accepted:
            binding.deliver(
                kind.confirm(**_params(request), contract=tpdu.contract)
            )
        else:
            binding.deliver(
                TDisconnectIndication(
                    initiator=request.initiator, vc_id=request.vc_id,
                    reason=tpdu.reason,
                )
            )
        return True

    def _on_remote_outcome(self, tpdu: RemoteOutcomeTPDU, sender: str) -> None:
        """A T-Connect outcome, or the source's notice that a VC it
        confirmed to this initiator was released."""
        vc_id = tpdu.vc_id
        if self._on_outcome(CONNECT, tpdu, sender):
            if tpdu.accepted:
                # Kept until the source reports the VC released, so
                # that this initiator can release it (section 4.1.1).
                self._vc_records[vc_id] = _VCRecord(
                    tpdu.request, tpdu.contract, None
                )
            return
        record = self._vc_records.get(vc_id)
        if tpdu.accepted:
            if record is None:
                # Accepted after this initiator gave up: ask the source
                # to release it (section 4.1.1).
                self._send_control(
                    sender,
                    RemoteDisconnectTPDU(
                        request=TDisconnectRequest(
                            initiator=tpdu.request.initiator, vc_id=vc_id
                        )
                    ),
                )
            return
        if record is None or vc_id in self.send_vcs:
            return
        del self._vc_records[vc_id]
        binding = self.bindings.get(record.request.initiator.tsap)
        if binding is not None:
            binding.deliver(
                TDisconnectIndication(
                    initiator=record.request.initiator, vc_id=vc_id,
                    reason=tpdu.reason,
                )
            )

    # -- T-Connect's own steps (the CONNECT kind) ------------------------

    def _connect_offer(
        self, request: TConnectRequest
    ) -> Tuple[Optional[QoSOffer], Optional[Reservation], str]:
        """Work out, and reserve, what the network can provide toward
        the destination."""
        qos = request.qos
        try:
            links = self.network.links_on_route(request.src.node, request.dst.node)
        except ValueError:
            return None, None, REASON_REJECTED_BY_NETWORK
        reservation: Optional[Reservation] = None
        if request.class_of_service.guarantee is Guarantee.BEST_EFFORT:
            offered_bps = qos.throughput.preferred
        else:
            available = self.reservations.route_available_bps(
                request.src.node, request.dst.node
            )
            offered_bps = min(qos.throughput.preferred, available)
            if offered_bps < qos.throughput.acceptable:
                return None, None, REASON_REJECTED_BY_NETWORK
            try:
                reservation = self.reservations.reserve(
                    request.src.node, request.dst.node, offered_bps
                )
            except AdmissionError:
                return None, None, REASON_REJECTED_BY_NETWORK
        offer = _route_offer(links, qos, request.class_of_service, offered_bps)
        return offer, reservation, ""

    def _admit_connect_at_source(self, request: TConnectRequest):
        send_vc = self.send_vcs.get(request.vc_id)
        if send_vc is not None:
            # The outcome was lost: repeat it.
            return RemoteOutcomeTPDU(
                vc_id=request.vc_id, accepted=True,
                contract=send_vc.contract, request=request,
            )
        if request.src.tsap not in self.bindings:
            return RemoteOutcomeTPDU(
                vc_id=request.vc_id, accepted=False,
                reason=REASON_NO_SUCH_TSAP, request=request,
            )
        return None

    def _admit_connect_at_sink(self, request: TConnectRequest):
        recv_vc = self.recv_vcs.get(request.vc_id)
        if recv_vc is not None:
            # The CC was lost: repeat it.
            return ConnectConfirmTPDU(
                vc_id=request.vc_id, contract=recv_vc.contract
            )
        if request.dst.tsap not in self.bindings:
            return ConnectRejectTPDU(
                vc_id=request.vc_id, reason=REASON_NO_SUCH_TSAP
            )
        return None

    def _commit_connect_at_source(
        self, exchange: _Exchange, contract: QoSContract
    ) -> None:
        request, reservation = exchange.request, exchange.reservation
        if reservation is not None and (
            contract.throughput_bps < reservation.rate_bps
        ):
            self.reservations.modify(reservation, contract.throughput_bps)
        send_vc = SendVC(
            self.sim,
            self.network,
            vc_id=request.vc_id,
            local=request.src,
            receivers=(request.dst,),
            contract=contract,
            profile=request.protocol,
            cos=request.class_of_service,
            buffer_osdus=contract.buffer_osdus,
        )
        self.send_vcs[request.vc_id] = send_vc
        self._vc_records[request.vc_id] = _VCRecord(
            request, contract, reservation
        )
        binding = self.bindings.get(request.src.tsap)
        if binding is not None:
            binding.endpoints[request.vc_id] = VCEndpoint(self, send_vc, "send")

    def _commit_connect_at_sink(
        self, request: TConnectRequest, contract: QoSContract
    ) -> bool:
        recv_vc = self._create_recv_vc(request, contract)
        self.recv_vcs[request.vc_id] = recv_vc
        binding = self.bindings.get(request.dst.tsap)
        if binding is not None:
            binding.endpoints[request.vc_id] = VCEndpoint(self, recv_vc, "recv")
        return True

    def _create_recv_vc(
        self, request: TConnectRequest, contract: QoSContract
    ) -> RecvVC:
        monitor: Optional[QoSMonitor] = None
        recv_vc_holder: Dict[str, RecvVC] = {}

        def on_period(measurement: QoSMeasurement) -> None:
            self._on_monitor_period(
                request, contract, measurement, recv_vc_holder["vc"]
            )

        if request.class_of_service.error_indication:
            monitor = QoSMonitor(
                self.sim, self.sample_period, on_period, name=request.vc_id
            )
        recv_vc = RecvVC(
            self.sim,
            self.network.send,
            vc_id=request.vc_id,
            local=request.dst,
            remote=request.src,
            contract=contract,
            profile=request.protocol,
            cos=request.class_of_service,
            buffer_osdus=contract.buffer_osdus,
            monitor=monitor,
            gap_timeout=self.gap_timeout,
        )
        recv_vc_holder["vc"] = recv_vc
        if monitor is not None:
            monitor.start()
        auditor = self.sim.auditor
        if auditor is not None:
            auditor.register_connection(
                request.vc_id, contract,
                src=str(request.src), dst=str(request.dst),
                sample_period=self.sample_period,
            )
        return recv_vc

    # -- T-Renegotiate's own steps (the RENEGOTIATE kind) ----------------

    def _renegotiate_offer(
        self, request: TRenegotiateRequest
    ) -> Tuple[Optional[QoSOffer], Optional[Reservation], str]:
        """What the route can provide, counting the VC's own
        reservation as available."""
        record = self._vc_records.get(request.vc_id)
        # A 1:N group keeps the contract it was created with.
        if (record is None or record.request is None
                or request.vc_id not in self.send_vcs):
            return None, None, REASON_NO_SUCH_VC
        qos = request.new_qos
        if record.reservation is not None:
            headroom = self.reservations.route_available_bps(
                request.src.node, request.dst.node
            )
            available = headroom + record.reservation.rate_bps
        else:
            available = qos.throughput.preferred
        offered_bps = min(qos.throughput.preferred, available)
        if offered_bps < qos.throughput.acceptable:
            return None, None, REASON_RENEGOTIATION_REFUSED
        links = self.network.links_on_route(request.src.node, request.dst.node)
        offer = _route_offer(
            links, qos, record.request.class_of_service, offered_bps
        )
        return offer, None, ""

    def _admit_renegotiate_at_source(self, request: TRenegotiateRequest):
        if request.src.tsap not in self.bindings or (
            request.vc_id not in self.send_vcs
        ):
            return RemoteRenegotiateOutcomeTPDU(
                vc_id=request.vc_id, accepted=False,
                reason=REASON_NO_SUCH_VC, request=request,
            )
        return None

    def _admit_renegotiate_at_sink(self, request: TRenegotiateRequest):
        if request.vc_id not in self.recv_vcs:
            return RenegotiateRejectTPDU(
                vc_id=request.vc_id, reason=REASON_NO_SUCH_VC
            )
        if request.dst.tsap not in self.bindings:
            return RenegotiateRejectTPDU(
                vc_id=request.vc_id, reason=REASON_NO_SUCH_TSAP
            )
        return None

    def _commit_renegotiate_at_source(
        self, exchange: _Exchange, contract: QoSContract
    ) -> None:
        vc_id = exchange.request.vc_id
        record = self._vc_records[vc_id]
        auditor = self.sim.auditor
        if auditor is not None:
            auditor.record_renegotiation(
                vc_id, "confirmed",
                from_bps=record.contract.throughput_bps,
                to_bps=contract.throughput_bps,
            )
        if record.reservation is not None:
            self.reservations.modify(record.reservation, contract.throughput_bps)
        send_vc = self.send_vcs[vc_id]
        send_vc.contract = contract
        send_vc.set_rate(contract.throughput_bps)
        record.contract = contract

    def _commit_renegotiate_at_sink(
        self, request: TRenegotiateRequest, contract: QoSContract
    ) -> bool:
        recv_vc = self.recv_vcs.get(request.vc_id)
        if recv_vc is None:
            return False  # released while its user was deciding
        # Buffers and protocol state are retained across the change
        # (section 3.3: state maintenance minimises resume delay).
        recv_vc.contract = contract
        return True

    def _renegotiate_failed(
        self, request: TRenegotiateRequest, reason: str
    ) -> None:
        # "The existing VC is not torn down; the T-Disconnect.indication
        # simply indicates that the new service level requested can not
        # be supported" (section 4.1.3).
        auditor = self.sim.auditor
        if auditor is not None:
            auditor.record_renegotiation(request.vc_id, "failed", reason=reason)

    # ------------------------------------------------------------------
    # Disconnect
    # ------------------------------------------------------------------

    def _handle_disconnect_request(self, request: TDisconnectRequest) -> None:
        vc_id = request.vc_id
        pending = self._await_src_user.pop(vc_id, None)
        if pending is not None:
            # The source's user refuses a relayed request.
            self._send_control(
                pending.request.initiator.node,
                pending.kind.outcome_tpdu(
                    vc_id=vc_id, accepted=False,
                    reason=pending.kind.refused_by_source,
                    request=pending.request,
                ),
            )
            return
        pending = self._await_sink_user.pop(vc_id, None)
        if pending is not None:
            # The sink's user refuses an indicated request.
            self._send_control(
                pending.request.src.node,
                pending.kind.reject_tpdu(
                    vc_id=vc_id, reason=pending.kind.refused_by_sink
                ),
            )
            return
        if vc_id in self.send_vcs or vc_id in self.recv_vcs:
            self._release_local_vc(vc_id, request.initiator, REASON_USER_RELEASE)
            return
        # Remote release: relay toward the source recorded at connect time.
        record = self._vc_records.get(vc_id)
        if record is not None:
            self._send_control(
                record.request.src.node, RemoteDisconnectTPDU(request=request)
            )
            return
        raise TransportServiceError(
            f"T-Disconnect.request for unknown VC {vc_id!r} at {self.node_name}"
        )

    def remote_release(self, initiator: TransportAddress, target_node: str,
                       vc_id: str) -> None:
        """Ask a remote end-system to release ``vc_id`` (section 4.1.1).

        On arrival a T-Disconnect.indication is issued to the attached
        application, which may then issue its own T-Disconnect.request.
        """
        self._send_control(
            target_node,
            RemoteDisconnectTPDU(
                request=TDisconnectRequest(initiator=initiator, vc_id=vc_id)
            ),
        )

    def _on_remote_disconnect(
        self, tpdu: RemoteDisconnectTPDU, sender: str
    ) -> None:
        request = tpdu.request
        vc = self.send_vcs.get(request.vc_id) or self.recv_vcs.get(request.vc_id)
        if vc is None:
            return
        binding = self.bindings.get(vc.local.tsap)
        if binding is not None:
            binding.deliver(
                TDisconnectIndication(
                    initiator=request.initiator,
                    vc_id=request.vc_id,
                    reason=REASON_USER_RELEASE,
                )
            )

    def _release_local_vc(
        self,
        vc_id: str,
        initiator: Optional[TransportAddress],
        reason: str,
        informed: Optional[str] = None,
    ) -> None:
        """Release this end of ``vc_id`` and tell every peer end but
        node ``informed`` (the one whose DisconnectTPDU this is): the
        source for a sink, each receiver for a source."""
        vc = self.send_vcs.pop(vc_id, None) or self.recv_vcs.pop(vc_id, None)
        if vc is None:
            return
        auditor = self.sim.auditor
        if auditor is not None and isinstance(vc, RecvVC):
            # Record at the sink, where the connection was registered.
            auditor.record_release(
                vc_id, reason,
                initiator=str(initiator) if initiator is not None else None,
            )
        vc.close()
        self._outage_states.pop(vc_id, None)
        # A renegotiation in flight ends with the VC.
        self._await_peer.pop(vc_id, None)
        record = self._vc_records.pop(vc_id, None)
        if record is not None and record.reservation is not None:
            self.reservations.release(record.reservation)
        binding = self.bindings.get(vc.local.tsap)
        if binding is not None:
            binding.endpoints.pop(vc_id, None)
        peers = (vc.remote,) if isinstance(vc, RecvVC) else vc.receivers
        for peer in peers:
            if peer.node != informed:
                self._send_control(
                    peer.node,
                    DisconnectTPDU(vc_id=vc_id, initiator=initiator,
                                   reason=reason),
                )
        # Notify a distinct initiator, whichever end released (section
        # 3.5: responses go to both initiator and source addresses).
        if record is not None and record.request is not None:
            req = record.request
            if req.initiator != req.src:
                self._send_control(
                    req.initiator.node,
                    RemoteOutcomeTPDU(
                        vc_id=vc_id, accepted=False, reason=reason, request=req
                    ),
                )

    def _on_disconnect(self, tpdu: DisconnectTPDU, sender: str) -> None:
        vc = self.send_vcs.get(tpdu.vc_id) or self.recv_vcs.get(tpdu.vc_id)
        if vc is None:
            return
        binding = self.bindings.get(vc.local.tsap)
        self._release_local_vc(tpdu.vc_id, tpdu.initiator, tpdu.reason,
                               informed=sender)
        if binding is not None:
            binding.deliver(
                TDisconnectIndication(
                    initiator=tpdu.initiator, vc_id=tpdu.vc_id, reason=tpdu.reason
                )
            )

    # ------------------------------------------------------------------
    # Monitoring (Table 2)
    # ------------------------------------------------------------------

    def _on_monitor_period(
        self,
        request: TConnectRequest,
        contract: QoSContract,
        measurement: QoSMeasurement,
        recv_vc: RecvVC,
    ) -> None:
        current_contract = recv_vc.contract
        violations = current_contract.violations(measurement)
        if self._degradation is not None:
            outage = self._track_outage(request, current_contract,
                                        measurement, recv_vc)
            if outage is not None:
                violations = list(violations) + [outage]
        auditor = self.sim.auditor
        if auditor is not None:
            # Before the early return: met/degraded/idle periods belong
            # on the conformance timeline too.
            auditor.record_period(
                request.vc_id, current_contract, measurement, violations
            )
        if not violations:
            return
        trace = self.sim.trace
        if trace.enabled:
            trace.instant(
                "qos.violation",
                track=f"vc:{request.vc_id}",
                cat="monitor",
                args={"violations": [v.parameter for v in violations]},
            )
        indication = TQoSIndication(
            initiator=request.initiator,
            src=request.src,
            dst=request.dst,
            initial_qos=current_contract,
            sample_period=self.sample_period,
            vc_id=request.vc_id,
            current_qos=measurement,
            violations=violations,
        )
        if request.initiator.node == self.node_name:
            binding = self.bindings.get(request.initiator.tsap)
            if binding is not None:
                binding.deliver(indication)
            self._maybe_degrade(indication)
        else:
            self._send_control(
                request.initiator.node,
                QoSReportTPDU(vc_id=request.vc_id, indication=indication),
            )

    def _on_qos_report(self, tpdu: QoSReportTPDU, sender: str) -> None:
        indication = tpdu.indication
        if indication.initiator.node != self.node_name:
            return
        binding = self.bindings.get(indication.initiator.tsap)
        if binding is not None:
            binding.deliver(indication)
        self._maybe_degrade(indication)

    # ------------------------------------------------------------------
    # Graceful degradation (opt-in; repro.transport.degradation)
    # ------------------------------------------------------------------

    def _track_outage(
        self,
        request: TConnectRequest,
        contract: QoSContract,
        measurement: QoSMeasurement,
        recv_vc: RecvVC,
    ) -> Optional[QoSViolation]:
        """Sink-side outage bookkeeping for one sample period.

        Returns a synthetic throughput violation (observed 0) for every
        period spent in a declared outage, so the standard Table 2
        indication path carries the fault to the initiator.  When the
        outage outlives the grace period the VC is released with reason
        ``qos-outage`` instead.
        """
        cfg = self._degradation
        state = self._outage_states.get(request.vc_id)
        if state is None:
            state = self._outage_states[request.vc_id] = OutageState()
        if measurement.osdus_delivered > 0:
            state.had_traffic = True
            state.zero_periods = 0
            if state.in_outage:
                state.recovered_at.append(self.sim.now)
                state.outage_since = None
                trace = self.sim.trace
                if trace.enabled:
                    trace.instant(
                        "qos.outage.end", track=f"vc:{request.vc_id}",
                        cat="fault",
                    )
            return None
        # An idle-by-design VC is not in outage: before any traffic, or
        # while orchestration holds the delivery gate closed.
        if not state.had_traffic or recv_vc.buffer.gate_state == "closed":
            return None
        state.zero_periods += 1
        if state.zero_periods < cfg.outage_periods and not state.in_outage:
            return None
        if not state.in_outage:
            state.outage_since = self.sim.now
            state.declared_at.append(self.sim.now)
            trace = self.sim.trace
            if trace.enabled:
                trace.instant(
                    "qos.outage", track=f"vc:{request.vc_id}", cat="fault",
                    args={"zero_periods": state.zero_periods},
                )
        elif self.sim.now - state.outage_since >= cfg.grace:
            trace = self.sim.trace
            if trace.enabled:
                trace.instant(
                    "qos.outage.disconnect", track=f"vc:{request.vc_id}",
                    cat="fault",
                    args={"outage_s": self.sim.now - state.outage_since},
                )
            binding = self.bindings.get(request.dst.tsap)
            self._release_local_vc(request.vc_id, request.dst, REASON_OUTAGE)
            if binding is not None:
                binding.deliver(
                    TDisconnectIndication(
                        initiator=request.dst,
                        vc_id=request.vc_id,
                        reason=REASON_OUTAGE,
                    )
                )
            return None
        return QoSViolation("throughput", contract.throughput_bps, 0.0)

    def _maybe_degrade(self, indication: TQoSIndication) -> None:
        """Initiator-side ladder: step the contract down one rung.

        Only runs where the VC's source lives (conventional connects:
        initiator == source) and only one renegotiation is in flight per
        VC; repeated indications during an outage are absorbed by the
        pending check while retransmission delivers the request.
        """
        cfg = self._degradation
        if cfg is None:
            return
        vc_id = indication.vc_id
        outage_flavored = any(
            v.parameter == "throughput" and v.observed == 0.0
            for v in indication.violations
        )
        if outage_flavored and vc_id in self.send_vcs:
            self.begin_outage_probe(vc_id)
        if vc_id not in self.send_vcs or vc_id in self._await_peer:
            return
        record = self._vc_records[vc_id]
        if not any(v.parameter == "throughput" for v in indication.violations):
            return
        current = record.contract.throughput_bps
        target = max(cfg.floor_bps, current * cfg.ladder_factor)
        if target >= current:
            return  # already at the floor; nothing left to concede
        trace = self.sim.trace
        if trace.enabled:
            trace.instant(
                "qos.degrade", track=f"vc:{vc_id}", cat="fault",
                args={"from_bps": current, "to_bps": target},
            )
        self.request(
            TRenegotiateRequest(
                initiator=indication.initiator,
                src=record.request.src,
                dst=record.request.dst,
                new_qos=record.request.qos.with_throughput(target, cfg.floor_bps),
                vc_id=vc_id,
            )
        )

    def begin_outage_probe(self, vc_id: str) -> None:
        """Start (at most one) credit-probe loop for an outaged send VC.

        Idempotent while a probe is running.  Called from the
        degradation ladder when an outage-flavored T-QoS.indication
        arrives, and by the LLO when the HLO agent declares an
        orchestrated stream in outage (NudgeCmdOPDU).
        """
        if vc_id in self._outage_probes or vc_id not in self.send_vcs:
            return
        self._outage_probes.add(vc_id)
        self.sim.spawn(
            self._outage_probe_loop(vc_id), name=f"outage-probe:{vc_id}"
        )

    #: Outage credit-probe schedule (see SendVC.probe_credit).
    OUTAGE_PROBE_INTERVAL = 0.5
    OUTAGE_PROBE_LIMIT = 120

    def _outage_probe_loop(self, vc_id: str):
        """Release one probe credit per interval until credits flow again."""
        probe = Timer(self.sim)
        try:
            for _attempt in range(self.OUTAGE_PROBE_LIMIT):
                send_vc = self.send_vcs.get(vc_id)
                if send_vc is None:
                    return
                seen = send_vc.credits_seen
                send_vc.probe_credit()
                trace = self.sim.trace
                if trace.enabled:
                    trace.instant(
                        "outage.probe", track=f"vc:{vc_id}", cat="fault",
                    )
                yield probe.after(self.OUTAGE_PROBE_INTERVAL)
                send_vc = self.send_vcs.get(vc_id)
                if send_vc is None or send_vc.credits_seen > seen:
                    return  # credit grants resumed: the path recovered
        finally:
            self._outage_probes.discard(vc_id)

    # ------------------------------------------------------------------
    # Packet dispatch
    # ------------------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        payload = packet.payload
        prof = self.sim.profile
        if prof is not None:
            _t0 = prof.clock()
        # The data/flow-control TPDUs are recycled through freelists:
        # once the VC handler returns, every field the receiver keeps
        # has been copied out, so the shells go back to their pools.
        if isinstance(payload, DataTPDU):
            recv_vc = self.recv_vcs.get(payload.vc_id)
            if recv_vc is not None:
                recv_vc.on_data(payload, corrupted=packet.corrupted)
            DataTPDU.release(payload)
            if prof is not None:
                prof.add("transport.deliver", _t0, prof.clock())
            return
        if isinstance(payload, CreditTPDU):
            send_vc = self.send_vcs.get(payload.vc_id)
            if send_vc is not None:
                send_vc.on_credit(payload.credits, from_node=packet.src)
            CreditTPDU.release(payload)
            if prof is not None:
                prof.add("transport.deliver", _t0, prof.clock())
            return
        if isinstance(payload, NackTPDU):
            send_vc = self.send_vcs.get(payload.vc_id)
            if send_vc is not None:
                send_vc.on_nack(payload.missing, from_node=packet.src)
            if prof is not None:
                prof.add("transport.deliver", _t0, prof.clock())
            return
        if isinstance(payload, AckTPDU):
            send_vc = self.send_vcs.get(payload.vc_id)
            if send_vc is not None:
                send_vc.on_ack(payload.cumulative_seq, payload.advertised)
            AckTPDU.release(payload)
            if prof is not None:
                prof.add("transport.deliver", _t0, prof.clock())
            return
        handler = self._control_dispatch.get(type(payload))
        if handler is not None:
            handler(payload, packet.src)
        if prof is not None:
            prof.add("transport.deliver", _t0, prof.clock())

    def _send_control(self, dst_node: str, tpdu) -> None:
        packet = Packet(
            src=self.node_name,
            dst=dst_node,
            payload=tpdu,
            size_bits=CONTROL_TPDU_BYTES * 8,
            priority=Priority.CONTROL,
        )
        trace = self.sim.trace
        if trace.packets:
            # Causal parent: service primitive/TPDU -> netsim packet id.
            trace.instant(
                "tpdu.tx", track=f"node:{self.node_name}", cat="causal",
                args={
                    "packet_id": packet.packet_id,
                    "vc": getattr(tpdu, "vc_id", None),
                    "kind": type(tpdu).__name__,
                    "dst": dst_node,
                },
            )
        self.network.send(packet)

    # ------------------------------------------------------------------
    # Orchestration coupling
    # ------------------------------------------------------------------

    def vc_role(self, vc_id: str) -> Optional[str]:
        """``"source"``, ``"sink"`` or None for this entity's role on a VC."""
        if vc_id in self.send_vcs:
            return "source"
        if vc_id in self.recv_vcs:
            return "sink"
        return None

    def endpoint_for(self, vc_id: str) -> Optional[VCEndpoint]:
        """Find the user endpoint for ``vc_id`` across local bindings."""
        for binding in self.bindings.values():
            endpoint = binding.endpoints.get(vc_id)
            if endpoint is not None:
                return endpoint
        return None


def _params(request) -> Dict:
    """A request's parameter list, which its indication and confirm repeat."""
    return {f.name: getattr(request, f.name) for f in fields(request)}


def _route_offer(
    links: List, qos: QoSSpec, cos: ClassOfService, throughput_bps: float
) -> QoSOffer:
    """What a route offers at ``throughput_bps``: propagation plus
    per-hop serialisation delay, summed jitter bounds, and composed
    loss and bit-error estimates."""
    osdu_bits = (qos.max_osdu_bytes + CONTROL_TPDU_BYTES) * 8
    delay = sum(link.prop_delay for link in links) + sum(
        osdu_bits / link.bandwidth_bps for link in links
    )
    jitter = sum(link.jitter.bound() for link in links)
    per_ok = 1.0
    ber_ok = 1.0
    for link in links:
        per_ok *= 1.0 - link.loss.expected_loss()
        ber_ok *= 1.0 - link.ber
    per = 1.0 - per_ok
    ber = 1.0 - ber_ok
    if cos.error_correction:
        # One bounded-time recovery round: residual errors need two
        # consecutive failures.
        per *= per
        ber *= ber
    return QoSOffer(
        throughput_bps=throughput_bps,
        delay_s=delay,
        jitter_s=jitter,
        packet_error_rate=per,
        bit_error_rate=ber,
    )


@dataclass(frozen=True)
class _Kind:
    """What differs between T-Connect (Table 1) and T-Renegotiate
    (Table 3); the rest of the confirmed-service exchange is shared.

    The steps are :class:`TransportEntity` methods, called with the
    entity first.
    """

    name: str
    service: str
    request_tpdu: type
    confirm_tpdu: type
    reject_tpdu: type
    relay_tpdu: type
    outcome_tpdu: type
    indication: type
    confirm: type
    #: The request/response field holding the QoS tolerances.
    qos_field: str
    refused_by_source: str
    refused_by_sink: str
    retry_interval: float
    retry_limit: int
    #: Name of the source's retransmission process.
    retry_name: str
    #: (entity, request) -> (offer, reservation, reason); offer None
    #: on failure.
    offer: Callable
    #: (entity, request) -> the TPDU answering a request that is not
    #: indicated, or None to indicate it.
    admit_at_source: Callable
    admit_at_sink: Callable
    #: (entity, exchange, contract): the source takes up the contract.
    commit_at_source: Callable
    #: (entity, request, contract) -> False when the sink cannot.
    commit_at_sink: Callable
    #: (entity, request, reason) when the source concludes a failure.
    failed_at_source: Callable

    def tightened(self, request, response) -> QoSSpec:
        """The request's tolerances narrowed by a responder's."""
        return getattr(request, self.qos_field).tightened(
            getattr(response, self.qos_field)
        )


CONNECT = _Kind(
    name="connect",
    service="T-Connect",
    request_tpdu=ConnectRequestTPDU,
    confirm_tpdu=ConnectConfirmTPDU,
    reject_tpdu=ConnectRejectTPDU,
    relay_tpdu=RemoteConnectTPDU,
    outcome_tpdu=RemoteOutcomeTPDU,
    indication=TConnectIndication,
    confirm=TConnectConfirm,
    qos_field="qos",
    refused_by_source=REASON_REJECTED_BY_SOURCE,
    refused_by_sink=REASON_REJECTED_BY_DESTINATION,
    retry_interval=0.5,
    retry_limit=5,
    retry_name="cr-retry",
    offer=TransportEntity._connect_offer,
    admit_at_source=TransportEntity._admit_connect_at_source,
    admit_at_sink=TransportEntity._admit_connect_at_sink,
    commit_at_source=TransportEntity._commit_connect_at_source,
    commit_at_sink=TransportEntity._commit_connect_at_sink,
    failed_at_source=lambda entity, request, reason: None,
)

RENEGOTIATE = _Kind(
    name="renegotiate",
    service="T-Renegotiate",
    request_tpdu=RenegotiateRequestTPDU,
    confirm_tpdu=RenegotiateConfirmTPDU,
    reject_tpdu=RenegotiateRejectTPDU,
    relay_tpdu=RemoteRenegotiateTPDU,
    outcome_tpdu=RemoteRenegotiateOutcomeTPDU,
    indication=TRenegotiateIndication,
    confirm=TRenegotiateConfirm,
    qos_field="new_qos",
    refused_by_source=REASON_RENEGOTIATION_REFUSED,
    refused_by_sink=REASON_RENEGOTIATION_REFUSED,
    retry_interval=0.5,
    retry_limit=8,
    retry_name="rr-retry",
    offer=TransportEntity._renegotiate_offer,
    admit_at_source=TransportEntity._admit_renegotiate_at_source,
    admit_at_sink=TransportEntity._admit_renegotiate_at_sink,
    commit_at_source=TransportEntity._commit_renegotiate_at_source,
    commit_at_sink=TransportEntity._commit_renegotiate_at_sink,
    failed_at_source=TransportEntity._renegotiate_failed,
)
