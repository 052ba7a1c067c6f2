"""The per-node transport entity: connection management and dispatch.

One :class:`TransportEntity` runs on each host.  Service users attach
by *binding* a TSAP (:meth:`TransportEntity.bind`) and then exchange
primitives: requests/responses go down through
:meth:`TransportEntity.request`; indications/confirms come up through
the binding's primitive queue.

Implemented flows, each mapped to the paper:

- conventional connect (initiator == source, section 4.1.1);
- remote connect (initiator, source, destination all distinct,
  section 3.5, Figures 2 and 3);
- remote and local release (section 4.1.1);
- QoS degradation indication (section 4.1.2, Table 2);
- QoS renegotiation, local and remote, with the rejected-renegotiation
  rule "the existing VC is not torn down" (section 4.1.3, Table 3).

QoS offers are computed from the route: reservable bandwidth (via the
ST-II-like :class:`~repro.netsim.reservation.ReservationManager`),
propagation + per-hop serialisation delay, summed link jitter bounds,
and composed loss/BER estimates.  Error-correcting classes of service
improve the offered residual error rates (one recovery round).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace as dc_replace
from typing import Dict, Generator, Optional, Tuple

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
class _SourcePending:
    """A connect in progress at the source entity."""

    request: TConnectRequest
    offer: QoSOffer
    reservation: Optional[Reservation]
    remote_initiator: bool
    #: Open trace span covering the CR -> CC/CJ handshake (None when
    #: tracing is disabled).
    span: Optional[object] = None


@dataclass
class _DstPending:
    """An indicated connect awaiting the destination user's response."""

    request: TConnectRequest
    offer: QoSOffer


@dataclass
class _VCRecord:
    """Source-side bookkeeping for an established VC."""

    request: TConnectRequest
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
        # Control-TPDU dispatch table, built once per entity instead of
        # per packet.
        self._control_dispatch = {
            ConnectRequestTPDU: self._on_connect_request,
            ConnectConfirmTPDU: self._on_connect_confirm,
            ConnectRejectTPDU: self._on_connect_reject,
            RemoteConnectTPDU: self._on_remote_connect,
            RemoteOutcomeTPDU: self._on_remote_outcome,
            RemoteDisconnectTPDU: self._on_remote_disconnect,
            DisconnectTPDU: self._on_disconnect,
            RenegotiateRequestTPDU: self._on_renegotiate_request,
            RenegotiateConfirmTPDU: self._on_renegotiate_confirm,
            RenegotiateRejectTPDU: self._on_renegotiate_reject,
            RemoteRenegotiateTPDU: self._on_remote_renegotiate,
            RemoteRenegotiateOutcomeTPDU: self._on_remote_renegotiate_outcome,
            QoSReportTPDU: self._on_qos_report,
        }
        self.bindings: Dict[int, TSAPBinding] = {}
        self.send_vcs: Dict[str, SendVC] = {}
        self.recv_vcs: Dict[str, RecvVC] = {}
        # Connect state machines.
        self._src_pending: Dict[str, _SourcePending] = {}
        self._src_accept_pending: Dict[str, TConnectRequest] = {}
        self._dst_pending: Dict[str, _DstPending] = {}
        self._remote_pending: Dict[str, TConnectRequest] = {}
        # Renegotiation state machines.
        self._reneg_src_pending: Dict[str, TRenegotiateRequest] = {}
        self._reneg_src_accept: Dict[str, TRenegotiateRequest] = {}
        self._reneg_dst_pending: Dict[str, Tuple[TRenegotiateRequest, QoSOffer]] = {}
        self._reneg_remote_pending: Dict[str, TRenegotiateRequest] = {}
        # Outstanding source-side renegotiation offers, kept so a lost
        # RenegotiateRequestTPDU can be retransmitted verbatim.
        self._reneg_offers: Dict[str, QoSOffer] = {}
        # Source-side VC records (for release/renegotiation/relay).
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
            self._handle_connect_request(primitive)
        elif isinstance(primitive, TConnectResponse):
            self._handle_connect_response(primitive)
        elif isinstance(primitive, TDisconnectRequest):
            self._handle_disconnect_request(primitive)
        elif isinstance(primitive, TRenegotiateRequest):
            self._handle_renegotiate_request(primitive)
        elif isinstance(primitive, TRenegotiateResponse):
            self._handle_renegotiate_response(primitive)
        else:
            raise TransportServiceError(
                f"primitive {type(primitive).__name__} is not a request type"
            )

    # ------------------------------------------------------------------
    # Connect: initiator side
    # ------------------------------------------------------------------

    def _handle_connect_request(self, request: TConnectRequest) -> None:
        if request.initiator.node != self.node_name:
            raise TransportServiceError(
                f"T-Connect.request issued at {self.node_name}, but initiator "
                f"is {request.initiator}"
            )
        if request.initiator == request.src:
            # Conventional connect: the initiator is the sender.
            self._begin_source_connect(request, remote_initiator=False)
        else:
            # Remote connect (Figure 2): relay to the source entity.
            self._remote_pending[request.vc_id] = request
            self._send_control(
                request.src.node, RemoteConnectTPDU(request=request)
            )

    def _on_remote_connect(self, tpdu: RemoteConnectTPDU) -> None:
        request = tpdu.request
        binding = self.bindings.get(request.src.tsap)
        if binding is None:
            self._send_control(
                request.initiator.node,
                RemoteOutcomeTPDU(
                    vc_id=request.vc_id,
                    accepted=False,
                    reason=REASON_NO_SUCH_TSAP,
                    request=request,
                ),
            )
            return
        self._src_accept_pending[request.vc_id] = request
        binding.deliver(TConnectIndication(**_connect_params(request)))

    def _on_remote_outcome(self, tpdu: RemoteOutcomeTPDU) -> None:
        request = self._remote_pending.pop(tpdu.vc_id, None)
        if request is None:
            request = tpdu.request
        if request is None:
            return
        binding = self.bindings.get(request.initiator.tsap)
        if binding is None:
            return
        if tpdu.accepted:
            binding.deliver(
                TConnectConfirm(**_connect_params(request), contract=tpdu.contract)
            )
        else:
            binding.deliver(
                TDisconnectIndication(
                    initiator=request.initiator,
                    vc_id=tpdu.vc_id,
                    reason=tpdu.reason,
                )
            )

    # ------------------------------------------------------------------
    # Connect: source side
    # ------------------------------------------------------------------

    def _begin_source_connect(
        self, request: TConnectRequest, remote_initiator: bool
    ) -> None:
        if request.src.node != self.node_name:
            raise TransportServiceError(
                f"source connect at {self.node_name} for source {request.src}"
            )
        offer, reservation, reason = self._compute_offer(request)
        if offer is None:
            self._source_connect_failed(request, remote_initiator, reason)
            return
        trace = self.sim.trace
        span = (
            trace.span(
                f"connect:{request.vc_id}",
                track=f"vc:{request.vc_id}",
                cat="transport",
                args={
                    "src": str(request.src),
                    "dst": str(request.dst),
                    "remote_initiator": remote_initiator,
                },
            )
            if trace.enabled
            else None
        )
        self._src_pending[request.vc_id] = _SourcePending(
            request, offer, reservation, remote_initiator, span
        )
        self._send_control(
            request.dst.node, ConnectRequestTPDU(request=request, offer=offer)
        )
        # Establishment control PDUs may be lost: retransmit the CR
        # until the exchange concludes or the retry budget is spent.
        self.sim.spawn(
            self._cr_retry_loop(request.vc_id),
            name=f"cr-retry:{request.vc_id}",
        )

    #: Connect-request retransmission schedule.
    CR_RETRY_INTERVAL = 0.5
    CR_RETRY_LIMIT = 5

    def _cr_retry_loop(self, vc_id: str):
        retry = Timer(self.sim)
        for _attempt in range(self.CR_RETRY_LIMIT):
            yield retry.after(self.CR_RETRY_INTERVAL)
            pending = self._src_pending.get(vc_id)
            if pending is None:
                return  # concluded (confirm or reject arrived)
            self._send_control(
                pending.request.dst.node,
                ConnectRequestTPDU(request=pending.request,
                                   offer=pending.offer),
            )
        pending = self._src_pending.pop(vc_id, None)
        if pending is None:
            return
        if pending.span is not None:
            pending.span.end(outcome="retry-exhausted")
        if pending.reservation is not None:
            self.reservations.release(pending.reservation)
        self._source_connect_failed(
            pending.request, pending.remote_initiator,
            REASON_REJECTED_BY_NETWORK,
        )

    def _compute_offer(
        self, request: TConnectRequest
    ) -> Tuple[Optional[QoSOffer], Optional[Reservation], str]:
        """Work out what the network can provide toward the destination."""
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
        osdu_bits = (qos.max_osdu_bytes + CONTROL_TPDU_BYTES) * 8
        delay = sum(link.prop_delay for link in links) + sum(
            osdu_bits / link.bandwidth_bps for link in links
        )
        jitter = sum(link.jitter.bound() for link in links)
        per = 1.0
        ber_ok = 1.0
        for link in links:
            per *= 1.0 - link.loss.expected_loss()
            ber_ok *= 1.0 - link.ber
        per = 1.0 - per
        ber = 1.0 - ber_ok
        if request.class_of_service.error_correction:
            # One bounded-time recovery round: residual errors need two
            # consecutive failures.
            per = per * per
            ber = ber * ber
        offer = QoSOffer(
            throughput_bps=offered_bps,
            delay_s=delay,
            jitter_s=jitter,
            packet_error_rate=per,
            bit_error_rate=ber,
        )
        return offer, reservation, ""

    def _source_connect_failed(
        self, request: TConnectRequest, remote_initiator: bool, reason: str
    ) -> None:
        indication = TDisconnectIndication(
            initiator=request.initiator, vc_id=request.vc_id, reason=reason
        )
        binding = self.bindings.get(request.src.tsap)
        if binding is not None:
            binding.deliver(indication)
        if remote_initiator:
            self._send_control(
                request.initiator.node,
                RemoteOutcomeTPDU(
                    vc_id=request.vc_id,
                    accepted=False,
                    reason=reason,
                    request=request,
                ),
            )

    def _on_connect_confirm(self, tpdu: ConnectConfirmTPDU) -> None:
        pending = self._src_pending.pop(tpdu.vc_id, None)
        if pending is None:
            return
        if pending.span is not None:
            pending.span.end(outcome="confirmed")
        request = pending.request
        contract = tpdu.contract
        if pending.reservation is not None and (
            contract.throughput_bps < pending.reservation.rate_bps
        ):
            self.reservations.modify(pending.reservation, contract.throughput_bps)
        send_vc = SendVC(
            self.sim,
            self.network.send,
            vc_id=tpdu.vc_id,
            local=request.src,
            remote=request.dst,
            contract=contract,
            profile=request.protocol,
            cos=request.class_of_service,
            buffer_osdus=contract.buffer_osdus,
            initial_credits=contract.buffer_osdus,
        )
        self.send_vcs[tpdu.vc_id] = send_vc
        self._vc_records[tpdu.vc_id] = _VCRecord(
            request, contract, pending.reservation
        )
        binding = self.bindings.get(request.src.tsap)
        if binding is not None:
            binding.endpoints[tpdu.vc_id] = VCEndpoint(self, send_vc, "send")
            binding.deliver(
                TConnectConfirm(**_connect_params(request), contract=contract)
            )
        if pending.remote_initiator:
            self._send_control(
                request.initiator.node,
                RemoteOutcomeTPDU(
                    vc_id=tpdu.vc_id,
                    accepted=True,
                    contract=contract,
                    request=request,
                ),
            )

    def _on_connect_reject(self, tpdu: ConnectRejectTPDU) -> None:
        pending = self._src_pending.pop(tpdu.vc_id, None)
        if pending is None:
            return
        if pending.span is not None:
            pending.span.end(outcome="rejected", reason=tpdu.reason)
        if pending.reservation is not None:
            self.reservations.release(pending.reservation)
        self._source_connect_failed(
            pending.request, pending.remote_initiator, tpdu.reason
        )

    # ------------------------------------------------------------------
    # Connect: destination side
    # ------------------------------------------------------------------

    def _on_connect_request(self, tpdu: ConnectRequestTPDU) -> None:
        request = tpdu.request
        if request.vc_id in self._dst_pending:
            # Duplicate CR (retransmission): the indication is already
            # with the application.
            return
        existing = self.recv_vcs.get(request.vc_id)
        if existing is not None:
            # The CC was lost: repeat it (idempotent).
            self._send_control(
                request.src.node,
                ConnectConfirmTPDU(vc_id=request.vc_id,
                                   contract=existing.contract),
            )
            return
        binding = self.bindings.get(request.dst.tsap)
        if binding is None:
            self._send_control(
                request.src.node,
                ConnectRejectTPDU(vc_id=request.vc_id, reason=REASON_NO_SUCH_TSAP),
            )
            return
        self._dst_pending[request.vc_id] = _DstPending(request, tpdu.offer)
        binding.deliver(TConnectIndication(**_connect_params(request)))

    def _accept_at_destination(self, response: TConnectResponse) -> None:
        pending = self._dst_pending.pop(response.vc_id, None)
        if pending is None:
            raise TransportServiceError(
                f"T-Connect.response for unknown VC {response.vc_id!r}"
            )
        request = pending.request
        final_spec = request.qos.tightened(response.qos)
        contract = final_spec.negotiate(pending.offer)
        if contract is None:
            self._send_control(
                request.src.node,
                ConnectRejectTPDU(
                    vc_id=request.vc_id, reason=REASON_QOS_UNACCEPTABLE
                ),
            )
            binding = self.bindings.get(request.dst.tsap)
            if binding is not None:
                binding.deliver(
                    TDisconnectIndication(
                        initiator=request.initiator,
                        vc_id=request.vc_id,
                        reason=REASON_QOS_UNACCEPTABLE,
                    )
                )
            return
        recv_vc = self._create_recv_vc(request, contract)
        self.recv_vcs[request.vc_id] = recv_vc
        binding = self.bindings.get(request.dst.tsap)
        if binding is not None:
            binding.endpoints[request.vc_id] = VCEndpoint(self, recv_vc, "recv")
        self._send_control(
            request.src.node,
            ConnectConfirmTPDU(vc_id=request.vc_id, contract=contract),
        )

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

    def _handle_connect_response(self, response: TConnectResponse) -> None:
        if response.vc_id in self._src_accept_pending:
            # The *source* application accepted a remote connect.
            request = self._src_accept_pending.pop(response.vc_id)
            merged = dc_replace(request, qos=request.qos.tightened(response.qos))
            self._begin_source_connect(merged, remote_initiator=True)
        else:
            self._accept_at_destination(response)

    # ------------------------------------------------------------------
    # Disconnect
    # ------------------------------------------------------------------

    def _handle_disconnect_request(self, request: TDisconnectRequest) -> None:
        vc_id = request.vc_id
        if vc_id in self._src_accept_pending:
            # Source application refusing a remote connect.
            pending_req = self._src_accept_pending.pop(vc_id)
            self._send_control(
                pending_req.initiator.node,
                RemoteOutcomeTPDU(
                    vc_id=vc_id,
                    accepted=False,
                    reason=REASON_REJECTED_BY_SOURCE,
                    request=pending_req,
                ),
            )
            return
        if vc_id in self._dst_pending:
            # Destination application refusing an indicated connect.
            pending = self._dst_pending.pop(vc_id)
            self._send_control(
                pending.request.src.node,
                ConnectRejectTPDU(
                    vc_id=vc_id, reason=REASON_REJECTED_BY_DESTINATION
                ),
            )
            return
        if vc_id in self._reneg_dst_pending:
            # Destination refusing a renegotiation (section 4.1.3).
            reneg, _offer = self._reneg_dst_pending.pop(vc_id)
            self._send_control(
                reneg.src.node,
                RenegotiateRejectTPDU(
                    vc_id=vc_id, reason=REASON_RENEGOTIATION_REFUSED
                ),
            )
            return
        if vc_id in self.send_vcs or vc_id in self.recv_vcs:
            self._release_local_vc(vc_id, request.initiator, REASON_USER_RELEASE,
                                   notify_peer=True)
            return
        # Remote release: the initiator does not hold the VC locally.
        record = self._remote_pending.get(vc_id)
        if record is not None:
            self._send_control(
                record.src.node, RemoteDisconnectTPDU(request=request)
            )
            return
        # Fall back: relay toward the source recorded at connect time.
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

    def _on_remote_disconnect(self, tpdu: RemoteDisconnectTPDU) -> None:
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
        notify_peer: bool,
    ) -> None:
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
        self._reneg_src_pending.pop(vc_id, None)
        self._reneg_offers.pop(vc_id, None)
        record = self._vc_records.pop(vc_id, None)
        if record is not None and record.reservation is not None:
            self.reservations.release(record.reservation)
        binding = self.bindings.get(vc.local.tsap)
        if binding is not None:
            binding.endpoints.pop(vc_id, None)
        if notify_peer:
            self._send_control(
                vc.remote.node,
                DisconnectTPDU(vc_id=vc_id, initiator=initiator, reason=reason),
            )
        # Notify a distinct initiator (section 3.5: responses go to both
        # initiator and source addresses).
        if record is not None:
            req = record.request
            if req.initiator != req.src and notify_peer:
                self._send_control(
                    req.initiator.node,
                    RemoteOutcomeTPDU(
                        vc_id=vc_id, accepted=False, reason=reason, request=req
                    ),
                )

    def _on_disconnect(self, tpdu: DisconnectTPDU) -> None:
        vc = self.send_vcs.get(tpdu.vc_id) or self.recv_vcs.get(tpdu.vc_id)
        if vc is None:
            return
        binding = self.bindings.get(vc.local.tsap)
        self._release_local_vc(tpdu.vc_id, tpdu.initiator, tpdu.reason,
                               notify_peer=False)
        if binding is not None:
            binding.deliver(
                TDisconnectIndication(
                    initiator=tpdu.initiator, vc_id=tpdu.vc_id, reason=tpdu.reason
                )
            )

    # ------------------------------------------------------------------
    # Renegotiation (Table 3)
    # ------------------------------------------------------------------

    def _handle_renegotiate_request(self, request: TRenegotiateRequest) -> None:
        if request.initiator == request.src:
            self._begin_source_renegotiate(request, remote_initiator=False)
        elif request.initiator.node == self.node_name:
            self._reneg_remote_pending[request.vc_id] = request
            self._send_control(
                request.src.node, RemoteRenegotiateTPDU(request=request)
            )
        else:
            raise TransportServiceError(
                "T-Renegotiate.request must be issued at the initiator"
            )

    def _on_remote_renegotiate(self, tpdu: RemoteRenegotiateTPDU) -> None:
        request = tpdu.request
        binding = self.bindings.get(request.src.tsap)
        if binding is None or request.vc_id not in self.send_vcs:
            self._send_control(
                request.initiator.node,
                RemoteRenegotiateOutcomeTPDU(
                    vc_id=request.vc_id,
                    accepted=False,
                    reason=REASON_NO_SUCH_VC,
                    request=request,
                ),
            )
            return
        self._reneg_src_accept[request.vc_id] = request
        binding.deliver(TRenegotiateIndication(**_reneg_params(request)))

    def _begin_source_renegotiate(
        self, request: TRenegotiateRequest, remote_initiator: bool
    ) -> None:
        send_vc = self.send_vcs.get(request.vc_id)
        record = self._vc_records.get(request.vc_id)
        if send_vc is None or record is None:
            self._renegotiate_failed(request, remote_initiator, REASON_NO_SUCH_VC)
            return
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
            self._renegotiate_failed(
                request, remote_initiator, REASON_RENEGOTIATION_REFUSED
            )
            return
        base = self._route_offer_estimates(request.src.node, request.dst.node,
                                           qos, record.request.class_of_service)
        offer = QoSOffer(
            throughput_bps=offered_bps,
            delay_s=base[0],
            jitter_s=base[1],
            packet_error_rate=base[2],
            bit_error_rate=base[3],
        )
        self._reneg_src_pending[request.vc_id] = request
        self._reneg_offers[request.vc_id] = offer
        if remote_initiator:
            self._reneg_remote_pending[request.vc_id] = request
        self._send_control(
            request.dst.node, RenegotiateRequestTPDU(request=request, offer=offer)
        )

    def _route_offer_estimates(
        self, src: str, dst: str, qos: QoSSpec, cos: ClassOfService
    ) -> Tuple[float, float, float, float]:
        links = self.network.links_on_route(src, dst)
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
            per *= per
            ber *= ber
        return delay, jitter, per, ber

    def _renegotiate_failed(
        self, request: TRenegotiateRequest, remote_initiator: bool, reason: str
    ) -> None:
        # "The existing VC is not torn down; the T-Disconnect.indication
        # simply indicates that the new service level requested can not
        # be supported" (section 4.1.3).
        auditor = self.sim.auditor
        if auditor is not None:
            auditor.record_renegotiation(request.vc_id, "failed", reason=reason)
        binding = self.bindings.get(request.src.tsap)
        if binding is not None:
            binding.deliver(
                TDisconnectIndication(
                    initiator=request.initiator, vc_id=request.vc_id, reason=reason
                )
            )
        if remote_initiator:
            self._send_control(
                request.initiator.node,
                RemoteRenegotiateOutcomeTPDU(
                    vc_id=request.vc_id,
                    accepted=False,
                    reason=reason,
                    request=request,
                ),
            )

    def _on_renegotiate_request(self, tpdu: RenegotiateRequestTPDU) -> None:
        request = tpdu.request
        if request.vc_id in self._reneg_dst_pending:
            # Duplicate RR (source-side retransmission): the indication
            # is already with the application.
            return
        recv_vc = self.recv_vcs.get(request.vc_id)
        if recv_vc is None:
            self._send_control(
                request.src.node,
                RenegotiateRejectTPDU(
                    vc_id=request.vc_id, reason=REASON_NO_SUCH_VC
                ),
            )
            return
        binding = self.bindings.get(recv_vc.local.tsap)
        if binding is None:
            self._send_control(
                request.src.node,
                RenegotiateRejectTPDU(
                    vc_id=request.vc_id, reason=REASON_NO_SUCH_TSAP
                ),
            )
            return
        self._reneg_dst_pending[request.vc_id] = (request, tpdu.offer)
        binding.deliver(TRenegotiateIndication(**_reneg_params(request)))

    def _handle_renegotiate_response(self, response: TRenegotiateResponse) -> None:
        if response.vc_id in self._reneg_src_accept:
            request = self._reneg_src_accept.pop(response.vc_id)
            merged = dc_replace(
                request, new_qos=request.new_qos.tightened(response.new_qos)
            )
            self._begin_source_renegotiate(merged, remote_initiator=True)
            return
        pending = self._reneg_dst_pending.pop(response.vc_id, None)
        if pending is None:
            raise TransportServiceError(
                f"T-Renegotiate.response for unknown VC {response.vc_id!r}"
            )
        request, offer = pending
        recv_vc = self.recv_vcs.get(response.vc_id)
        final_spec = request.new_qos.tightened(response.new_qos)
        contract = final_spec.negotiate(offer)
        if contract is None or recv_vc is None:
            self._send_control(
                request.src.node,
                RenegotiateRejectTPDU(
                    vc_id=request.vc_id, reason=REASON_QOS_UNACCEPTABLE
                ),
            )
            return
        # Buffers and protocol state are retained across the change
        # (section 3.3: state maintenance minimises resume delay).
        recv_vc.contract = contract
        self._send_control(
            request.src.node,
            RenegotiateConfirmTPDU(vc_id=request.vc_id, contract=contract),
        )

    def _on_renegotiate_confirm(self, tpdu: RenegotiateConfirmTPDU) -> None:
        request = self._reneg_src_pending.pop(tpdu.vc_id, None)
        self._reneg_offers.pop(tpdu.vc_id, None)
        if request is None:
            return
        send_vc = self.send_vcs.get(tpdu.vc_id)
        record = self._vc_records.get(tpdu.vc_id)
        if send_vc is None or record is None:
            return
        contract = tpdu.contract
        auditor = self.sim.auditor
        if auditor is not None:
            auditor.record_renegotiation(
                tpdu.vc_id, "confirmed",
                from_bps=record.contract.throughput_bps,
                to_bps=contract.throughput_bps,
            )
        if record.reservation is not None:
            self.reservations.modify(record.reservation, contract.throughput_bps)
        send_vc.contract = contract
        send_vc.set_rate(contract.throughput_bps)
        record.contract = contract
        binding = self.bindings.get(request.src.tsap)
        if binding is not None:
            binding.deliver(
                TRenegotiateConfirm(**_reneg_params(request), contract=contract)
            )
        remote = self._reneg_remote_pending.pop(tpdu.vc_id, None)
        if remote is not None and remote.initiator != remote.src:
            self._send_control(
                remote.initiator.node,
                RemoteRenegotiateOutcomeTPDU(
                    vc_id=tpdu.vc_id,
                    accepted=True,
                    contract=contract,
                    request=remote,
                ),
            )

    def _on_renegotiate_reject(self, tpdu: RenegotiateRejectTPDU) -> None:
        request = self._reneg_src_pending.pop(tpdu.vc_id, None)
        self._reneg_offers.pop(tpdu.vc_id, None)
        if request is None:
            return
        remote = self._reneg_remote_pending.pop(tpdu.vc_id, None)
        self._renegotiate_failed(
            request, remote is not None and remote.initiator != remote.src,
            tpdu.reason,
        )

    def _on_remote_renegotiate_outcome(
        self, tpdu: RemoteRenegotiateOutcomeTPDU
    ) -> None:
        request = self._reneg_remote_pending.pop(tpdu.vc_id, None) or tpdu.request
        if request is None:
            return
        binding = self.bindings.get(request.initiator.tsap)
        if binding is None:
            return
        if tpdu.accepted:
            binding.deliver(
                TRenegotiateConfirm(**_reneg_params(request), contract=tpdu.contract)
            )
        else:
            binding.deliver(
                TDisconnectIndication(
                    initiator=request.initiator,
                    vc_id=tpdu.vc_id,
                    reason=tpdu.reason,
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

    def _on_qos_report(self, tpdu: QoSReportTPDU) -> None:
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
            self._release_local_vc(request.vc_id, request.dst, REASON_OUTAGE,
                                   notify_peer=True)
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

        Only runs where the source VC record lives (conventional
        connects: initiator == source) and only one renegotiation is in
        flight per VC; repeated indications during an outage are
        absorbed by the pending check while the retry loop delivers the
        request.
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
        if vc_id in self._reneg_src_pending:
            return
        record = self._vc_records.get(vc_id)
        if record is None:
            return
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
        # The RR TPDU may be crossing the very fault that triggered the
        # ladder: retransmit until the exchange concludes.
        if vc_id in self._reneg_src_pending:
            self.sim.spawn(
                self._reneg_retry_loop(vc_id), name=f"rr-retry:{vc_id}"
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

    #: Renegotiate-request retransmission schedule (degradation only).
    RENEG_RETRY_INTERVAL = 0.5
    RENEG_RETRY_LIMIT = 8

    def _reneg_retry_loop(self, vc_id: str):
        """Retransmit a pending RR until confirmed, rejected or exhausted."""
        retry = Timer(self.sim)
        for _attempt in range(self.RENEG_RETRY_LIMIT):
            yield retry.after(self.RENEG_RETRY_INTERVAL)
            request = self._reneg_src_pending.get(vc_id)
            offer = self._reneg_offers.get(vc_id)
            if request is None or offer is None:
                return  # concluded (confirm or reject arrived)
            self._send_control(
                request.dst.node,
                RenegotiateRequestTPDU(request=request, offer=offer),
            )
        request = self._reneg_src_pending.pop(vc_id, None)
        self._reneg_offers.pop(vc_id, None)
        if request is not None:
            # Section 4.1.3: a failed renegotiation never tears down
            # the existing VC; the user just learns the new level is
            # unsupported.
            self._renegotiate_failed(request, False, REASON_REJECTED_BY_NETWORK)

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
            handler(payload)
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


def _connect_params(request: TConnectRequest) -> Dict:
    return {
        "initiator": request.initiator,
        "src": request.src,
        "dst": request.dst,
        "protocol": request.protocol,
        "class_of_service": request.class_of_service,
        "qos": request.qos,
        "vc_id": request.vc_id,
    }


def _reneg_params(request: TRenegotiateRequest) -> Dict:
    return {
        "initiator": request.initiator,
        "src": request.src,
        "dst": request.dst,
        "new_qos": request.new_qos,
        "vc_id": request.vc_id,
    }
