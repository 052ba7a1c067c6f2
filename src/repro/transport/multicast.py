"""1:N multicast CM connections (paper sections 3.8 and 7).

"In a CM based multicast session a simple 1:N topology is usually all
that is required.  Appropriate support for group addressing must be
provided in the transport layer, but multicast support will be the
responsibility of the underlying communications sub-system."

The network substrate replicates packets along the source-rooted
shortest-path tree (:meth:`repro.netsim.topology.Network.send_multicast`)
and reserves each tree edge exactly once
(:meth:`~repro.netsim.reservation.ReservationManager.reserve_multicast`).
The transport needs only group addressing on top: the source runs the
ordinary :class:`~repro.transport.vc.SendVC` with every sink as a
receiver (tree fan-out, slowest-receiver credits, repair to the
receiver that asked), and each sink an ordinary
:class:`~repro.transport.vc.RecvVC` sharing the group vc-id, both
installed by :func:`create_multicast`.  The entity's one release path
takes a group down from either end.

Multicast *orchestration* remains future work, exactly as the paper
leaves it ("the efficient handling of multicast orchestration",
section 7); the receive VCs here still expose the standard gate hooks,
so an orchestrating layer could be added without changing this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.netsim.reservation import AdmissionError, Reservation
from repro.transport.addresses import TransportAddress
from repro.transport.entity import (
    TransportEntity,
    VCEndpoint,
    _route_offer,
    _VCRecord,
)
from repro.transport.primitives import TDisconnectRequest
from repro.transport.profiles import ClassOfService, ProtocolProfile
from repro.transport.qos import QoSOffer, QoSSpec
from repro.transport.service import ConnectionRefused
from repro.transport.vc import RecvVC, SendVC


class MulticastGroup:
    """User-facing handle on one established 1:N connection."""

    def __init__(self, send_vc: SendVC, send_endpoint: VCEndpoint,
                 recv_endpoints: Dict[str, VCEndpoint],
                 reservation: Optional[Reservation]):
        self.send_vc = send_vc
        self.send_endpoint = send_endpoint
        self.recv_endpoints = recv_endpoints
        self.reservation = reservation

    @property
    def vc_id(self) -> str:
        return self.send_vc.vc_id

    def close(self, entities: Dict[str, TransportEntity]) -> None:
        """Tear down the group: a T-Disconnect.request at its source."""
        src = self.send_vc.local
        entities[src.node].request(
            TDisconnectRequest(initiator=src, vc_id=self.vc_id)
        )


def create_multicast(
    entities: Dict[str, TransportEntity],
    src: TransportAddress,
    sinks: List[TransportAddress],
    qos: QoSSpec,
    cos: Optional[ClassOfService] = None,
) -> MulticastGroup:
    """Establish a 1:N CM connection from ``src`` to every sink.

    Admission reserves the multicast tree once; the offer is the worst
    of the unicast offers over the branches (every receiver must be
    servable).  Raises
    :class:`~repro.transport.service.ConnectionRefused` when any leg is
    unacceptable.  Synchronous (no handshake coroutine): group set-up
    uses management-plane knowledge, matching the paper's position that
    group addressing is a transport concern but distribution belongs to
    the subsystem.
    """
    cos = cos or ClassOfService.detect_and_indicate()
    source_entity = entities[src.node]
    sim = source_entity.sim
    network = source_entity.network
    reservations = source_entity.reservations
    remote_nodes = [sink.node for sink in sinks if sink.node != src.node]
    # Admission over the tree.
    try:
        reservation = reservations.reserve_multicast(
            src.node, [sink.node for sink in sinks], min(
                qos.throughput.preferred,
                min(
                    reservations.route_available_bps(src.node, node)
                    for node in remote_nodes
                ),
            ),
        )
    except AdmissionError as exc:
        raise ConnectionRefused(f"multicast admission failed: {exc}") from exc
    offered_bps = reservation.rate_bps
    if offered_bps < qos.throughput.acceptable:
        reservations.release(reservation)
        raise ConnectionRefused("multicast tree below acceptable throughput")
    branches = [
        _route_offer(network.links_on_route(src.node, node), qos, cos,
                     offered_bps)
        for node in remote_nodes
    ]
    contract = qos.negotiate(QoSOffer(
        throughput_bps=offered_bps,
        delay_s=max(b.delay_s for b in branches),
        jitter_s=max(b.jitter_s for b in branches),
        packet_error_rate=max(b.packet_error_rate for b in branches),
        bit_error_rate=max(b.bit_error_rate for b in branches),
    ))
    if contract is None:
        reservations.release(reservation)
        raise ConnectionRefused("multicast QoS unacceptable on some branch")
    vc_id = source_entity.new_vc_id()
    send_vc = SendVC(
        sim, network, vc_id, src, tuple(sinks), contract,
        ProtocolProfile.CM_RATE_BASED, cos,
        buffer_osdus=contract.buffer_osdus,
    )
    source_entity.send_vcs[vc_id] = send_vc
    source_entity._vc_records[vc_id] = _VCRecord(None, contract, reservation)
    send_endpoint = VCEndpoint(source_entity, send_vc, "send")
    source_binding = source_entity.bindings.get(src.tsap)
    if source_binding is None:
        source_binding = source_entity.bind(src.tsap)
    source_binding.endpoints[vc_id] = send_endpoint
    recv_endpoints: Dict[str, VCEndpoint] = {}
    for sink in sinks:
        entity = entities[sink.node]
        recv_vc = RecvVC(
            sim,
            network.send,
            vc_id=vc_id,
            local=sink,
            remote=src,
            contract=contract,
            profile=ProtocolProfile.CM_RATE_BASED,
            cos=cos,
            buffer_osdus=contract.buffer_osdus,
            monitor=None,
            gap_timeout=entity.gap_timeout,
        )
        entity.recv_vcs[vc_id] = recv_vc
        endpoint = VCEndpoint(entity, recv_vc, "recv")
        binding = entity.bindings.get(sink.tsap)
        if binding is None:
            binding = entity.bind(sink.tsap)
        binding.endpoints[vc_id] = endpoint
        recv_endpoints[sink.node] = endpoint
    return MulticastGroup(send_vc, send_endpoint, recv_endpoints, reservation)
