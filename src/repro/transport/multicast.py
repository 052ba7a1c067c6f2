"""1:N multicast CM connections (paper sections 3.8 and 7).

"In a CM based multicast session a simple 1:N topology is usually all
that is required.  Appropriate support for group addressing must be
provided in the transport layer, but multicast support will be the
responsibility of the underlying communications sub-system."

The network substrate replicates packets along the source-rooted
shortest-path tree (:meth:`repro.netsim.topology.Network.send_multicast`)
and reserves each tree edge exactly once
(:meth:`~repro.netsim.reservation.ReservationManager.reserve_multicast`).
This module adds the transport layer on top:

- :class:`MulticastSendVC` -- a rate-paced group sender whose flow
  control tracks *per-receiver* cumulative credits and advances on the
  minimum (the slowest receiver gates the group);
- selective retransmission repaired **unicast** to the NACKing
  receiver, so one lossy branch does not re-flood the whole tree;
- per-sink :class:`~repro.transport.vc.RecvVC` instances sharing the
  group vc-id, installed by :func:`create_multicast`.

Multicast *orchestration* remains future work, exactly as the paper
leaves it ("the efficient handling of multicast orchestration",
section 7); the receive VCs here still expose the standard gate hooks,
so an orchestrating layer could be added without changing this module.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.netsim.packet import Packet
from repro.netsim.reservation import AdmissionError, Reservation
from repro.sim.scheduler import Process, Simulator
from repro.sim.sync import TimedSemaphore
from repro.transport.addresses import TransportAddress
from repro.transport.buffers import ROLE_PROTOCOL, SharedCircularBuffer
from repro.transport.entity import TransportEntity, VCEndpoint
from repro.transport.flowcontrol import RateBasedFlowControl
from repro.transport.osdu import OPDU, OSDU
from repro.transport.profiles import ClassOfService, ProtocolProfile
from repro.transport.qos import QoSContract, QoSOffer, QoSSpec
from repro.transport.service import ConnectionRefused
from repro.transport.tpdu import (
    DATA_HEADER_BYTES,
    DataTPDU,
)
from repro.transport.vc import RETRANSMIT_CACHE, RecvVC, _data_priority


class MulticastSendVC:
    """Source-side protocol machine for a 1:N group connection.

    The shared-buffer interface and sequence discipline match
    :class:`~repro.transport.vc.SendVC`; what differs is the wire fan-out
    (one tree transmission per OSDU) and the credit rule: the sender may
    be at most ``buffer_osdus`` units ahead of the **slowest** receiver.
    """

    def __init__(
        self,
        sim: Simulator,
        network,
        vc_id: str,
        local: TransportAddress,
        sinks: List[TransportAddress],
        contract: QoSContract,
        cos: ClassOfService,
        buffer_osdus: int,
    ):
        if not sinks:
            raise ValueError("a multicast VC needs at least one sink")
        self.sim = sim
        self.network = network
        self.vc_id = vc_id
        self.local = local
        self.sinks = list(sinks)
        self.contract = contract
        self.cos = cos
        self.profile = ProtocolProfile.CM_RATE_BASED
        self.buffer = SharedCircularBuffer(sim, buffer_osdus)
        self.flow = RateBasedFlowControl(sim, contract.throughput_bps)
        self.open = True
        self._next_seq = 0
        self._cache: Dict[int, DataTPDU] = {}
        self._pending_drop_notices: List[int] = []
        self._epoch = 0
        self.sent_count = 0
        self.retransmit_count = 0
        # Per-receiver cumulative credit grants (post-pipeline); the
        # group advances on the minimum.  The initial pipeline depth is
        # the semaphore's starting value.
        self._credits_seen: Dict[str, int] = {
            sink.node: 0 for sink in self.sinks
        }
        self._group_min = 0
        self._credits = TimedSemaphore(sim, buffer_osdus)
        self._proc: Process = sim.spawn(
            self._sender_loop(), name=f"mcast-send:{vc_id}"
        )

    # -- user side -----------------------------------------------------

    def alloc_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def write(self, osdu: OSDU) -> Generator:
        if osdu.size_bytes > self.contract.max_osdu_bytes:
            raise ValueError(
                f"OSDU of {osdu.size_bytes} B exceeds negotiated maximum "
                f"{self.contract.max_osdu_bytes} B"
            )
        stamped = osdu.with_opdu(self.alloc_seq())
        if stamped.created_at is None:
            stamped.created_at = self.sim.now
        yield from self.buffer.put(stamped)

    def try_write(self, osdu: OSDU) -> bool:
        if osdu.size_bytes > self.contract.max_osdu_bytes:
            raise ValueError("OSDU exceeds negotiated maximum")
        stamped = osdu.with_opdu(self.alloc_seq())
        if stamped.created_at is None:
            stamped.created_at = self.sim.now
        if self.buffer.try_put(stamped):
            return True
        self._next_seq -= 1
        return False

    # -- protocol loop ------------------------------------------------------

    def _sender_loop(self):
        while True:
            osdu = yield from self.buffer.get(ROLE_PROTOCOL)
            if not self.open:
                return
            epoch = self._epoch
            size_bits = (osdu.size_bytes + DATA_HEADER_BYTES + OPDU.WIRE_BYTES) * 8
            yield self._credits.acquire(ROLE_PROTOCOL)
            yield from self.flow.acquire_slot(int(size_bits))
            if not self.open:
                return
            if epoch != self._epoch:
                self._pending_drop_notices.append(osdu.seq)
                self._credits.release()
                continue
            self._transmit(osdu)

    def _transmit(self, osdu: OSDU) -> None:
        notices, self._pending_drop_notices = self._pending_drop_notices, []
        tpdu = DataTPDU(
            vc_id=self.vc_id,
            osdu=osdu,
            seq=osdu.seq,
            sent_at_sim=self.sim.now,
            sent_at_local=self.sim.now,
            backlogged=len(self.buffer) > 0,
            dropped_seqs=notices,
        )
        if self.cos.error_correction:
            cache = self._cache
            cache[osdu.seq] = tpdu
            if len(cache) > RETRANSMIT_CACHE:
                # Inserted in increasing seq: the first key is the oldest.
                del cache[next(iter(cache))]
        self.sent_count += 1
        size_bits = int(
            (osdu.size_bytes + DATA_HEADER_BYTES + OPDU.WIRE_BYTES) * 8
        )
        self.network.send_multicast(
            Packet(
                src=self.local.node,
                dst=f"group:{self.vc_id}",
                payload=tpdu,
                size_bits=size_bits,
                priority=_data_priority(self.cos.guarantee),
                flow_id=self.vc_id,
            ),
            [sink.node for sink in self.sinks],
        )

    # -- receiver feedback ---------------------------------------------------

    def on_credit(self, cumulative_credits: int,
                  from_node: Optional[str] = None) -> None:
        """Track per-receiver grants; release on group-minimum advance."""
        if from_node is None or from_node not in self._credits_seen:
            return
        if cumulative_credits <= self._credits_seen[from_node]:
            return
        self._credits_seen[from_node] = cumulative_credits
        new_min = min(self._credits_seen.values())
        while new_min > self._group_min:
            self._group_min += 1
            self._credits.release()

    def on_nack(self, missing: List[int],
                from_node: Optional[str] = None) -> None:
        """Repair unicast toward the receiver that asked."""
        if from_node is None:
            return
        for seq in missing:
            cached = self._cache.get(seq)
            if cached is None:
                continue
            self.retransmit_count += 1
            retransmission = DataTPDU(
                vc_id=cached.vc_id,
                osdu=cached.osdu,
                seq=cached.seq,
                sent_at_sim=self.sim.now,
                sent_at_local=self.sim.now,
                is_retransmission=True,
            )
            size_bits = int(
                (cached.osdu.size_bytes + DATA_HEADER_BYTES + OPDU.WIRE_BYTES)
                * 8
            )
            self.network.send(
                Packet(
                    src=self.local.node,
                    dst=from_node,
                    payload=retransmission,
                    size_bits=size_bits,
                    priority=_data_priority(self.cos.guarantee),
                    flow_id=self.vc_id,
                )
            )

    def on_ack(self, cumulative_seq: int, advertised=None) -> None:
        """Multicast runs the rate profile only; ACKs are ignored."""

    # -- orchestration-style hooks ------------------------------------------------

    def drop_oldest_unsent(self) -> Optional[int]:
        dropped = self.buffer.drop_oldest_unsent()
        if dropped is None:
            return None
        self._pending_drop_notices.append(dropped.seq)
        return dropped.seq

    def flush(self) -> int:
        flushed = 0
        while True:
            dropped = self.buffer.drop_oldest_unsent()
            if dropped is None:
                break
            self._pending_drop_notices.append(dropped.seq)
            flushed += 1
        self.buffer.dropped_at_source -= flushed
        self.buffer.overwrites += flushed
        self._epoch += 1
        return flushed

    def blocked_time(self, role: str) -> float:
        return self.buffer.blocked_time(role)

    def set_rate(self, rate_bps: float) -> None:
        self.flow.set_rate(rate_bps)

    def close(self) -> None:
        self.open = False
        self._proc.interrupt("closed")


class MulticastGroup:
    """User-facing handle on one established 1:N connection."""

    def __init__(self, send_vc: MulticastSendVC, send_endpoint: VCEndpoint,
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
        """Tear down the group: sender, every sink VC, the reservation."""
        self.send_vc.close()
        source_entity = entities[self.send_vc.local.node]
        source_entity.send_vcs.pop(self.vc_id, None)
        for node, endpoint in self.recv_endpoints.items():
            entity = entities[node]
            recv_vc = entity.recv_vcs.pop(self.vc_id, None)
            if recv_vc is not None:
                recv_vc.close()
            binding = entity.bindings.get(endpoint.vc.local.tsap)
            if binding is not None:
                binding.endpoints.pop(self.vc_id, None)
        if self.reservation is not None:
            source_entity.reservations.release(self.reservation)


def create_multicast(
    entities: Dict[str, TransportEntity],
    src: TransportAddress,
    sinks: List[TransportAddress],
    qos: QoSSpec,
    cos: Optional[ClassOfService] = None,
) -> MulticastGroup:
    """Establish a 1:N CM connection from ``src`` to every sink.

    Admission reserves the multicast tree once; the negotiated contract
    is computed against the *worst* route in the tree (every receiver
    must be servable).  Raises
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
    sink_nodes = [sink.node for sink in sinks]
    # Admission over the tree.
    reservation = None
    offered_bps = qos.throughput.preferred
    try:
        reservation = reservations.reserve_multicast(
            src.node, sink_nodes, min(
                qos.throughput.preferred,
                min(
                    reservations.route_available_bps(src.node, node)
                    for node in sink_nodes if node != src.node
                ),
            ),
        )
        offered_bps = reservation.rate_bps
    except AdmissionError as exc:
        raise ConnectionRefused(f"multicast admission failed: {exc}") from exc
    if offered_bps < qos.throughput.acceptable:
        reservations.release(reservation)
        raise ConnectionRefused("multicast tree below acceptable throughput")
    # Contract from the worst route's characteristics.
    worst_delay = 0.0
    worst_jitter = 0.0
    worst_per = 0.0
    worst_ber = 0.0
    osdu_bits = (qos.max_osdu_bytes + DATA_HEADER_BYTES + OPDU.WIRE_BYTES) * 8
    for node in sink_nodes:
        if node == src.node:
            continue
        links = network.links_on_route(src.node, node)
        delay = sum(l.prop_delay for l in links) + sum(
            osdu_bits / l.bandwidth_bps for l in links
        )
        jitter = sum(l.jitter.bound() for l in links)
        per_ok = 1.0
        ber_ok = 1.0
        for link in links:
            per_ok *= 1.0 - link.loss.expected_loss()
            ber_ok *= 1.0 - link.ber
        worst_delay = max(worst_delay, delay)
        worst_jitter = max(worst_jitter, jitter)
        worst_per = max(worst_per, 1.0 - per_ok)
        worst_ber = max(worst_ber, 1.0 - ber_ok)
    if cos.error_correction:
        worst_per *= worst_per
        worst_ber *= worst_ber
    offer = QoSOffer(
        throughput_bps=offered_bps,
        delay_s=worst_delay,
        jitter_s=worst_jitter,
        packet_error_rate=worst_per,
        bit_error_rate=worst_ber,
    )
    contract = qos.negotiate(offer)
    if contract is None:
        reservations.release(reservation)
        raise ConnectionRefused("multicast QoS unacceptable on some branch")
    vc_id = source_entity.new_vc_id()
    send_vc = MulticastSendVC(
        sim, network, vc_id, src, sinks, contract, cos,
        buffer_osdus=contract.buffer_osdus,
    )
    source_entity.send_vcs[vc_id] = send_vc  # type: ignore[assignment]
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
