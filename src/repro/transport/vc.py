"""Simplex virtual-circuit protocol machines.

:class:`SendVC` runs at the source: it drains the shared circular
buffer, paces transmission with the selected flow-control machine, and
serves retransmission requests.  It serves a unicast VC and a 1:N
group alike (paper sections 3.8 and 7): a unicast VC is a group of
one receiver.  :class:`RecvVC` runs at each sink: it reorders/recovers
arriving units, deposits them into the gated receive buffer, returns
credits, and feeds the QoS monitor.

Orchestration coupling (paper section 6.2.1: "a close implementation
relationship between the LLO and the transport service") is exposed as
narrow methods on these classes -- gate control, prime-full waiting,
source drops, buffer flushes, and blocking-time statistics -- which the
local LLO instance invokes.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.packet import Packet, Priority
from repro.netsim.topology import Network
from repro.sim.scheduler import Process, Simulator
from repro.transport.addresses import TransportAddress
from repro.transport.buffers import (
    GatedReceiveBuffer,
    MeterSchedule,
    ROLE_APPLICATION,
    ROLE_PROTOCOL,
    SharedCircularBuffer,
)
from repro.transport.errorcontrol import ReorderBuffer
from repro.transport.flowcontrol import RateBasedFlowControl, WindowBasedFlowControl
from repro.transport.monitor import QoSMonitor
from repro.transport.osdu import OPDU, OSDU
from repro.transport.profiles import ClassOfService, Guarantee, ProtocolProfile
from repro.transport.qos import QoSContract
from repro.transport.tpdu import (
    AckTPDU,
    CreditTPDU,
    DATA_HEADER_BYTES,
    CONTROL_TPDU_BYTES,
    DataTPDU,
    NackTPDU,
)
from repro.sim.sync import TimedSemaphore

#: Default depth (in OSDUs) of source and sink buffers when the user
#: does not override it at connect time.
DEFAULT_BUFFER_OSDUS = 16
#: Retransmission cache depth at the source.
RETRANSMIT_CACHE = 256


def _data_priority(guarantee: Guarantee) -> Priority:
    if guarantee is Guarantee.BEST_EFFORT:
        return Priority.BEST_EFFORT
    return Priority.RESERVED


class SendVC:
    """Source-side protocol machine for one simplex VC or 1:N group.

    Every receiver of a group gets each unit down the source-rooted
    tree in one transmission; the credit loop lets the source run at
    most the pipeline depth ahead of the *slowest* receiver; a repair
    goes only to the receiver that asked, so one lossy branch does not
    re-flood the tree.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        vc_id: str,
        local: TransportAddress,
        receivers: Tuple[TransportAddress, ...],
        contract: QoSContract,
        profile: ProtocolProfile,
        cos: ClassOfService,
        buffer_osdus: int = DEFAULT_BUFFER_OSDUS,
    ):
        self.sim = sim
        self.network = network
        self._send_packet = network.send
        self.vc_id = vc_id
        self.local = local
        self.receivers = receivers
        #: Where a first transmission goes: the one receiver's node, or
        #: None for the whole group down its tree.
        self._dst: Optional[str] = (
            receivers[0].node if len(receivers) == 1 else None
        )
        self.contract = contract
        self.profile = profile
        self.cos = cos
        self.buffer = SharedCircularBuffer(sim, buffer_osdus)
        self.open = True
        self._next_seq = 0
        #: Interned tracer track + per-packet constants, hoisted off
        #: the per-OSDU path.
        self._track = sys.intern(f"vc:{vc_id}")
        self._priority = _data_priority(cos.guarantee)
        #: Whether transmitted TPDUs are parked in the retransmit cache.
        self._cache_sends = (cos.error_correction
                             or profile is ProtocolProfile.WINDOW_BASED)
        #: Whether first transmissions use the recycled-TPDU fast path.
        #: A cached TPDU is aliased by the cache, and a group's by every
        #: tree copy, so neither may be pooled.
        self._pool_sends = not self._cache_sends and self._dst is not None
        self._cache: Dict[int, DataTPDU] = {}
        self.sent_count = 0
        self.retransmit_count = 0
        self._pending_drop_notices: List[int] = []
        # Bumped by flush(): invalidates the unit the sender loop may
        # already hold, so no pre-seek data leaks out after a flush.
        self._epoch = 0
        if profile is ProtocolProfile.CM_RATE_BASED:
            self.flow: RateBasedFlowControl = RateBasedFlowControl(
                sim, contract.throughput_bps
            )
            self.window: Optional[WindowBasedFlowControl] = None
            self._credits = TimedSemaphore(sim, buffer_osdus)
            #: Cumulative credit grant per receiver node; the credits
            #: released so far are their minimum.
            self._grants: Dict[str, int] = {r.node: 0 for r in receivers}
            self._credits_seen = 0
        else:
            self.flow = None  # type: ignore[assignment]
            self.window = WindowBasedFlowControl(sim)
            self.window.on_retransmit = self._go_back_n
            self._credits = None  # type: ignore[assignment]
        self._proc: Process = sim.spawn(self._sender_loop(), name=f"send:{vc_id}")

    # -- user side ---------------------------------------------------------

    def alloc_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def write(self, osdu: OSDU):
        """Coroutine: application writes one OSDU into the shared buffer.

        The OSDU sequence number is assigned here -- at write time -- so
        that source-side regulation drops leave sequence gaps the sink
        can skip over (section 6.3.1.1).
        """
        if osdu.size_bytes > self.contract.max_osdu_bytes:
            raise ValueError(
                f"OSDU of {osdu.size_bytes} B exceeds negotiated maximum "
                f"{self.contract.max_osdu_bytes} B"
            )
        stamped = osdu.with_opdu(self.alloc_seq())
        if stamped.created_at is None:
            stamped.created_at = self.sim.now
        epoch = self._epoch
        yield from self.buffer.put(stamped, ROLE_APPLICATION)
        if epoch != self._epoch:
            # A flush (stop + seek) ran while this write was blocked:
            # the unit belongs to the pre-seek epoch and must not leak.
            if self.buffer.retract(stamped):
                self._pending_drop_notices.append(stamped.seq)

    def try_write(self, osdu: OSDU) -> bool:
        """Non-blocking write; False when the shared buffer is full."""
        if osdu.size_bytes > self.contract.max_osdu_bytes:
            raise ValueError(
                f"OSDU of {osdu.size_bytes} B exceeds negotiated maximum "
                f"{self.contract.max_osdu_bytes} B"
            )
        stamped = osdu.with_opdu(self.alloc_seq())
        if stamped.created_at is None:
            stamped.created_at = self.sim.now
        if self.buffer.try_put(stamped):
            return True
        # The slot was not taken: roll the sequence back so numbering
        # stays dense for callers that retry.
        self._next_seq -= 1
        return False

    # -- protocol loop -------------------------------------------------------

    def _sender_loop(self):
        while True:
            osdu = yield from self.buffer.get(ROLE_PROTOCOL)
            if not self.open:
                return
            epoch = self._epoch
            size_bits = (osdu.size_bytes + DATA_HEADER_BYTES + OPDU.WIRE_BYTES) * 8
            if self.profile is ProtocolProfile.CM_RATE_BASED:
                yield self._credits.acquire(ROLE_PROTOCOL)
                yield from self.flow.acquire_slot(int(size_bits))
            else:
                yield from self.window.acquire_slot(int(size_bits))
            if not self.open:
                return
            if epoch != self._epoch:
                # A flush ran while this unit was waiting for its send
                # slot: it is pre-seek data and must not leak out.
                self._pending_drop_notices.append(osdu.seq)
                if self.profile is ProtocolProfile.CM_RATE_BASED:
                    self._credits.release()
                continue
            self._transmit(osdu)

    def _transmit(self, osdu: OSDU) -> None:
        if self._pending_drop_notices:
            notices, self._pending_drop_notices = self._pending_drop_notices, []
        else:
            notices = None
        now = self.sim._now
        backlogged = len(self.buffer) > 0
        if self._pool_sends:
            tpdu = DataTPDU.acquire(
                self.vc_id, osdu, osdu.seq, now, now,
                dropped_seqs=notices, backlogged=backlogged,
            )
        else:
            tpdu = DataTPDU(
                vc_id=self.vc_id,
                osdu=osdu,
                seq=osdu.seq,
                sent_at_sim=now,
                sent_at_local=now,
                backlogged=backlogged,
                dropped_seqs=notices if notices is not None else [],
            )
            if self._cache_sends:
                cache = self._cache
                cache[osdu.seq] = tpdu
                if len(cache) > RETRANSMIT_CACHE:
                    # Inserted in increasing seq: the first key is the oldest.
                    del cache[next(iter(cache))]
        self.sent_count += 1
        self._send(tpdu, osdu.size_bytes, self._dst)

    def _send(self, tpdu: DataTPDU, payload_bytes: int,
              dst: Optional[str]) -> None:
        """Put ``tpdu`` on the wire to node ``dst``, or to every
        receiver down the group tree when ``dst`` is None."""
        size_bits = int((payload_bytes + DATA_HEADER_BYTES + OPDU.WIRE_BYTES) * 8)
        if dst is not None:
            packet = Packet.acquire(
                self.local.node, dst, tpdu, size_bits, self._priority,
                self.vc_id,
            )
        else:
            # Every tree copy aliases this packet: it is never pooled.
            packet = Packet(
                self.local.node, f"group:{self.vc_id}", tpdu, size_bits,
                self._priority, self.vc_id,
            )
        trace = self.sim.trace
        if trace.packets:
            # Causal parent: TPDU -> netsim packet id (the auditor's
            # drill-down joins on packet_id end to end).
            trace.instant(
                "tpdu.tx", track=self._track, cat="causal",
                args={
                    "packet_id": packet.packet_id,
                    "vc": self.vc_id,
                    "seq": tpdu.seq,
                    "kind": "data",
                },
            )
        if dst is not None:
            self._send_packet(packet)
        else:
            self.network.send_multicast(
                packet, [receiver.node for receiver in self.receivers]
            )

    # -- feedback from the receiver -------------------------------------------

    def on_credit(self, cumulative_credits: int, from_node: str) -> None:
        """Apply a (cumulative) credit grant from receiver ``from_node``.

        Credits are carried as a running total so that lost CreditTPDUs
        are repaired by any later one.  Send credits are released as
        the minimum over the receivers advances: the slowest receiver
        gates a group.
        """
        if self._credits is None:
            return
        grants = self._grants
        # Stale, or from a node that is not a receiver: nothing to do.
        if cumulative_credits <= grants.get(from_node, cumulative_credits):
            return
        grants[from_node] = cumulative_credits
        low = min(grants.values())
        fresh = low - self._credits_seen
        if fresh <= 0:
            return
        self._credits_seen = low
        for _ in range(fresh):
            self._credits.release()

    def on_nack(self, missing: List[int],
                from_node: Optional[str] = None) -> None:
        """Selective retransmission (rate profile with correction).

        Each repair goes to ``from_node``, the receiver that asked, or
        down the tree to every receiver when no one node asked.
        """
        trace = self.sim.trace
        if trace.enabled:
            trace.instant(
                "nack.recv", track=self._track, cat="recovery",
                args={"missing": list(missing)},
            )
        for seq in missing:
            cached = self._cache.get(seq)
            if cached is None:
                continue
            retransmission = DataTPDU(
                vc_id=cached.vc_id,
                osdu=cached.osdu,
                seq=cached.seq,
                sent_at_sim=self.sim.now,
                sent_at_local=self.sim.now,
                is_retransmission=True,
            )
            self.retransmit_count += 1
            if trace.enabled:
                trace.instant(
                    "retransmit", track=self._track, cat="recovery",
                    args={"seq": seq},
                )
            self._send(retransmission, cached.osdu.size_bytes, from_node)

    def on_ack(self, cumulative_seq: int,
               advertised: Optional[int] = None) -> None:
        if self.window is None:
            return
        self.window.on_ack(cumulative_seq, advertised)
        cache = self._cache
        while cache:
            seq = next(iter(cache))
            if seq >= cumulative_seq:
                break
            del cache[seq]

    def _go_back_n(self, base: int, next_seq: int) -> None:
        trace = self.sim.trace
        if trace.enabled:
            trace.instant(
                "go-back-n", track=self._track, cat="recovery",
                args={"base": base, "next_seq": next_seq},
            )
        for seq in range(base, next_seq):
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
            self._send(retransmission, cached.osdu.size_bytes, self._dst)

    # -- outage recovery (source side) ------------------------------------------

    @property
    def credits_seen(self) -> int:
        """Cumulative credit total acknowledged by every receiver.

        Monotonic while the credit loop is alive; the degradation
        machinery uses *progress* of this value as its path-recovered
        signal (0 for non-credit profiles).
        """
        if self._credits is None:
            return 0
        return self._credits_seen

    def probe_credit(self) -> None:
        """Release one out-of-band send credit (outage probing).

        A network outage can park the whole credit window: every
        in-flight unit is lost, its credit is only refunded once a
        *later* arrival exposes the gap at the sink, and the sender has
        no credit left to send that exposing unit -- a tail-loss
        deadlock.  The entity breaks it by releasing one probe credit
        per probe interval; the first unit through after recovery
        exposes the gap and the parked credits flow back.  Each probe
        inflates the window by at most one credit; the sink's
        overflow rule (failed deposits do not refund) bounds and
        re-absorbs the excess.
        """
        if self._credits is not None:
            self._credits.release()

    # -- orchestration hooks (source side) --------------------------------------

    def drop_oldest_unsent(self) -> Optional[int]:
        """Discard one queued OSDU; returns its sequence number.

        The sequence gap is announced to the sink piggybacked on the
        next data TPDU so it can never overtake in-flight data and is
        not mistaken for network loss (nor NACKed).
        """
        dropped = self.buffer.drop_oldest_unsent()
        if dropped is None:
            return None
        self._pending_drop_notices.append(dropped.seq)
        return dropped.seq

    def flush(self) -> int:
        """Clean out unsent data (prime after seek, section 6.2.1).

        Every discarded sequence number is announced in-band so the
        sink's release line skips it instead of counting network loss
        (which would also corrupt the credit accounting).
        """
        flushed = 0
        while True:
            dropped = self.buffer.drop_oldest_unsent()
            if dropped is None:
                break
            self._pending_drop_notices.append(dropped.seq)
            flushed += 1
        # Flushes are administrative, not regulation drops.
        self.buffer.dropped_at_source -= flushed
        self.buffer.overwrites += flushed
        self._epoch += 1
        return flushed

    def blocked_time(self, role: str) -> float:
        """Blocking time of ``role`` at the source.

        For the protocol role, only *data starvation* (waiting on the
        shared buffer for the application to produce) is counted:
        waiting for flow-control credits is downstream backpressure and
        must not be attributed to the source application (section
        6.3.1.2's fault attribution depends on this distinction).
        """
        if role == ROLE_PROTOCOL:
            return self.buffer.blocked_time(role)
        total = self.buffer.blocked_time(role)
        if self._credits is not None:
            total += self._credits.blocked_time(role)
        return total

    def backpressure_time(self) -> float:
        """Time the sender spent waiting for flow-control credits."""
        if self._credits is None:
            return 0.0
        return self._credits.blocked_time(ROLE_PROTOCOL)

    def reset_blocking_stats(self) -> None:
        self.buffer.reset_blocking_stats()
        if self._credits is not None:
            self._credits.reset_stats()

    # -- lifecycle ----------------------------------------------------------------

    def set_rate(self, rate_bps: float) -> None:
        if self.flow is not None:
            self.flow.set_rate(rate_bps)

    def close(self) -> None:
        self.open = False
        if self.window is not None:
            self.window.reset()
        self._proc.interrupt("closed")


class RecvVC:
    """Sink-side protocol machine for one simplex VC."""

    def __init__(
        self,
        sim: Simulator,
        send_packet: Callable[[Packet], None],
        vc_id: str,
        local: TransportAddress,
        remote: TransportAddress,
        contract: QoSContract,
        profile: ProtocolProfile,
        cos: ClassOfService,
        buffer_osdus: int = DEFAULT_BUFFER_OSDUS,
        monitor: Optional[QoSMonitor] = None,
        gap_timeout: float = 0.05,
    ):
        self.sim = sim
        self._send_packet = send_packet
        self.vc_id = vc_id
        self._track = sys.intern(f"vc:{vc_id}")
        self.local = local
        self.remote = remote
        self.contract = contract
        self.profile = profile
        self.cos = cos
        self.buffer = GatedReceiveBuffer(sim, buffer_osdus)
        self.buffer.on_take = self._on_app_take  # type: ignore[attr-defined]
        self.monitor = monitor
        self.open = True
        self.reorder = ReorderBuffer(
            sim,
            correction_enabled=cos.error_correction
            and profile is ProtocolProfile.CM_RATE_BASED,
            gap_timeout=gap_timeout,
            # The CM profile recovers by selective NACK; the window
            # profile is the classic baseline -- cumulative ACKs and the
            # sender's go-back-N timer only, no receiver-driven repair.
            nack=(
                self._send_nack
                if profile is ProtocolProfile.CM_RATE_BASED
                else None
            ),
            reliable=profile is ProtocolProfile.WINDOW_BASED,
            name=vc_id,
        )
        self.reorder.on_release = self._on_release
        self._skipped: set[int] = set()
        self.highest_released_seq: Optional[int] = None
        self.source_dropped_count = 0
        self.lost_count = 0
        self.corrupted_discards = 0
        self._credits_granted_total = 0
        self._credits_unsent = 0
        self._credit_batch = max(1, buffer_osdus // 4)
        self._delay_by_seq: Dict[int, tuple[float, bool, int, bool]] = {}
        #: Observers invoked with every in-order released OSDU; the LLO
        #: registers its Orch.Event matcher here (section 6.3.4) and
        #: instrumentation may add its own.
        self._release_observers: List[Callable[[OSDU], None]] = []

    # -- arrival path ---------------------------------------------------------

    def on_data(self, tpdu: DataTPDU, corrupted: bool) -> None:
        if not self.open:
            return
        if tpdu.dropped_seqs:
            # Piggybacked source-drop notices: apply them and the data
            # unit in ascending sequence order so the release line never
            # advances past data carried in this same TPDU.
            below = sorted(s for s in tpdu.dropped_seqs if s < tpdu.seq)
            above = sorted(s for s in tpdu.dropped_seqs if s > tpdu.seq)
            for seq in below:
                self._skipped.add(seq)
                self.reorder.on_arrival(seq, None)
            self._on_data_unit(tpdu, corrupted)
            for seq in above:
                self._skipped.add(seq)
                self.reorder.on_arrival(seq, None)
            return
        if tpdu.osdu is None:
            # Standalone drop notice (no data followed).
            self._skipped.add(tpdu.seq)
            self.reorder.on_arrival(tpdu.seq, None)
            return
        self._on_data_unit(tpdu, corrupted)

    def _on_data_unit(self, tpdu: DataTPDU, corrupted: bool) -> None:
        if tpdu.osdu is None:
            self._skipped.add(tpdu.seq)
            self.reorder.on_arrival(tpdu.seq, None)
            return
        if corrupted and self.cos.error_detection:
            self.corrupted_discards += 1
            if (
                self.reorder.correction_enabled
                and self.profile is ProtocolProfile.CM_RATE_BASED
            ):
                self._send_nack([tpdu.seq])
            # Without correction the discarded unit will surface as a
            # gap and its credit is returned at release time; with
            # correction the retransmission reuses the original credit.
            return
        self._delay_by_seq[tpdu.seq] = (
            self.sim.now - tpdu.sent_at_sim,
            corrupted,
            int(tpdu.osdu.size_bytes),
            tpdu.backlogged,
        )
        if len(self._delay_by_seq) > 4 * RETRANSMIT_CACHE:
            self._delay_by_seq.pop(min(self._delay_by_seq))
        self.reorder.on_arrival(tpdu.seq, tpdu.osdu)
        if self.profile is ProtocolProfile.WINDOW_BASED:
            self._send_control(
                AckTPDU.acquire(
                    self.vc_id,
                    self.reorder.next_expected,
                    self.buffer.free_slots,
                )
            )

    def _on_release(self, osdu: Optional[OSDU], seq: int) -> None:
        self.highest_released_seq = seq
        if osdu is None:
            if seq in self._skipped:
                self._skipped.discard(seq)
                self.source_dropped_count += 1
                # Source drops never consumed a sender credit, so none
                # is returned.
            else:
                self.lost_count += 1
                if self.monitor is not None:
                    self.monitor.record_loss()
                # The lost unit consumed a sender credit but will never
                # occupy a buffer slot; return the credit so the credit
                # loop does not leak.
                self._return_credit()
            return
        delay_info = self._delay_by_seq.pop(seq, None)
        if self.monitor is not None and delay_info is not None:
            delay, corrupted, size_bytes, backlogged = delay_info
            # Account wire bits (payload + headers) so the throughput
            # observation is commensurate with the contracted rate,
            # which the sender's pacing applies to wire bits.
            wire_bits = (size_bytes + DATA_HEADER_BYTES + OPDU.WIRE_BYTES) * 8
            self.monitor.record_delivery(
                size_bits=wire_bits, delay_s=delay, corrupted=corrupted,
                backlogged=backlogged,
            )
        for observer in self._release_observers:
            observer(osdu)
        # A failed deposit (overflow) deliberately does NOT return the
        # credit: refunding it would license the sender to keep
        # overrunning the full buffer at line rate.
        self.buffer.deposit(osdu)

    # -- application consumption → credits ---------------------------------------

    def _on_app_take(self) -> None:
        if self.profile is ProtocolProfile.WINDOW_BASED:
            # Window update: the application freed a buffer slot; a
            # zero-window-stalled sender needs to hear about it.
            self._send_control(
                AckTPDU.acquire(
                    self.vc_id,
                    self.reorder.next_expected,
                    self.buffer.free_slots,
                )
            )
            return
        self._return_credit()

    def _return_credit(self) -> None:
        if self.profile is not ProtocolProfile.CM_RATE_BASED or not self.open:
            return
        self._credits_granted_total += 1
        self._credits_unsent += 1
        # Flush credits in batches, or immediately once the buffer has
        # drained (otherwise a blocked sender and an idle receiver could
        # deadlock on sub-batch credit remainders).  The TPDU carries the
        # *cumulative* grant so lost credit messages heal on the next one.
        if self._credits_unsent >= self._credit_batch or len(self.buffer) == 0:
            self._send_control(
                CreditTPDU.acquire(self.vc_id, self._credits_granted_total)
            )
            self._credits_unsent = 0

    # -- control transmission ------------------------------------------------------

    def _send_nack(self, missing: List[int]) -> None:
        relevant = [s for s in missing if s not in self._skipped]
        if relevant:
            trace = self.sim.trace
            if trace.enabled:
                trace.instant(
                    "nack.send", track=self._track, cat="recovery",
                    args={"missing": list(relevant)},
                )
            self._send_control(NackTPDU(vc_id=self.vc_id, missing=relevant))

    def _send_control(self, tpdu) -> None:
        packet = Packet.acquire(
            self.local.node,
            self.remote.node,
            tpdu,
            CONTROL_TPDU_BYTES * 8,
            Priority.CONTROL,
            self.vc_id,
        )
        trace = self.sim.trace
        if trace.packets:
            trace.instant(
                "tpdu.tx", track=self._track, cat="causal",
                args={
                    "packet_id": packet.packet_id,
                    "vc": self.vc_id,
                    "kind": type(tpdu).__name__,
                },
            )
        self._send_packet(packet)

    # -- orchestration hooks (sink side) -----------------------------------------------

    def close_gate(self) -> None:
        self._trace_gate("closed")
        self.buffer.close_gate()

    def open_gate(self) -> None:
        self._trace_gate("open")
        self.buffer.open_gate()

    def meter_gate(self) -> None:
        self._trace_gate("metered")
        self.buffer.meter()

    def _trace_gate(self, state: str) -> None:
        trace = self.sim.trace
        if trace.enabled:
            trace.instant(
                f"gate:{state}", track=self._track, cat="gate",
            )

    def grant(self, schedule: MeterSchedule) -> None:
        """Pace the metered gate by one regulation interval's schedule."""
        self.buffer.grant(schedule)

    def when_primed(self):
        return self.buffer.when_full()

    def flush(self) -> int:
        """Discard buffered data and skip state (stop + seek).

        Every flushed OSDU consumed a sender credit when it was
        deposited; the credits are returned so the source can refill
        the pipeline for the subsequent primed start.
        """
        flushed = self.buffer.flush()
        for _ in range(flushed):
            self._return_credit()
        return flushed

    def add_release_observer(self, observer: Callable[[OSDU], None]) -> None:
        """Subscribe to every in-order released OSDU."""
        self._release_observers.append(observer)

    def delivered_seq(self) -> int:
        """Highest OSDU sequence number delivered to the application."""
        if self.buffer.last_delivered_seq is None:
            return -1
        return self.buffer.last_delivered_seq

    def blocked_time(self, role: str) -> float:
        if role == ROLE_PROTOCOL:
            # The sink protocol never parks on a semaphore in this
            # implementation; report buffer-congestion time instead --
            # the time deliveries could not progress because the
            # application left the buffer (effectively) full.
            return self.buffer.congested_time()
        return self.buffer.blocked_time(role)

    def reset_blocking_stats(self) -> None:
        self.buffer.reset_blocking_stats()

    # -- lifecycle ------------------------------------------------------------------------

    def close(self) -> None:
        self.open = False
        if self.monitor is not None:
            self.monitor.stop()
        self.reorder.reset()
