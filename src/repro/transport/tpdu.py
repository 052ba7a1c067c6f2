"""Transport protocol data units (wire messages between entities).

These are internal to the protocol; service users only ever see the
primitives of :mod:`repro.transport.primitives`.  All TPDUs share the
host handler key ``"tpdu"`` so a single
:class:`~repro.transport.entity.TransportEntity` per node receives them.

The remote-connect TPDUs implement Figure 3 of the paper: the
initiator's entity relays the T-Connect.request to the *source* entity,
which runs the conventional connect protocol toward the destination and
relays the outcome back to the initiator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, List, Optional

from repro.sim.pool import Freelist
from repro.transport.addresses import TransportAddress
from repro.transport.osdu import OSDU
from repro.transport.primitives import (
    TConnectRequest,
    TDisconnectRequest,
    TRenegotiateRequest,
)
from repro.transport.qos import QoSContract, QoSOffer

#: Wire overhead of a data TPDU header (bytes): vc-id, sequence,
#: timestamps, checksum.
DATA_HEADER_BYTES = 32

#: Shared empty drop-notice list.  Used as the ``dropped_seqs`` of
#: every data TPDU that carries no notices (the overwhelmingly common
#: case) so the hot path allocates nothing.  MUST never be mutated;
#: receivers only iterate it.
_EMPTY_DROPS: List[int] = []
#: Nominal wire size of a control TPDU (bytes).
CONTROL_TPDU_BYTES = 64


@dataclass(slots=True)
class TPDU:
    """Base class: everything routed to the transport entity."""

    handler_key = "tpdu"


# -- connection establishment ------------------------------------------------


@dataclass(slots=True)
class ConnectRequestTPDU(TPDU):
    """CR: source entity -> destination entity."""

    request: TConnectRequest = None  # type: ignore[assignment]
    #: What the network could offer when the CR left the source; the
    #: destination clamps further.
    offer: QoSOffer = None  # type: ignore[assignment]


@dataclass(slots=True)
class ConnectConfirmTPDU(TPDU):
    """CC: destination entity -> source entity (call accepted)."""

    vc_id: str = ""
    contract: QoSContract = None  # type: ignore[assignment]


@dataclass(slots=True)
class ConnectRejectTPDU(TPDU):
    """Destination refuses the call (maps to T-Disconnect.indication)."""

    vc_id: str = ""
    reason: str = ""


# -- remote connect (Figures 2 and 3) ----------------------------------------


@dataclass(slots=True)
class RemoteConnectTPDU(TPDU):
    """Initiator entity -> source entity: please establish this VC."""

    request: TConnectRequest = None  # type: ignore[assignment]


@dataclass(slots=True)
class RemoteOutcomeTPDU(TPDU):
    """Source entity -> initiator entity: final outcome of the call.

    "It is necessary that the transport service passes all management
    responses, such as connects or disconnects, to both the initiator
    and source addresses" (section 3.5).
    """

    vc_id: str = ""
    accepted: bool = False
    contract: Optional[QoSContract] = None
    reason: str = ""
    request: Optional[TConnectRequest] = None


@dataclass(slots=True)
class RemoteDisconnectTPDU(TPDU):
    """Initiator entity -> source/destination entity: release the VC."""

    request: TDisconnectRequest = None  # type: ignore[assignment]


# -- release ------------------------------------------------------------------


@dataclass(slots=True)
class DisconnectTPDU(TPDU):
    """DR: one end releases; the peer raises T-Disconnect.indication."""

    vc_id: str = ""
    initiator: Optional[TransportAddress] = None
    reason: str = ""


# -- renegotiation (Table 3) ---------------------------------------------------


@dataclass(slots=True)
class RenegotiateRequestTPDU(TPDU):
    """Source entity -> destination entity, carrying the new tolerances."""

    request: TRenegotiateRequest = None  # type: ignore[assignment]
    offer: QoSOffer = None  # type: ignore[assignment]


@dataclass(slots=True)
class RenegotiateConfirmTPDU(TPDU):
    vc_id: str = ""
    contract: QoSContract = None  # type: ignore[assignment]


@dataclass(slots=True)
class RenegotiateRejectTPDU(TPDU):
    vc_id: str = ""
    reason: str = ""


@dataclass(slots=True)
class RemoteRenegotiateTPDU(TPDU):
    """Initiator entity -> source entity (remote renegotiation)."""

    request: TRenegotiateRequest = None  # type: ignore[assignment]


@dataclass(slots=True)
class RemoteRenegotiateOutcomeTPDU(TPDU):
    vc_id: str = ""
    accepted: bool = False
    contract: Optional[QoSContract] = None
    reason: str = ""
    request: Optional[TRenegotiateRequest] = None


# -- data path ------------------------------------------------------------------


@dataclass(slots=True)
class DataTPDU(TPDU):
    """DT: one OSDU plus its OPDU fields.

    ``sent_at_sim`` is simulator (true) time, used by the omniscient
    QoS monitor; ``sent_at_local`` is the sender's drifting local
    clock, which is all a real receiver would have.

    Hot-path note: data TPDUs that nobody retains (no retransmit cache)
    are recycled through a freelist -- build them with :meth:`acquire`;
    the receiving entity returns them after the VC consumed the fields
    it keeps.  TPDUs parked in a sender's retransmit cache MUST be
    built with the plain constructor (never pooled), because the cached
    object and the in-flight object are the same reference.
    """

    vc_id: str = ""
    osdu: OSDU = None  # type: ignore[assignment]
    seq: int = 0
    sent_at_sim: float = 0.0
    sent_at_local: float = 0.0
    is_retransmission: bool = False
    #: Sequence numbers discarded at the source (regulation drops or
    #: seek flushes) since the previous data TPDU.  Piggybacked so the
    #: notices can never overtake in-flight data and the sink's release
    #: line skips them instead of counting loss.
    dropped_seqs: List[int] = field(default_factory=list)
    #: True when more data was queued behind this unit at the source.
    #: The sink's monitor only trusts throughput observations made
    #: while the source was backlogged -- otherwise low delivered
    #: throughput just means the application had nothing to send.
    backlogged: bool = False
    #: True while owned by the pooled data path; set only by
    #: :meth:`acquire`, cleared by :meth:`release`.
    _pooled: bool = field(default=False, repr=False, compare=False)

    _POOL: ClassVar[Freelist] = Freelist()

    @classmethod
    def acquire(
        cls,
        vc_id: str,
        osdu: OSDU,
        seq: int,
        sent_at_sim: float,
        sent_at_local: float,
        dropped_seqs: Optional[List[int]] = None,
        backlogged: bool = False,
    ) -> "DataTPDU":
        """A recycled (or fresh) data TPDU, marked for pool return.

        Only for TPDUs the sender does not retain; retransmissions come
        out of the retransmit cache and are never pooled.
        """
        tpdu = cls._POOL.get()
        drops = _EMPTY_DROPS if dropped_seqs is None else dropped_seqs
        if tpdu is None:
            return cls(vc_id, osdu, seq, sent_at_sim, sent_at_local,
                       False, drops, backlogged, _pooled=True)
        tpdu.vc_id = vc_id
        tpdu.osdu = osdu
        tpdu.seq = seq
        tpdu.sent_at_sim = sent_at_sim
        tpdu.sent_at_local = sent_at_local
        tpdu.is_retransmission = False
        tpdu.dropped_seqs = drops
        tpdu.backlogged = backlogged
        tpdu._pooled = True
        return tpdu

    @classmethod
    def release(cls, tpdu: "DataTPDU") -> None:
        """Return a pooled data TPDU; no-op for constructor-made ones."""
        if not tpdu._pooled:
            return
        tpdu._pooled = False
        tpdu.osdu = None
        tpdu.dropped_seqs = _EMPTY_DROPS
        cls._POOL.put(tpdu)


@dataclass(slots=True)
class CreditTPDU(TPDU):
    """Receiver -> sender: cumulative flow-control credit grant.

    ``credits`` is the *running total* of grants since the connection
    started, so a lost credit message is repaired by any later one.

    The credit loop is what lets ``Orch.Prime``/``Orch.Stop`` block the
    source through the protocol's own flow control (sections 6.2.1 and
    6.2.3): when the sink gate is closed the application stops
    consuming, credits stop flowing, and the sender stalls with the
    pipeline full.
    """

    vc_id: str = ""
    credits: int = 0
    _pooled: bool = field(default=False, repr=False, compare=False)

    _POOL: ClassVar[Freelist] = Freelist()

    @classmethod
    def acquire(cls, vc_id: str, credits: int) -> "CreditTPDU":
        """A recycled (or fresh) credit grant, marked for pool return."""
        tpdu = cls._POOL.get()
        if tpdu is None:
            return cls(vc_id, credits, _pooled=True)
        tpdu.vc_id = vc_id
        tpdu.credits = credits
        tpdu._pooled = True
        return tpdu

    @classmethod
    def release(cls, tpdu: "CreditTPDU") -> None:
        """Return a pooled credit TPDU; no-op for constructor-made ones."""
        if not tpdu._pooled:
            return
        tpdu._pooled = False
        cls._POOL.put(tpdu)


@dataclass(slots=True)
class NackTPDU(TPDU):
    """Receiver -> sender: selective retransmission request."""

    vc_id: str = ""
    missing: List[int] = field(default_factory=list)


@dataclass(slots=True)
class AckTPDU(TPDU):
    """Receiver -> sender: cumulative ACK (window profile only).

    ``advertised`` is the receiver's free buffer space in OSDUs -- the
    window advertisement every period window transport carried (TP4,
    TCP); without it a sender would overrun a gated receiver.
    """

    vc_id: str = ""
    cumulative_seq: int = 0
    advertised: int = 1 << 16
    _pooled: bool = field(default=False, repr=False, compare=False)

    _POOL: ClassVar[Freelist] = Freelist()

    @classmethod
    def acquire(cls, vc_id: str, cumulative_seq: int,
                advertised: int) -> "AckTPDU":
        """A recycled (or fresh) cumulative ACK, marked for pool return."""
        tpdu = cls._POOL.get()
        if tpdu is None:
            return cls(vc_id, cumulative_seq, advertised, _pooled=True)
        tpdu.vc_id = vc_id
        tpdu.cumulative_seq = cumulative_seq
        tpdu.advertised = advertised
        tpdu._pooled = True
        return tpdu

    @classmethod
    def release(cls, tpdu: "AckTPDU") -> None:
        """Return a pooled ACK TPDU; no-op for constructor-made ones."""
        if not tpdu._pooled:
            return
        tpdu._pooled = False
        cls._POOL.put(tpdu)


@dataclass(slots=True)
class QoSReportTPDU(TPDU):
    """Sink entity -> initiator entity: degradation report payload."""

    vc_id: str = ""
    indication: object = None
