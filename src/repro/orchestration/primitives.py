"""Orchestration service primitives (paper Tables 4, 5 and 6).

Two groups, as section 6 describes:

- Group 1 operates over a *grouping* of transport connections:
  Orch.Prime / Orch.Start / Orch.Stop / Orch.Add / Orch.Remove (plus
  session request/release, Table 4, and Orch.Deny).
- Group 2 operates on single connections in a grouping:
  Orch.Regulate / Orch.Delayed / Orch.Event (Table 6).

Application threads see the *indication* forms, delivered into their
VC endpoint's orchestration queue paired with a reply event; the HLO
agent sees confirms, denies and the regulate/event indications through
its session queue on the local LLO.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class OrchPrimitive:
    """Base class for orchestration primitives."""

    orch_session_id: str


@dataclass(frozen=True)
class OrchReply:
    """Application response to an orchestration indication.

    ``accept=False`` is the Orch.Deny.request of Table 5 ("if any
    application thread is not in a position to do this it can reply
    with a Orch.Deny").
    """

    accept: bool = True
    reason: str = ""


# -- indications delivered to source/sink application threads ---------------


@dataclass(frozen=True)
class PrimeIndication(OrchPrimitive):
    """Orch.Prime.indication: start generating / prepare to accept data."""

    vc_id: str = ""
    role: str = ""  # "source" or "sink"


@dataclass(frozen=True)
class StartIndication(OrchPrimitive):
    """Orch.Start.indication: data flow is being (re-)started."""

    vc_id: str = ""
    role: str = ""


@dataclass(frozen=True)
class StopIndication(OrchPrimitive):
    """Orch.Stop.indication: data flow is being frozen."""

    vc_id: str = ""
    role: str = ""


@dataclass(frozen=True)
class AddIndication(OrchPrimitive):
    """Orch.Add.indication: this VC is joining an orchestrated group."""

    vc_id: str = ""
    role: str = ""


@dataclass(frozen=True)
class RemoveIndication(OrchPrimitive):
    """Orch.Remove.indication: this VC is leaving its orchestrated group.

    "When VCs are removed from an orchestrated group they are not
    disconnected and thus data may still be flowing" (section 6.2.4).
    """

    vc_id: str = ""
    role: str = ""


@dataclass(frozen=True)
class DelayedIndication(OrchPrimitive):
    """Orch.Delayed.indication (Table 6).

    "The thread is not running sufficiently fast to produce/consume
    data at a rate required by the client of the location independent
    orchestration service" (section 6.3.3).
    """

    vc_id: str = ""
    source_or_sink: str = ""
    interval_length: float = 0.0
    osdus_behind: int = 0


# -- indications delivered to the HLO agent ----------------------------------


@dataclass(frozen=True)
class OrchRegulateIndication(OrchPrimitive):
    """Orch.Regulate.indication (Table 6): per-interval report.

    Matches the table's parameter list: vc-id, interval-id, OSDU#,
    dropped#, proto-block-times, app-block-times.  The block-time maps
    are keyed ``"source"`` / ``"sink"``.
    """

    vc_id: str = ""
    interval_id: int = 0
    osdu_seq: int = -1
    dropped: int = 0
    proto_block_times: Dict[str, float] = field(default_factory=dict)
    app_block_times: Dict[str, float] = field(default_factory=dict)
    #: Extra instrumentation (not in the paper's table): OSDUs sitting
    #: undelivered in the sink buffer at interval end.
    sink_buffered: int = 0


@dataclass(frozen=True)
class OrchEventIndication(OrchPrimitive):
    """Orch.Event.indication (Table 6): a registered pattern matched."""

    vc_id: str = ""
    event_pattern: int = 0
    osdu_seq: int = -1
    matched_at: float = 0.0
