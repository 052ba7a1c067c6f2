"""The three-level orchestration service (paper sections 5 and 6).

Orchestration co-ordinates multiple related transport connections --
the canonical example being lip synchronisation of separately stored
and transmitted audio and video.  The architecture distributes
functionality over three layers, "each layer provides policy to its
lower neighbour and mechanism to its upper neighbour":

- :class:`HighLevelOrchestrator` (HLO) -- the platform-level ADT
  service: applications hand it Streams and a policy; it selects the
  *orchestrating node* (the node common to the greatest number of VCs)
  and instantiates an agent there.
- :class:`HLOAgent` -- one per orchestrated group, running on the
  orchestrating node: a continuous feedback loop that sets per-interval
  flow-rate targets against the master reference clock, analyses the
  reports (including blocking-time fault attribution) and takes
  compensatory action.
- :class:`LLOInstance` -- one per node: the mechanism layer.  Executes
  the Orch primitives of Tables 4-6 (prime/start/stop/add/remove,
  regulate, delayed, event) against the local transport entity on a
  best-effort basis.

On top of the three paper layers sits the desired-state control plane
(:mod:`repro.orchestration.controlplane`): a reconciler that consumes
at-least-once ``ready``/``unready`` hook events
(:mod:`repro.orchestration.events`), enforces at-most-one worker lease
per stream (:mod:`repro.orchestration.lease`), and drives the
T-Connect -> Orch lifecycles to keep actual state converged with
desired state.
"""

from repro.orchestration.primitives import (
    OrchEventIndication,
    OrchPrimitive,
    OrchRegulateIndication,
    OrchReply,
    PrimeIndication,
    StartIndication,
    StopIndication,
    DelayedIndication,
)
from repro.orchestration.llo import LLOInstance, auto_orch_responder, build_llos
from repro.orchestration.hlo_agent import (
    HLOAgent,
    IntervalReport,
    RegulationConfig,
    StreamSpec,
)
from repro.orchestration.hlo import (
    HighLevelOrchestrator,
    OrchestrationError,
    OrchestrationSession,
    select_orchestrating_node,
)
from repro.orchestration.policy import CompensationAction, OrchestrationPolicy
from repro.orchestration.clock_sync import NTPLikeSynchronizer
from repro.orchestration.events import (
    DesiredTable,
    FlakyHookChannel,
    HookDeliveryConfig,
    HookEvent,
    StreamHookSource,
)
from repro.orchestration.lease import Lease, LeaseError, LeaseTable
from repro.orchestration.controlplane import (
    ControlPlane,
    ControlPlaneError,
    ControlPlanePolicy,
    PublisherHandle,
    StreamTemplate,
)

__all__ = [
    "CompensationAction",
    "ControlPlane",
    "ControlPlaneError",
    "ControlPlanePolicy",
    "DelayedIndication",
    "DesiredTable",
    "FlakyHookChannel",
    "HLOAgent",
    "HighLevelOrchestrator",
    "HookDeliveryConfig",
    "HookEvent",
    "IntervalReport",
    "LLOInstance",
    "Lease",
    "LeaseError",
    "LeaseTable",
    "NTPLikeSynchronizer",
    "OrchEventIndication",
    "OrchPrimitive",
    "OrchRegulateIndication",
    "OrchReply",
    "OrchestrationError",
    "OrchestrationPolicy",
    "OrchestrationSession",
    "PrimeIndication",
    "PublisherHandle",
    "RegulationConfig",
    "StartIndication",
    "StopIndication",
    "StreamHookSource",
    "StreamSpec",
    "StreamTemplate",
    "auto_orch_responder",
    "build_llos",
    "select_orchestrating_node",
]
