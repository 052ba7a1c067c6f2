"""Simulated multiservice packet network.

This package stands in for the Lancaster testbed's transputer-based
"real-time high-speed network emulator" (paper section 2.1).  It
provides:

- :class:`Packet` -- the network-level PDU.
- :class:`Link` -- a simplex link with bandwidth, propagation delay,
  jitter, loss and bit-error models, a finite buffer, and two service
  priorities (reserved/control above best-effort).
- :class:`Host` / :class:`Router` -- end-systems and forwarders.
- :class:`Network` -- topology + shortest-path routing + next-hop
  delivery.
- :class:`ReservationManager` -- ST-II-like per-hop resource
  reservation and admission control (paper section 3.3 and 7 assume
  such a protocol, citing ST-II [Topolcic,90] and SRP [Anderson,91]).
- :mod:`repro.netsim.faults` -- the :class:`FaultLedger` that applies
  :mod:`repro.faults` plans (link down/up, rate squeeze, loss burst,
  router crash) so overlapping episodes compose.
- :mod:`repro.netsim.partition` / :mod:`repro.netsim.boundary` --
  topology partitioning and boundary links for sharded multi-process
  runs (see ``docs/SCALING.md``).
"""

from repro.netsim.packet import Packet, Priority
from repro.netsim.link import (
    BernoulliLoss,
    GilbertElliottLoss,
    Link,
    LossModel,
    NoJitter,
    NoLoss,
    TruncatedGaussianJitter,
    UniformJitter,
)
from repro.netsim.node import Host, Node, Router
from repro.netsim.topology import Network
from repro.netsim.boundary import BoundaryLink, attach_egress
from repro.netsim.partition import (
    CutLink,
    LinkSpec,
    PartitionError,
    TopologyPartition,
    partition_topology,
)
from repro.netsim.reservation import (
    AdmissionError,
    Reservation,
    ReservationManager,
)

__all__ = [
    "AdmissionError",
    "BernoulliLoss",
    "BoundaryLink",
    "CutLink",
    "GilbertElliottLoss",
    "Host",
    "Link",
    "LinkSpec",
    "LossModel",
    "Network",
    "NoJitter",
    "NoLoss",
    "Node",
    "Packet",
    "PartitionError",
    "Priority",
    "Reservation",
    "ReservationManager",
    "Router",
    "TopologyPartition",
    "TruncatedGaussianJitter",
    "UniformJitter",
    "attach_egress",
    "partition_topology",
]
