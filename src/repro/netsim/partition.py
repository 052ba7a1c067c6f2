"""Topology partitioning for sharded (multi-process) simulation runs.

A sharded run splits one logical :class:`~repro.netsim.topology.Network`
into per-process *virtual-time domains* (see ``docs/SCALING.md``).  This
module holds the declarative side of that split: node→shard assignments,
per-shard local link sets, and the *cut links* that cross shard
boundaries.  Cut links are the synchronization contract of the whole
scheme -- a shard may safely advance its clock by the minimum inbound
cut-link propagation delay (classic conservative lookahead), so every
cut must satisfy the partitioning rules enforced here:

- positive propagation delay (zero-latency cuts would force a
  zero-width synchronization window -- deadlock);
- pristine transmission models (no jitter, no loss, no bit errors):
  the boundary link is a pristine :class:`~repro.netsim.link.Link` up
  to its hand-off, which is what makes an N-shard run's conformance
  equal the unsharded baseline;
- cut endpoints live on *different* shards.

The partition is pure data (picklable, simulator-free); the runtime
side -- exporting departures into a shard outbox -- lives in
:mod:`repro.netsim.boundary`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple


class PartitionError(ValueError):
    """A topology split violates the sharding rules."""


@dataclass(frozen=True)
class LinkSpec:
    """Declarative description of one simplex link, pre-construction.

    Mirrors the :class:`~repro.netsim.link.Link` constructor arguments
    that matter for partitioning.  ``jitter`` and ``loss`` are kept as
    opaque model objects (or ``None``); the partitioner only checks
    that cut links carry none.
    """

    src: str
    dst: str
    bandwidth_bps: float
    prop_delay: float = 0.001
    buffer_bytes: int = 256 * 1024
    jitter: Optional[object] = None
    loss: Optional[object] = None
    ber: float = 0.0


@dataclass(frozen=True)
class CutLink:
    """A link whose endpoints live on different shards.

    Carries everything the egress shard needs to build the
    :class:`~repro.netsim.boundary.BoundaryLink` standing in for the
    wire, plus the routing fact (``dst_shard``) the coordinator uses to
    deliver exported packets.
    """

    src: str
    dst: str
    src_shard: int
    dst_shard: int
    bandwidth_bps: float
    prop_delay: float
    buffer_bytes: int = 256 * 1024


@dataclass(frozen=True)
class TopologyPartition:
    """A validated split of one topology into shard-local pieces.

    ``local[k]`` holds the links fully inside shard ``k``; ``cuts``
    holds every cross-shard link.  ``lookahead`` is the global
    synchronization window: the minimum cut propagation delay, or
    ``inf`` when no link crosses a boundary (shards are then fully
    independent and run in a single window).
    """

    shards: int
    assignment: Mapping[str, int]
    local: Tuple[Tuple[LinkSpec, ...], ...]
    cuts: Tuple[CutLink, ...] = field(default=())

    @property
    def lookahead(self) -> float:
        """Minimum inbound cut latency -- the safe clock advance."""
        if not self.cuts:
            return math.inf
        return min(cut.prop_delay for cut in self.cuts)

    def egress(self, shard: int) -> Tuple[CutLink, ...]:
        """Cut links leaving ``shard`` (it owns their source node)."""
        return tuple(c for c in self.cuts if c.src_shard == shard)

    def ingress(self, shard: int) -> Tuple[CutLink, ...]:
        """Cut links entering ``shard`` (it owns their destination)."""
        return tuple(c for c in self.cuts if c.dst_shard == shard)

    def nodes(self, shard: int) -> Tuple[str, ...]:
        """Node names assigned to ``shard``, in insertion order."""
        return tuple(n for n, s in self.assignment.items() if s == shard)


def partition_topology(
    assignment: Mapping[str, int],
    links: Iterable[LinkSpec],
    shards: Optional[int] = None,
) -> TopologyPartition:
    """Split a declarative topology along a node→shard assignment.

    Validates the sharding rules (see the module docstring) and returns
    the :class:`TopologyPartition`.  ``shards`` defaults to
    ``max(assignment.values()) + 1``; every shard index in range must
    own at least one node.

    Raises :class:`PartitionError` on: an unassigned link endpoint, an
    empty shard, a cut link with zero propagation delay, or a cut link
    carrying a jitter/loss model or a nonzero bit-error rate.
    """
    if not assignment:
        raise PartitionError("empty node assignment")
    count = (max(assignment.values()) + 1) if shards is None else shards
    if count < 1:
        raise PartitionError(f"need at least one shard, got {count}")
    populated: Dict[int, int] = {}
    for node, shard in assignment.items():
        if not 0 <= shard < count:
            raise PartitionError(
                f"node {node!r} assigned to shard {shard}, "
                f"outside [0, {count})"
            )
        populated[shard] = populated.get(shard, 0) + 1
    for shard in range(count):
        if shard not in populated:
            raise PartitionError(f"shard {shard} owns no nodes")

    local: Tuple[list, ...] = tuple([] for _ in range(count))
    cuts = []
    for spec in links:
        for endpoint in (spec.src, spec.dst):
            if endpoint not in assignment:
                raise PartitionError(
                    f"link {spec.src}->{spec.dst} endpoint {endpoint!r} "
                    "has no shard assignment"
                )
        s, d = assignment[spec.src], assignment[spec.dst]
        if s == d:
            local[s].append(spec)
            continue
        if spec.prop_delay <= 0:
            raise PartitionError(
                f"cut link {spec.src}->{spec.dst} needs positive "
                f"propagation delay (got {spec.prop_delay}); zero "
                "lookahead cannot synchronize"
            )
        if spec.jitter is not None or spec.loss is not None or spec.ber:
            raise PartitionError(
                f"cut link {spec.src}->{spec.dst} must be pristine "
                "(no jitter/loss model, zero BER)"
            )
        cuts.append(CutLink(
            src=spec.src, dst=spec.dst, src_shard=s, dst_shard=d,
            bandwidth_bps=spec.bandwidth_bps,
            prop_delay=spec.prop_delay,
            buffer_bytes=spec.buffer_bytes,
        ))
    return TopologyPartition(
        shards=count,
        assignment=dict(assignment),
        local=tuple(tuple(specs) for specs in local),
        cuts=tuple(cuts),
    )
