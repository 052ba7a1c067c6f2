"""Boundary links must be wire-identical to a pristine real link.

The whole N-shard == unsharded conformance guarantee rests on one
equivalence: for any traffic pattern, a :class:`BoundaryLink` exports
every packet with exactly the arrival time (and in exactly the order) a
real pristine :class:`Link` would have delivered it.  These tests drive
both through identical schedules -- idle-wire commits, queued bursts,
mixed priority bands, buffer overflow -- and compare the full delivery
records, then check the partition-rule guard rails.
"""

import random

import pytest

from repro.netsim.boundary import BoundaryLink
from repro.netsim.link import Link
from repro.netsim.packet import Packet, Priority
from repro.netsim.partition import CutLink, PartitionError
from repro.sim.scheduler import Simulator
from repro.sim.shard import Outbox

CUT = CutLink(
    src="a", dst="b", src_shard=0, dst_shard=1,
    bandwidth_bps=1e6, prop_delay=0.004, buffer_bytes=4000,
)


def _packet(i, bits, priority=Priority.BEST_EFFORT):
    return Packet(
        src="a", dst="b", payload=None, size_bits=bits,
        priority=priority, flow_id=f"f{i}", packet_id=i,
    )


def _schedule(seed):
    """A deterministic mixed workload: bursts, both bands, big packets."""
    rng = random.Random(seed)
    plan = []
    t = 0.0
    for i in range(200):
        t += rng.choice([0.0, 0.0, 0.0001, 0.002, 0.02])
        bits = rng.choice([800, 8000, 12000, 24000])
        priority = (
            Priority.CONTROL if rng.random() < 0.3
            else Priority.BEST_EFFORT
        )
        plan.append((t, i, bits, priority))
    return plan


def _run_real(plan):
    sim = Simulator()
    link = Link(
        sim, "a", "b", CUT.bandwidth_bps,
        prop_delay=CUT.prop_delay, buffer_bytes=CUT.buffer_bytes,
    )
    delivered = []
    link.on_deliver = lambda p: delivered.append(
        (sim.now, p.packet_id, int(p.priority), p.hops)
    )
    for when, i, bits, priority in plan:
        sim.call_at(
            when, lambda i=i, b=bits, pr=priority: link.send(_packet(i, b, pr))
        )
    sim.run(until=60.0)
    return delivered, link


def _run_boundary(plan):
    sim = Simulator()
    outbox = Outbox()
    link = BoundaryLink(sim, CUT, outbox)
    for when, i, bits, priority in plan:
        sim.call_at(
            when, lambda i=i, b=bits, pr=priority: link.send(_packet(i, b, pr))
        )
    sim.run(until=60.0)
    exported = [
        (arrival, p.packet_id, int(p.priority), p.hops)
        for arrival, _seq, _shard, _node, p in outbox.drain()
    ]
    return exported, link


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_boundary_matches_real_link_deliveries(seed):
    plan = _schedule(seed)
    delivered, real = _run_real(plan)
    exported, boundary = _run_boundary(plan)
    assert len(delivered) > 50
    # Same packets, same arrival instants.  Export order is wire order,
    # delivery order is arrival order; on a pristine link both are
    # monotone per band, so compare as arrival-sorted sets with ties
    # broken by packet id (same-instant arrivals only differ by which
    # band they sit in, and each band preserves send order).
    assert sorted(exported) == sorted(delivered)


def test_boundary_counters_match_real_link():
    plan = _schedule(3)
    _, real = _run_real(plan)
    _, boundary = _run_boundary(plan)
    for name in ("sent_packets", "sent_bits", "delivered_packets",
                 "delivered_bits", "buffer_drops", "lost_packets"):
        assert getattr(boundary.stats, name) == getattr(real.stats, name), name
    assert boundary.stats.buffer_drops > 0  # the workload overflowed


def test_boundary_routes_to_cut_destination():
    sim = Simulator()
    outbox = Outbox()
    link = BoundaryLink(sim, CUT, outbox)
    link.send(_packet(1, 8000))
    sim.run(until=1.0)
    ((arrival, seq, dst_shard, dst_node, packet),) = outbox.drain()
    assert dst_shard == 1
    assert dst_node == "b"
    assert packet.packet_id == 1
    assert packet.hops == 1
    assert arrival == pytest.approx(8000 / 1e6 + 0.004)


def test_boundary_refuses_fault_injection():
    sim = Simulator()
    link = BoundaryLink(sim, CUT, Outbox())
    with pytest.raises(PartitionError, match="fault target"):
        link.set_down()
    with pytest.raises(PartitionError, match="fault target"):
        link.set_up()
    with pytest.raises(PartitionError, match="rate"):
        link.set_rate(2e6)
    with pytest.raises(PartitionError, match="rate"):
        link.scale_rate(0.5)


def test_boundary_rejects_zero_latency_cut():
    cut = CutLink(
        src="a", dst="b", src_shard=0, dst_shard=1,
        bandwidth_bps=1e6, prop_delay=0.0,
    )
    with pytest.raises(PartitionError, match="positive"):
        BoundaryLink(Simulator(), cut, Outbox())
