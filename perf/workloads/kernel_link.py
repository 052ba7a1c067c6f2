"""``kernel_link``: the event kernel plus one bare link, nothing above.

BENCH_k01's ``packet/link`` shape at full size: a self-clocked pipeline
of 8 pooled packets through one 100 Mbit/s, 1 ms link, with 10 000
far-future ballast timers on the overflow heap and 100 periodic timers
ticking alongside.  ``sim`` and ``netsim`` do all the work; transport,
orchestration and obs do none, so a change to those layers must read
"no change" here.

Closed loop (each delivery refills the window).  Packet sizes and the
periodic timers' periods are drawn from the seed.
"""

from __future__ import annotations

import random

from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.sim.scheduler import PeriodicTimer, Simulator

from perf.harness import Phases, RepStats, link_counts, seq_count

#: Virtual seconds per rep, in 1 s slices (~7 360 packets each:
#: 3 000 000 packets in all).
PLAY_SECONDS = 406
PIPELINE = 8
BALLAST = 10_000
PERIODIC_TIMERS = 100
#: Packet sizes cycle through a seeded table around 1000 bytes; the
#: pipeline stays below prop_delay / tx_time so the flow is paced.
SIZE_TABLE = 4096
MEAN_BITS = 8_000


def _noop() -> None:
    pass


def run(seed: int, phases: Phases, tmp: str) -> RepStats:
    rng = random.Random(seed)
    sizes = [rng.randrange(MEAN_BITS // 2, MEAN_BITS * 3 // 2)
             for _ in range(SIZE_TABLE)]
    sim = Simulator()
    ballast = [sim.call_after(1e9 + i, _noop) for i in range(BALLAST)]
    ticks = [0]

    def tick() -> None:
        ticks[0] += 1

    timers = [
        PeriodicTimer(sim, 0.01 * (1 + rng.random() / 10), tick).start()
        for _ in range(PERIODIC_TIMERS)
    ]
    link = Link(sim, "a", "b", bandwidth_bps=100e6, prop_delay=0.001)
    acquire, release, send = Packet.acquire, Packet.release, link.send
    sent = delivered = 0
    mask = SIZE_TABLE - 1

    def pump() -> None:
        nonlocal sent
        send(acquire("a", "b", None, sizes[sent & mask]))
        sent += 1

    def on_deliver(packet: Packet) -> None:
        nonlocal delivered
        delivered += 1
        release(packet)
        pump()

    link.on_deliver = on_deliver
    events0 = seq_count(sim)
    phases.setup_done()

    for _ in range(PIPELINE):
        pump()
    for _ in range(PLAY_SECONDS):
        sim.run(until=sim.now + 1.0)
        phases.slice_done()
    events = seq_count(sim) - events0

    for timer in timers:
        timer.stop()
    for handle in ballast:
        handle.cancel()
    stats = link.stats
    in_flight = sent - delivered
    lost = stats.lost_packets + stats.buffer_drops + stats.corrupted_packets
    problems = []
    # Conservation: the window is always full and nothing is dropped.
    if in_flight != PIPELINE or stats.sent_packets != sent or lost:
        problems.append(
            f"sent {sent} ({stats.sent_packets} on the link), delivered "
            f"{delivered}, lost {lost}")
    return RepStats(
        units=delivered,
        attempted=sent,
        failed=lost,
        sim={
            "metrics": sim.metrics.as_dict(), "ticks": ticks[0],
            "now": sim.now,
        },
        counts={**link_counts(sim.metrics.as_dict()), "events": events,
                "submitted": sent, "presented": delivered},
        problems=problems,
    )
