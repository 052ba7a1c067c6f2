"""K1 -- virtual-time kernel throughput (events/sec).

Not a paper experiment: this is the scheduler microbenchmark guarding
the timer-core hot path that every other benchmark rides on (per-OSDU
pacing, NACK deadlines, QoS sample periods, LLO regulation ticks).

Three workloads, each swept across a background heap of 10^4..10^6
pending events so the numbers include realistic heap depth:

- ``one-shot``: drain N independently scheduled ``call_after`` timers.
- ``periodic/process``: a process sleeping on a freshly allocated
  ``Timer`` every tick.
- ``periodic/timer``: the handle-based kernel's ``PeriodicTimer``,
  which re-arms one handle per tick with no per-tick allocation
  (skipped transparently on kernels that predate it).
- ``churn``: WindowBasedFlowControl's arm/ack/disarm pattern -- every
  armed timer is cancelled and re-armed before it can fire, so
  throughput depends on O(1) cancel and lazy heap compaction.
- ``packet/link``: the representative workload -- a self-clocked
  pipeline of packets through a real :class:`repro.netsim.link.Link`
  (serialisation timer, propagation timer, stats, delivery callback per
  packet), which is the event shape continuous-media transport actually
  generates.  This is the profile the checked-in ``BENCH_k01.json``
  trajectory and the CI perf-smoke gate track.

Acceptance target for the PR introducing the handle-based core:
``periodic/timer`` >= 2x the seed kernel's ``periodic/process``.
Acceptance target for the timer-wheel core: ``packet/link`` >= 5x the
pre-wheel baseline recorded in ``BENCH_k01.json``.
"""

from __future__ import annotations

import time

import pytest

import repro.sim.scheduler as sched
from repro.metrics.table import Table
from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.sim.scheduler import Simulator, Timer

from benchmarks.common import emit, once

#: Background heap depths the workloads are swept over.
BALLAST = (10_000, 100_000, 1_000_000)
#: Periodic workload size: timers x ticks-per-timer.
PERIODIC_TIMERS = 100
PERIODIC_TICKS = 1_000
#: Churn workload size: rounds of cancel+re-arm over the armed set.
CHURN_TIMERS = 1_000
CHURN_ROUNDS = 100
#: Packet workload: packets pumped through one link.  The pipeline is
#: kept below prop_delay/tx_time (1 ms / 80 us = 12.5) so the flow is
#: paced rather than saturating -- the operating point of a
#: flow-controlled continuous-media stream.
PACKET_COUNT = 50_000
PACKET_PIPELINE = 8
PACKET_BITS = 8_000
#: Each cell reports the best of this many runs (standard microbenchmark
#: practice: the minimum-interference run is the honest one).
BEST_OF = 3


def _noop() -> None:
    pass


def _ballast(sim: Simulator, n: int) -> None:
    """Park ``n`` far-future one-shot events on the heap."""
    for i in range(n):
        sim.call_after(1e9 + i, _noop)


def _lcg_delays(n: int, scale: float = 1.0):
    """Deterministic pseudo-random delays in (0, scale]."""
    x = 1
    for _ in range(n):
        x = (x * 48271) % 0x7FFFFFFF
        yield scale * (x + 1) / 0x80000000


def one_shot(n_events: int, ballast: int) -> float:
    sim = Simulator()
    _ballast(sim, ballast)
    fired = [0]

    def cb() -> None:
        fired[0] += 1

    for delay in _lcg_delays(n_events):
        sim.call_after(delay, cb)
    start = time.perf_counter()
    sim.run(until=2.0)
    elapsed = time.perf_counter() - start
    assert fired[0] == n_events
    return n_events / elapsed


def periodic_process(ballast: int) -> float:
    sim = Simulator()
    _ballast(sim, ballast)
    fired = [0]

    def ticker(period: float):
        for _ in range(PERIODIC_TICKS):
            yield Timer(sim).after(period)
            fired[0] += 1

    for i in range(PERIODIC_TIMERS):
        sim.spawn(ticker(0.01 + i * 1e-5))
    start = time.perf_counter()
    sim.run(until=100.0)
    elapsed = time.perf_counter() - start
    assert fired[0] == PERIODIC_TIMERS * PERIODIC_TICKS
    return fired[0] / elapsed


def periodic_timer(ballast: int) -> float:
    periodic_cls = getattr(sched, "PeriodicTimer", None)
    if periodic_cls is None:  # seed kernel: facility does not exist
        return 0.0
    sim = Simulator()
    _ballast(sim, ballast)
    fired = [0]
    timers = []

    def make_cb(slot):
        def cb() -> None:
            fired[0] += 1
            slot[1] += 1
            if slot[1] >= PERIODIC_TICKS:
                slot[0].stop()

        return cb

    for i in range(PERIODIC_TIMERS):
        slot = [None, 0]
        timer = periodic_cls(sim, 0.01 + i * 1e-5, make_cb(slot))
        slot[0] = timer
        timer.start()
        timers.append(timer)
    start = time.perf_counter()
    sim.run(until=100.0)
    elapsed = time.perf_counter() - start
    assert fired[0] == PERIODIC_TIMERS * PERIODIC_TICKS
    return fired[0] / elapsed


def churn(ballast: int) -> float:
    sim = Simulator()
    _ballast(sim, ballast)
    handles = [sim.call_after(50.0, _noop) for _ in range(CHURN_TIMERS)]
    start = time.perf_counter()
    operations = 0
    for _ in range(CHURN_ROUNDS):
        for i, handle in enumerate(handles):
            handle.cancel()
            handles[i] = sim.call_after(50.0, _noop)
            operations += 1
    # Drain past the deadline so the cost of dead heap entries (or of
    # compacting them away) is part of the measurement.
    sim.run(until=60.0)
    elapsed = time.perf_counter() - start
    return operations / elapsed


def packet_heavy(n_packets: int, ballast: int) -> float:
    """Packets/sec through a real Link with a self-clocked pipeline.

    The pipeline is paced below link rate (depth < prop_delay/tx_time),
    the shape of a flow-controlled continuous-media stream -- the
    dominant workload in the transport experiments: each delivery
    refills the window, so per-packet cost is the link's serialisation
    accounting, its propagation timer and the delivery callback.  Uses
    the pooled packet path when the kernel provides one
    (``Packet.acquire``/``release``), the plain constructor otherwise,
    so pre- and post-refactor kernels are measured as the stack would
    actually use them.
    """
    sim = Simulator()
    _ballast(sim, ballast)
    link = Link(sim, "a", "b", bandwidth_bps=100e6, prop_delay=0.001)
    acquire = getattr(Packet, "acquire", None)
    release = getattr(Packet, "release", None)
    sent = 0
    delivered = 0

    send = link.send

    if acquire is not None:

        def pump() -> None:
            nonlocal sent
            if sent < n_packets:
                sent += 1
                send(acquire("a", "b", None, PACKET_BITS))

        def on_deliver(packet: Packet) -> None:
            nonlocal delivered, sent
            delivered += 1
            release(packet)
            if sent < n_packets:
                sent += 1
                send(acquire("a", "b", None, PACKET_BITS))

    else:  # pre-pool kernel: plain constructor, nothing to release

        def pump() -> None:
            nonlocal sent
            if sent < n_packets:
                sent += 1
                send(Packet(
                    src="a", dst="b", payload=None, size_bits=PACKET_BITS,
                ))

        def on_deliver(packet: Packet) -> None:
            nonlocal delivered, sent
            delivered += 1
            if sent < n_packets:
                sent += 1
                send(Packet(
                    src="a", dst="b", payload=None, size_bits=PACKET_BITS,
                ))

    link.on_deliver = on_deliver
    start = time.perf_counter()
    for _ in range(PACKET_PIPELINE):
        pump()
    sim.run(until=1e8)
    elapsed = time.perf_counter() - start
    assert delivered == n_packets
    return n_packets / elapsed


def calibration_spin() -> float:
    """Machine-speed reference: iterations/sec of a fixed pure-Python loop.

    Stored alongside the benchmark rows so the CI perf-smoke gate can
    scale the checked-in numbers to the hardware it runs on instead of
    comparing absolute rates across machines.
    """
    n = 2_000_000
    start = time.perf_counter()
    x = 0
    for i in range(n):
        x += i & 7
    elapsed = time.perf_counter() - start
    assert x >= 0
    return n / elapsed


def _best(fn, *args) -> float:
    return max(fn(*args) for _ in range(BEST_OF))


def run_experiment(packet_only: bool = False):
    table = Table(
        ["workload", "pending events", "events/sec"],
        title="K1: scheduler throughput by workload and heap depth "
              f"(best of {BEST_OF})",
    )
    results = {}
    for ballast in BALLAST:
        rows = [("packet/link", _best(packet_heavy, PACKET_COUNT, ballast))]
        if not packet_only:
            rows += [
                ("one-shot", _best(one_shot, 100_000, ballast)),
                ("periodic/process", _best(periodic_process, ballast)),
                ("periodic/timer", _best(periodic_timer, ballast)),
                ("churn (cancel+rearm)", _best(churn, ballast)),
            ]
        for name, rate in rows:
            table.add(name, ballast, f"{rate:,.0f}" if rate else "n/a")
            results[(name, ballast)] = rate
    return [table], results


def json_rows(results) -> dict:
    """Flatten ``{(workload, ballast): rate}`` into JSON-friendly rows."""
    rows = {
        f"{name}@{ballast}": rate for (name, ballast), rate in results.items()
    }
    rows["calibration/spin"] = calibration_spin()
    return rows


@pytest.mark.benchmark(group="k01")
def test_k01_scheduler(benchmark):
    tables, results = once(benchmark, run_experiment)
    emit(
        "k01_scheduler", tables,
        notes="Kernel hot-path guard: events/sec for one-shot, periodic "
              "and cancel/re-arm timer workloads at growing heap depth, "
              "plus packets/sec through a real link (packet/link) -- the "
              "profile the BENCH_k01.json trajectory tracks.  "
              "Seed-kernel reference (same host, best of 3) for the "
              "periodic workload -- periodic/process at 10^4/10^5/10^6 "
              "pending: 334,774 / 432,820 / 467,019 events/sec; the "
              "handle-based PeriodicTimer replaced it at 2-4x that "
              "rate.  Full before/after tables in EXPERIMENTS.md (K1).",
        results=json_rows(results),
    )


if __name__ == "__main__":
    import argparse
    import json as _json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write result rows to this JSON file")
    parser.add_argument("--packet-only", action="store_true",
                        help="run only the packet/link profile")
    cli = parser.parse_args()
    tables, results = run_experiment(packet_only=cli.packet_only)
    for t in tables:
        print(t.render())
    if cli.json:
        with open(cli.json, "w") as fh:
            _json.dump(json_rows(results), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"rows written to {cli.json}")
