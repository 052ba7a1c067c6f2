"""A frozen reference computation that tells how fast the host is *now*.

The hosts this benchmark runs on change speed by 20-40 % for seconds to
minutes at a time (a busy sibling hyperthread, by the look of it: CPU
time moves with wall time).  Ten plain 20 s runs of ``film_orch`` read
6 154 to 10 994 OSDU/s, quartiles 28 % of the median apart, which no
bound the benchmark's contract allows can hold.  So in an end-to-end run
every timed piece of work is bracketed by a few milliseconds of this
probe and its wall time is scaled by the probe's rate:

    reported seconds = wall seconds * probe rate / REFERENCE_RATE

The probe is a miniature event loop of its own -- heap pops, tuple
compares, bound-method callbacks, dict and slot access, float
arithmetic, a few thousand far-future entries for heap depth -- so that
it slows down with the simulator, which a bare integer loop does not
(ratio to BENCH_k01's calibration spin: exponent 0.7, correlation 0.8;
to this probe: exponent about 1).  It imports nothing from ``src/``: a
change to the program can never move it.

Do not edit: every end-to-end time is relative to this exact
computation.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: Probe events per second that count as "reference host speed": close
#: to the sizing host's undisturbed rate, so reported seconds read like
#: seconds there.
REFERENCE_RATE = 1_000_000.0
#: Events per reading (about 4 ms at the reference rate).
PROBE_EVENTS = 4000
NODES = 64
PACKETS = 256
BALLAST = 4096


class _Node:
    __slots__ = ("count", "bits", "peer", "handler")

    def __init__(self) -> None:
        self.count = 0
        self.bits = 0.0
        self.peer: "_Node" = self
        self.handler = self.receive

    def receive(self, packet: dict, now: float, push) -> None:
        self.count += 1
        self.bits += packet["bits"]
        packet["hops"] += 1
        push((now + packet["bits"] * 1e-8 + 0.001, packet["id"],
              self.peer.handler, packet))


class HostProbe:
    """PACKETS dict packets bouncing between NODES nodes through one heap."""

    def __init__(self) -> None:
        ring = [_Node() for _ in range(NODES)]
        for index, node in enumerate(ring):
            node.peer = ring[(index * 7 + 1) % NODES]
        self._heap = [(1e9 + i, -i, None, None) for i in range(BALLAST)]
        heapq.heapify(self._heap)
        for i in range(PACKETS):
            heapq.heappush(self._heap, (
                i * 1e-5, i, ring[i % NODES].handler,
                {"id": i, "bits": 4000 + (i * 37) % 8000, "hops": 0},
            ))

    def rate(self) -> float:
        """Run PROBE_EVENTS probe events; returns events per second."""
        heap = self._heap
        pop = heapq.heappop
        heappush = heapq.heappush

        def push(entry) -> None:
            heappush(heap, entry)

        started = perf_counter()
        for _ in range(PROBE_EVENTS):
            when, _seq, handler, packet = pop(heap)
            handler(packet, when, push)
        return PROBE_EVENTS / (perf_counter() - started)
