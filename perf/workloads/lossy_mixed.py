"""``lossy_mixed``: the transport layer's repair paths, no orchestration.

VCS un-orchestrated VCs, each ``s{i}`` -> router -> ``d{i}`` with a
lossy, jittery source uplink (2 % Bernoulli loss, 2 ms uniform jitter).
Even VCs run the rate-based CM profile with detect-and-correct (NACK
repair through the reorder buffer); odd VCs run the window-based
profile with detect-and-indicate (cumulative acks, go-back-N, ack-timer
cancel/re-arm churn).  Producers are open-loop in virtual time at
OSDU_RATE per VC; consumers read as fast as data arrives.

These paths are idle in ``film_orch``: a fast path that helps clean
paced traffic but costs the repair path shows here.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

from repro.core import Stack
from repro.netsim.link import BernoulliLoss, UniformJitter
from repro.sim.scheduler import Timer
from repro.sim.shard import reset_process_state
from repro.transport.addresses import TransportAddress
from repro.transport.osdu import OSDU
from repro.transport.profiles import ClassOfService, ProtocolProfile
from repro.transport.qos import QoSSpec
from repro.transport.service import ConnectionRefused, TransportService

from perf.harness import (
    Phases, RepStats, link_counts, seq_count, step_until,
)

VCS = 8
#: Virtual seconds of play per rep, in 1 s slices.
PLAY_SECONDS = 45
OSDU_RATE = 200.0
OSDU_BYTES = 1000
LOSS = 0.02
JITTER_S = 0.002
#: Loss ratio the VC's user declares acceptable at T-Connect; must
#: admit the path's raw loss or the connect is refused.
PER_TOLERANCE = 0.05
#: Event budget for the connect stage.
STAGE_EVENT_LIMIT = 1_000_000


class _Flow:
    """One VC with its paced producer and greedy consumer."""

    def __init__(self, stack: Stack, index: int):
        self.stack = stack
        self.index = index
        self.rate_based = index % 2 == 0
        self.send = None
        self.recv = None
        self.refused = False
        self.written = 0
        self.read = 0
        self.playing = False

    def connect(self):
        stack, i = self.stack, self.index
        service = TransportService(stack.entities[f"s{i}"])
        TransportService(stack.entities[f"d{i}"]).listen(1)
        binding = service.bind(1)
        qos = QoSSpec.simple(
            OSDU_RATE * (OSDU_BYTES + 72) * 8 * 1.2,
            max_osdu_bytes=OSDU_BYTES, per=PER_TOLERANCE, ber=0.5,
        )
        try:
            self.send = yield from service.connect(
                binding, TransportAddress(f"d{i}", 1), qos,
                profile=(ProtocolProfile.CM_RATE_BASED if self.rate_based
                         else ProtocolProfile.WINDOW_BASED),
                cos=(ClassOfService.detect_and_correct() if self.rate_based
                     else ClassOfService.detect_and_indicate()),
            )
        except ConnectionRefused:
            self.refused = True
            return
        self.recv = stack.entities[f"d{i}"].endpoint_for(self.send.vc_id)
        stack.spawn(self._consumer(), name=f"consumer:{i}")

    def _consumer(self):
        while True:
            yield from self.recv.read()
            self.read += 1

    def producer(self):
        sim = self.stack.sim
        pace = Timer(sim)
        start = sim.now
        while self.playing:
            wait = start + self.written / OSDU_RATE - sim.now
            if wait > 0:
                yield pace.after(wait)
            yield from self.send.write(
                OSDU(size_bytes=OSDU_BYTES, payload=self.written))
            self.written += 1


def build(seed: int) -> Stack:
    stack = Stack(seed=seed)
    stack.router("net")
    for i in range(VCS):
        stack.host(f"s{i}")
        stack.host(f"d{i}")
        stack.link(f"s{i}", "net", 10e6, prop_delay=0.003,
                   loss=BernoulliLoss(LOSS), jitter=UniformJitter(JITTER_S))
        stack.link(f"d{i}", "net", 10e6, prop_delay=0.003)
    return stack.up()


def run(seed: int, phases: Phases, tmp: str) -> RepStats:
    reset_process_state()
    stack = build(seed)
    flows = [_Flow(stack, i) for i in range(VCS)]
    t0 = perf_counter()
    for flow in flows:
        stack.spawn(flow.connect(), name=f"connect:{flow.index}")
    step_until(
        stack.sim,
        lambda: all(f.recv is not None or f.refused for f in flows),
        STAGE_EVENT_LIMIT)
    host = {"connect_s": perf_counter() - t0}
    live = [f for f in flows if f.recv is not None]
    events0 = seq_count(stack.sim)
    phases.setup_done()

    for flow in live:
        flow.playing = True
        stack.spawn(flow.producer(), name=f"producer:{flow.index}")
    for _ in range(PLAY_SECONDS):
        stack.run(1.0)
        phases.slice_done()
    units = sum(f.read for f in live)
    events = seq_count(stack.sim) - events0

    for flow in live:
        flow.playing = False
        TransportService(stack.entities[f"s{flow.index}"]).disconnect(
            stack.entities[f"s{flow.index}"].bindings[1], flow.send.vc_id)
    stack.run(0.5)
    stats = _collect(stack, flows, units, events, host)
    del stack, flows, live
    return stats


def _collect(stack: Stack, flows: List[_Flow], units: int, events: int,
             host: Dict[str, float]) -> RepStats:
    problems = [f"VC {f.index} was refused" for f in flows if f.refused]
    sim: Dict[str, object] = {"metrics": stack.sim.metrics.as_dict()}
    written = lost = sent = retx = 0
    blocked = 0.0
    for flow in flows:
        if flow.recv is None:
            continue
        send_vc, recv_vc = flow.send.vc, flow.recv.vc
        # Conservation: every written OSDU was read, indicated lost, or
        # is still between the source buffer and the sink's buffer.
        queued = flow.written - flow.read - recv_vc.lost_count
        capacity = (send_vc.buffer.capacity + recv_vc.buffer.capacity
                    + 256)  # + retransmit cache depth awaiting repair
        if not 0 <= queued <= capacity:
            problems.append(
                f"VC {flow.index}: {queued} OSDUs unaccounted for "
                f"(capacity {capacity})")
        written += flow.written
        lost += recv_vc.lost_count
        sent += send_vc.sent_count
        retx += send_vc.retransmit_count
        blocked += send_vc.blocked_time("protocol")
        sim[f"vc{flow.index}"] = {
            "written": flow.written, "read": flow.read,
            "sent": send_vc.sent_count,
            "retransmits": send_vc.retransmit_count,
            "lost": recv_vc.lost_count,
        }
    counts = {
        **link_counts(sim["metrics"]),
        "events": events, "submitted": written,
        "presented": sum(f.read for f in flows),
        "tpdus": sent, "retransmits": retx, "lost_osdus": lost,
        "blocked_sim_s": blocked,
        "connects": sum(f.recv is not None for f in flows),
    }
    return RepStats(
        units=units,
        attempted=len(flows) + written,
        failed=sum(f.refused for f in flows) + lost,
        sim=sim, counts=counts, host=host, problems=problems,
    )
