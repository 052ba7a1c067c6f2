"""E5 -- Figures 4 and 5: orchestrating-node selection and placement cost.

(a) Selection: over randomly generated VC groups, the HLO picks the
node common to the greatest number of VCs (ties toward sinks) and
enforces the common-node restriction.

(b) Placement cost: for a sink-common film group, count orchestration
control packets (OPDUs) crossing the network when the agent sits at
the common node versus when it is forced onto a non-common node (the
footnote extension) -- the common node co-locates agent and regulation,
so remote placement multiplies control traffic.

Expected shape: selection is always a most-common node; common-node
placement sends a small constant OPDU stream, remote placement several
times more (every regulate/report crosses the network) plus clock-sync
probes.
"""

import random

import pytest

from repro.metrics.table import Table
from repro.orchestration.hlo import (
    OrchestrationError,
    select_orchestrating_node,
)
from repro.orchestration.hlo_agent import HLOAgent
from repro.orchestration.policy import OrchestrationPolicy
from repro.sim.scheduler import Timer

from benchmarks.common import emit, once
from benchmarks.scenarios import FilmScenario, film_testbed


def selection_stats(trials: int = 500):
    rng = random.Random(5)
    nodes = [f"n{i}" for i in range(6)]
    correct = 0
    rejected = 0
    for _ in range(trials):
        group = [
            (rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(2, 5))
        ]
        group = [(s, d) for s, d in group if s != d] or [("n0", "n1")]
        counts = {}
        for src, sink in group:
            for n in {src, sink}:
                counts[n] = counts.get(n, 0) + 1
        best_count = max(counts.values())
        try:
            chosen = select_orchestrating_node(group)
            if counts[chosen] == best_count == len(group):
                correct += 1
        except OrchestrationError:
            rejected += 1
            if best_count < len(group):
                correct += 1
    return trials, correct, rejected


def opdu_traffic(place_remote: bool, seconds: float = 10.0):
    """Count control OPDU packets crossing links during regulation."""
    bed = film_testbed(seed=31)
    scenario = FilmScenario(bed, orchestrated=True, drift_ppm=200.0)
    scenario.connect()
    specs = [
        scenario.streams["video"].spec(max_drop_per_interval=2),
        scenario.streams["audio"].spec(max_drop_per_interval=0),
    ]

    from repro.orchestration.opdu import ControlOPDU

    counted = {"opdus": 0}
    for link in bed.network.links():
        original = link.send

        def counting_send(packet, _original=original):
            if isinstance(packet.payload, ControlOPDU):
                counted["opdus"] += 1
            _original(packet)

        link.send = counting_send

    def driver():
        if place_remote:
            # Force the agent onto the video server (not the common
            # node): the footnote extension with clock sync.
            llo = bed.llos["video-srv"]
            agent = HLOAgent(
                bed.sim, llo, "forced", specs,
                OrchestrationPolicy(interval_length=0.2),
            )
            from repro.orchestration.clock_sync import NTPLikeSynchronizer

            for other in ("audio-srv", "ws"):
                NTPLikeSynchronizer(
                    bed.sim, bed.network, "video-srv", other
                ).start()
            yield from agent.establish()
            yield from agent.prime()
            yield from agent.start()
        else:
            session = yield from bed.hlo.orchestrate(
                specs, OrchestrationPolicy(interval_length=0.2)
            )
            yield from session.prime()
            yield from session.start()
        counted["at_start"] = counted["opdus"]
        yield Timer(bed.sim).after(seconds)
        counted["at_end"] = counted["opdus"]

    bed.spawn(driver())
    bed.run(seconds + 15.0)
    return (counted["at_end"] - counted["at_start"]) / seconds


def run_experiment():
    trials, correct, rejected = selection_stats()
    selection_table = Table(
        ["random groups", "correct selections", "no-common-node rejections"],
        title="E5a: orchestrating-node selection over random VC groups",
    )
    selection_table.add(trials, correct, rejected)

    traffic_table = Table(
        ["agent placement", "orchestration OPDUs/s on the wire"],
        title="E5b: control traffic, common-node vs remote agent "
              "placement (film group, 0.2 s intervals)",
    )
    common = opdu_traffic(place_remote=False)
    remote = opdu_traffic(place_remote=True)
    traffic_table.add("common node (Figure 5)", common)
    traffic_table.add("non-common node (+clock sync)", remote)
    return [selection_table, traffic_table], correct, trials, common, remote


@pytest.mark.benchmark(group="e05")
def test_e05_common_node(benchmark):
    tables, correct, trials, common, remote = once(benchmark, run_experiment)
    emit("e05_common_node", tables)
    assert correct == trials
    # Remote placement must cost strictly more control traffic.
    assert remote > common
