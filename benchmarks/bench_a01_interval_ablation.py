"""Ablation A1 -- the regulation interval length (Figure 6's 'interval').

DESIGN.md calls out the interval length as the central tuning knob of
the HLO-agent/LLO feedback loop.  This ablation sweeps it and measures
the two costs it trades off:

- synchronisation quality (max inter-stream skew), which degrades as
  intervals lengthen (coarser targets, slower correction), and
- orchestration control overhead (OPDUs per second on the wire), which
  shrinks as intervals lengthen.

Expected shape: skew grows roughly linearly with the interval once the
interval exceeds the media quantum; control overhead is ~k/interval.
"""

import pytest

from repro.media.lipsync import skew_summary
from repro.metrics.table import Table
from repro.orchestration.opdu import ControlOPDU

from benchmarks.common import emit, once
from benchmarks.scenarios import FilmScenario, film_testbed

PLAY_SECONDS = 30.0


def run_case(interval_length: float):
    bed = film_testbed(seed=53, drift_ppm=300.0)
    counted = {"opdus": 0}
    for link in bed.network.links():
        original = link.send

        def counting_send(packet, _original=original):
            if isinstance(packet.payload, ControlOPDU):
                counted["opdus"] += 1
            _original(packet)

        link.send = counting_send
    scenario = FilmScenario(bed, orchestrated=True, drift_ppm=300.0,
                            interval_length=interval_length)
    scenario.connect()
    before = counted["opdus"]
    scenario.play(PLAY_SECONDS)
    series = scenario.skew_series()
    opdus_per_s = (counted["opdus"] - before) / PLAY_SECONDS
    return skew_summary(series), opdus_per_s


def run_experiment():
    table = Table(
        ["interval (s)", "mean skew (ms)", "max skew (ms)",
         "control OPDUs/s"],
        title=f"A1: regulation interval ablation "
              f"({PLAY_SECONDS:.0f} s film, ±300 ppm drift)",
    )
    results = {}
    for interval in (0.05, 0.1, 0.2, 0.5, 1.0):
        summary, opdus = run_case(interval)
        results[interval] = (summary, opdus)
        table.add(interval, summary["mean"] * 1e3, summary["max"] * 1e3,
                  opdus)
    return [table], results


@pytest.mark.benchmark(group="a01")
def test_a01_interval_ablation(benchmark):
    tables, results = once(benchmark, run_experiment)
    emit("a01_interval_ablation", tables)
    # Control overhead decreases monotonically with interval length.
    overheads = [results[i][1] for i in (0.05, 0.1, 0.2, 0.5, 1.0)]
    assert overheads == sorted(overheads, reverse=True)
    # Long intervals lose synchronisation quality vs short ones.
    assert results[1.0][0]["max"] > results[0.1][0]["max"]
    # Even the coarsest interval keeps skew bounded (< 1 interval).
    assert results[1.0][0]["max"] < 1.0
