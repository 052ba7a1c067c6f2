"""Phase clock, rep runner and helpers shared by every workload.

One end-to-end *run* (one ``perf/run.py --workload W`` process) sets its
workload up SETUP_PASSES times without playing, then plays a fixed
number of fixed-size *reps*.  A rep has three phases, timed from here:

- *setup*  -- build the stack up to the last connect/start confirm;
- *timed*  -- the play phase, driven as equal virtual-time slices so
  slice wall times are samples;
- *finish* -- stop/release/export and tear the stack down.

Every rep of a run has the same seed, so its simulated statistics must
repeat exactly: the run fails when two reps disagree on ``sim_digest``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from perf.probe import REFERENCE_RATE, HostProbe

#: Run-time scratch (exports, span dumps); git-ignored, inside the checkout.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Environment hooks that would silently change what a run measures
#: (``Runtime._maybe_auto_trace`` turns tracing on under REPRO_TRACE).
SCRUBBED_ENV = ("REPRO_TRACE", "REPRO_TRACE_LEVEL", "REPRO_METRICS",
                "REPRO_BENCH_JSON")

#: Set-ups a run makes and throws away before its reps: ``setup_s`` is
#: milliseconds on four workloads, so it is a median over these and the
#: reps' own set-ups (the first one pays for imports and cold caches).
SETUP_PASSES = 4


class SetupOnly(Exception):
    """Raised by ``Phases.setup_done()`` to end a set-up pass there."""


class Phases:
    """The clock one rep's workload code drives as it goes.

    Given a host probe (end-to-end runs), each timed piece of work --
    setup, every slice, finish -- is bracketed by two readings of it,
    taken outside the timed interval, and the piece's wall time is
    scaled to the reference host speed by the mean of the two (see
    :mod:`perf.probe`).  Without one (traced runs) times are plain
    ``perf_counter`` seconds.
    """

    def __init__(self, probe: Optional[HostProbe] = None, recorder=None,
                 per_layer: bool = False, play: bool = True):
        """With ``play`` off, ``setup_done()`` raises :class:`SetupOnly`."""
        self._probe = probe
        self._recorder = recorder
        self._play = play
        #: True on every rep of a ``--trace 1`` run, traced or not.
        self.per_layer = per_layer
        self.spans: Optional[Dict[str, List[float]]] = None
        self.setup_s: Optional[float] = None
        self.slice_s: List[float] = []
        self.finish_s: Optional[float] = None
        #: Plain wall seconds of every piece closed so far.
        self.wall_s = 0.0
        self._speed = probe.rate() if probe else REFERENCE_RATE
        self._mark = perf_counter()

    def _close_piece(self) -> float:
        """End the piece being timed; its seconds at reference speed."""
        wall = perf_counter() - self._mark
        self.wall_s += wall
        if self._probe is None:
            return wall
        speed = self._probe.rate()
        factor = 0.5 * (self._speed + speed) / REFERENCE_RATE
        self._speed = speed
        return wall * factor

    def setup_done(self) -> None:
        """Setup is over; the timed phase starts now."""
        self.setup_s = self._close_piece()
        if not self._play:
            raise SetupOnly
        if self._recorder is not None:
            self._recorder.reset()
        self._mark = perf_counter()

    def slice_done(self) -> None:
        """One virtual-time slice of the timed phase completed."""
        self.slice_s.append(self._close_piece())
        if self._recorder is not None:
            self.spans = self._recorder.totals()
        self._mark = perf_counter()

    def finish_done(self) -> None:
        self.finish_s = self._close_piece()

    @contextmanager
    def untimed(self):
        """Keep the enclosed work out of the piece being timed."""
        started = perf_counter()
        try:
            yield
        finally:
            self._mark += perf_counter() - started

    @property
    def traced(self) -> bool:
        """True when this rep runs under the span recorder."""
        return self._recorder is not None

    @property
    def timed_s(self) -> float:
        """Seconds of the timed phase."""
        return sum(self.slice_s)

    @property
    def speed_factor(self) -> float:
        """Reported over plain seconds of the rep (1 without a probe)."""
        return (self.setup_s + self.timed_s + self.finish_s) / self.wall_s


@dataclass
class RepStats:
    """What a workload reports about one finished rep.

    ``sim`` holds simulated statistics only (they feed ``sim_digest``
    and must repeat exactly); ``counts`` holds exact per-layer counters
    the metric table divides; ``host`` holds host-side measurements the
    workload alone can take (export sizes, per-confirm walls).
    """

    units: int
    attempted: int
    failed: int
    sim: Dict[str, Any]
    counts: Dict[str, float] = field(default_factory=dict)
    host: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


@dataclass
class Rep:
    phases: Phases
    stats: RepStats
    digest: str

    @property
    def traced(self) -> bool:
        return self.phases.traced


def sim_digest(sim_stats: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON of a rep's simulated statistics."""
    blob = json.dumps(sim_stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def seq_count(sim) -> int:
    """Timers armed so far on ``sim`` (``call_*`` and handle re-arms).

    Every ``Simulator._push`` draws one number from ``sim._seq``; its
    repr is the only way to read an ``itertools.count`` without
    advancing it.
    """
    return int(repr(sim._seq)[6:-1])


def step_until(sim, done: Callable[[], bool], limit: int) -> None:
    """Dispatch single events until ``done()`` (or ``limit`` events).

    Stops *at* the event that completes a confirmed exchange: a fixed
    ``run(5.0)`` would let play leak into ``setup_s``.
    """
    step = sim.step
    for _ in range(limit):
        if done() or not step():
            return


def link_counts(metrics: Dict[str, float]) -> Dict[str, float]:
    """Sum the per-link registry counters of ``sim.metrics.as_dict()``."""
    totals = {"link_pkts": 0, "link_delivered": 0, "link_lost": 0,
              "queue_delay_sim_s": 0.0}
    fields = {
        "sent_packets": "link_pkts", "delivered_packets": "link_delivered",
        "lost_packets": "link_lost", "buffer_drops": "link_lost",
        "corrupted_packets": "link_lost",
        "total_queue_delay": "queue_delay_sim_s",
    }
    for name, value in metrics.items():
        scope, _, leaf = name.rpartition(".")
        if scope.startswith("link.") and leaf in fields:
            totals[fields[leaf]] += value
    return totals


def scrub_env(env: Dict[str, str]) -> Dict[str, str]:
    """``env`` without the repro hooks, hash seed pinned."""
    clean = {k: v for k, v in env.items() if k not in SCRUBBED_ENV}
    clean["PYTHONHASHSEED"] = "0"
    return clean


def peak_rss_mib() -> float:
    """Peak resident set of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` spawns beside workers.

    The spawn context starts one resource-tracker process per parent;
    it would otherwise outlive this process by a moment.  The run must
    have stopped, and waited for, every process it started.
    """
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker_module, "_resource_tracker", None),
                   "_stop", None)
    if stop is not None:
        stop()


def spin_per_s() -> float:
    """Machine-speed reference: BENCH_k01's calibration loop."""
    n = 2_000_000
    start = perf_counter()
    x = 0
    for i in range(n):
        x += i & 7
    return n / (perf_counter() - start)


def quantiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count of ``values`` (any length >= 1)."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def run_rep(workload, seed: int, probe: Optional[HostProbe] = None,
            recorder=None, per_layer: bool = False) -> Rep:
    """One rep of ``workload``; traced when a ``recorder`` is given.

    Tearing the rep down (scratch files, the stack's object graph) is
    part of its finish phase.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="rep-", dir=OUT_DIR)
    try:
        phases = Phases(probe, recorder, per_layer)
        stats = workload(seed, phases, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        gc.collect()
    phases.finish_done()
    return Rep(phases, stats, sim_digest(stats.sim))


def setup_pass(workload, seed: int,
               probe: Optional[HostProbe] = None) -> float:
    """Set ``workload`` up, throw the stack away unplayed: its ``setup_s``."""
    phases = Phases(probe, play=False)
    try:
        workload(seed, phases, "")
    except SetupOnly:
        pass
    gc.collect()
    return phases.setup_s
