"""Named metrics with *windowed* accumulators that reset correctly.

The QoS monitor (Table 2) and the blocking-time statistics of section
6.3.1.2 are both **per-sample-period** measurements: at every period
boundary the accumulated observations are snapshotted and the window
starts over.  Scattering that reset across a dozen ad-hoc attributes is
exactly how the monitor's throughput window ended up never resetting;
this module centralises the idiom so period accounting is correct by
construction -- :meth:`WindowedStat.roll` snapshots *and* clears every
field in one place, and there is no way to reset half a window.

Nothing here imports the simulator: accumulators take a ``clock``
callable returning the current time in seconds, so the kernel itself
can own a registry without an import cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Clock = Callable[[], float]


def _zero_clock() -> float:
    return 0.0


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named value that moves both ways (queue depth, gate state...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


@dataclass(frozen=True)
class WindowSnapshot:
    """One closed sample window of a :class:`WindowedStat`."""

    start: float
    end: float
    count: int
    total: float
    minimum: float
    maximum: float
    #: Time and value of the first observation in the window (None/0
    #: when the window saw nothing).
    first_at: Optional[float]
    last_at: Optional[float]
    first_value: float

    @property
    def active_span(self) -> float:
        """first-to-last observation time inside this window only."""
        if self.first_at is None or self.last_at is None or self.count < 2:
            return 0.0
        return self.last_at - self.first_at

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")


class WindowedStat:
    """Scalar accumulator over one sample period.

    ``add()`` folds in an observation; ``roll()`` returns the closed
    window and atomically starts a fresh one.  *Every* field -- count,
    total, extrema, and crucially the first/last observation timestamps
    -- belongs to the window and is cleared by the roll, so a stale
    "first arrival" can never leak into the next period.
    """

    __slots__ = (
        "name", "_clock", "window_start",
        "count", "total", "minimum", "maximum",
        "first_at", "last_at", "first_value",
    )

    def __init__(self, name: str, clock: Clock = _zero_clock):
        self.name = name
        self._clock = clock
        self.window_start = clock()
        self._clear()

    def _clear(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.first_at: Optional[float] = None
        self.last_at: Optional[float] = None
        self.first_value = 0.0

    def add(self, value: float, at: Optional[float] = None) -> None:
        now = self._clock() if at is None else at
        if self.first_at is None:
            self.first_at = now
            self.first_value = value
        self.last_at = now
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def snapshot(self) -> WindowSnapshot:
        """The current (still-open) window, without resetting."""
        return WindowSnapshot(
            start=self.window_start,
            end=self._clock(),
            count=self.count,
            total=self.total,
            minimum=self.minimum,
            maximum=self.maximum,
            first_at=self.first_at,
            last_at=self.last_at,
            first_value=self.first_value,
        )

    def roll(self) -> WindowSnapshot:
        """Close the window: snapshot it and reset *everything*."""
        snap = self.snapshot()
        self.window_start = snap.end
        self._clear()
        return snap


class WindowedSeries:
    """Sample-retaining windowed accumulator (for mean/stddev stats).

    Retains the raw observations of the current window so that the
    two-pass mean/sample-variance the jitter statistic needs can be
    computed exactly; ``roll()`` hands the samples over and clears.
    """

    __slots__ = ("name", "_clock", "window_start", "samples")

    def __init__(self, name: str, clock: Clock = _zero_clock):
        self.name = name
        self._clock = clock
        self.window_start = clock()
        self.samples: List[float] = []

    def __len__(self) -> int:
        return len(self.samples)

    def add(self, value: float) -> None:
        self.samples.append(value)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    def sample_std(self) -> float:
        """Two-pass sample standard deviation (0.0 below two samples)."""
        n = len(self.samples)
        if n < 2:
            return 0.0
        mean = self.mean()
        var = sum((s - mean) ** 2 for s in self.samples) / (n - 1)
        return math.sqrt(var)

    def roll(self) -> List[float]:
        """Close the window: return its samples and start fresh."""
        samples = self.samples
        self.samples = []
        self.window_start = self._clock()
        return samples


class SpanAccumulator:
    """Per-key accumulated duration of (possibly still-open) spans.

    The section 6.3.1.2 statistic: how long each role (application /
    protocol) spent blocked, sampled at interval boundaries *while
    threads may still be parked*.  ``begin()`` opens a span and returns
    a token; ``end(token)`` folds its duration into the key's total
    (``instant()`` is the pair for a span of no duration: counted,
    never opened); ``total(key)`` includes open spans up to now;
    ``reset()`` re-bases open spans to now so the next window only sees
    its own share.
    """

    __slots__ = ("name", "_clock", "_total", "_count", "_open", "_next_token")

    def __init__(self, name: str, clock: Clock = _zero_clock):
        self.name = name
        self._clock = clock
        self._total: Dict[str, float] = {}
        self._count: Dict[str, int] = {}
        self._open: Dict[int, Tuple[str, float]] = {}
        self._next_token = 0

    def begin(self, key: str) -> int:
        self._next_token += 1
        token = self._next_token
        self._open[token] = (key, self._clock())
        self._count[key] = self._count.get(key, 0) + 1
        return token

    def instant(self, key: str) -> None:
        """Count a span that ends the instant it begins: no duration."""
        self._count[key] = self._count.get(key, 0) + 1

    def end(self, token: int) -> None:
        entry = self._open.pop(token, None)
        if entry is None:
            return
        key, started = entry
        self._total[key] = self._total.get(key, 0.0) + (self._clock() - started)

    def total(self, key: str) -> float:
        """Accumulated seconds for ``key``, open spans included."""
        total = self._total.get(key, 0.0)
        now = self._clock()
        for open_key, started in self._open.values():
            if open_key == key:
                total += now - started
        return total

    def count(self, key: str) -> int:
        return self._count.get(key, 0)

    def reset(self) -> None:
        """Zero the closed totals; open spans restart from now."""
        self._total.clear()
        self._count.clear()
        now = self._clock()
        for token, (key, _started) in list(self._open.items()):
            self._open[token] = (key, now)


class MetricsRegistry:
    """Namespace of named metrics for one runtime.

    Components allocate their instruments once (``counter(name)`` etc.
    is get-or-create, so views and owners share the same object) and
    the registry renders a flat snapshot for reports.  One registry
    hangs off every :class:`~repro.sim.scheduler.Simulator` as
    ``sim.metrics``; its clock is the virtual clock.
    """

    def __init__(self, clock: Clock = _zero_clock):
        self._clock = clock
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._windows: Dict[str, WindowedStat] = {}
        self._series: Dict[str, WindowedSeries] = {}
        self._spans: Dict[str, SpanAccumulator] = {}

    @property
    def now(self) -> float:
        return self._clock()

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            counter = self._counters[name] = Counter(name)
            return counter

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            gauge = self._gauges[name] = Gauge(name)
            return gauge

    def window(self, name: str) -> WindowedStat:
        try:
            return self._windows[name]
        except KeyError:
            window = self._windows[name] = WindowedStat(name, self._clock)
            return window

    def series(self, name: str) -> WindowedSeries:
        try:
            return self._series[name]
        except KeyError:
            series = self._series[name] = WindowedSeries(name, self._clock)
            return series

    def span_accumulator(self, name: str) -> SpanAccumulator:
        try:
            return self._spans[name]
        except KeyError:
            spans = self._spans[name] = SpanAccumulator(name, self._clock)
            return spans

    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def as_dict(self) -> Dict[str, float]:
        """Flat name -> value snapshot of counters and gauges."""
        values: Dict[str, float] = {}
        for name, counter in sorted(self._counters.items()):
            values[name] = counter.value
        for name, gauge in sorted(self._gauges.items()):
            values[name] = gauge.value
        return values

    def snapshot(self) -> Dict[str, object]:
        """Full JSON-serialisable snapshot of every instrument.

        Counters and gauges report their values; windowed stats report
        their *open* window (count/total/extrema, with infinities
        mapped to None so the dict survives ``json.dumps``); series
        report sample counts.  Reading the snapshot never mutates any
        window.
        """
        windows: Dict[str, Dict[str, object]] = {}
        for name, window in sorted(self._windows.items()):
            snap = window.snapshot()
            windows[name] = {
                "start": snap.start,
                "end": snap.end,
                "count": snap.count,
                "total": snap.total,
                "min": None if snap.count == 0 else snap.minimum,
                "max": None if snap.count == 0 else snap.maximum,
            }
        return {
            "now": self._clock(),
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(self._gauges.items())
            },
            "windows": windows,
            "series": {
                name: len(series)
                for name, series in sorted(self._series.items())
            },
        }

    def snapshot_sections(self) -> Iterator[Tuple[str, object]]:
        """:meth:`snapshot`'s top-level sections, one at a time.

        Yields ``(key, value)`` pairs in *sorted key order* (the order
        ``json.dumps(..., sort_keys=True)`` would emit them), building
        each section only when requested -- the granularity the
        streaming JSON writer in :mod:`repro.obs.export` works at, so
        the full snapshot dict never has to be materialised.
        """
        yield "counters", {
            name: counter.value
            for name, counter in sorted(self._counters.items())
        }
        yield "gauges", {
            name: gauge.value
            for name, gauge in sorted(self._gauges.items())
        }
        yield "now", self._clock()
        yield "series", {
            name: len(series)
            for name, series in sorted(self._series.items())
        }
        windows: Dict[str, Dict[str, object]] = {}
        for name, window in sorted(self._windows.items()):
            snap = window.snapshot()
            windows[name] = {
                "start": snap.start,
                "end": snap.end,
                "count": snap.count,
                "total": snap.total,
                "min": None if snap.count == 0 else snap.minimum,
                "max": None if snap.count == 0 else snap.maximum,
            }
        yield "windows", windows


def merge_snapshots(
    snapshots: List[Dict[str, object]],
) -> Dict[str, object]:
    """Fold several :meth:`MetricsRegistry.snapshot` dicts into one.

    The fleet view of a sharded run: counters and gauges sum per name
    (gauges on the convention that every fleet gauge is an additive
    occupancy -- queue depths, running streams), windowed stats combine
    count/total/extrema with the earliest start and latest end, series
    sample counts sum, and ``now`` is the latest shard clock.  Inputs
    are not mutated.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    windows: Dict[str, Dict[str, object]] = {}
    series: Dict[str, int] = {}
    now = 0.0
    for snap in snapshots:
        now = max(now, snap.get("now", 0.0))
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0) + value
        for name, win in snap.get("windows", {}).items():
            out = windows.get(name)
            if out is None:
                windows[name] = dict(win)
                continue
            out["start"] = min(out["start"], win["start"])
            out["end"] = max(out["end"], win["end"])
            out["count"] += win["count"]
            out["total"] += win["total"]
            for key, pick in (("min", min), ("max", max)):
                ours, theirs = out[key], win[key]
                if ours is None:
                    out[key] = theirs
                elif theirs is not None:
                    out[key] = pick(ours, theirs)
        for name, count in snap.get("series", {}).items():
            series[name] = series.get(name, 0) + count
    return {
        "now": now,
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "windows": dict(sorted(windows.items())),
        "series": dict(sorted(series.items())),
    }
