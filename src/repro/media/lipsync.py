"""Inter-stream synchronisation measurement.

Given the delivery logs of two (or more) playout sinks, compute the
*skew* -- the difference in presented media time -- as a function of
real (simulator) time.  The conventional perceptual threshold for lip
synchronisation is 80 ms; :func:`fraction_within` reports how much of
a run stays inside any given bound.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.media.sink import DeliveryLog, PlayoutSink

#: The canonical lip-sync perceptual threshold, seconds.
LIP_SYNC_THRESHOLD = 0.080


def _position_series(records: DeliveryLog):
    """Return a step function t -> presented media time."""
    times = records.delivered_at
    positions = records.media_time

    def at(t: float) -> float:
        # The last record delivered at or before t.
        i = bisect_right(times, t)
        return positions[i - 1] if i else 0.0

    return at


def interstream_skew_series(
    sinks: Sequence[PlayoutSink],
    t_start: float,
    t_end: float,
    dt: float = 0.05,
) -> List[Tuple[float, float]]:
    """Sampled max-minus-min presented media time across ``sinks``.

    Only the window ``[t_start, t_end]`` is evaluated; sample spacing
    is ``dt`` seconds.
    """
    if len(sinks) < 2:
        raise ValueError("need at least two sinks to measure skew")
    if t_end < t_start:
        raise ValueError("t_end before t_start")
    series = [_position_series(s.records) for s in sinks]
    samples: List[Tuple[float, float]] = []
    steps = max(int((t_end - t_start) / dt), 1)
    for i in range(steps + 1):
        t = t_start + i * dt
        positions = [f(t) for f in series]
        samples.append((t, max(positions) - min(positions)))
    return samples


def skew_summary(series: Iterable[Tuple[float, float]]) -> Dict[str, float]:
    """Mean / max / RMS of a skew series."""
    values = [abs(s) for _t, s in series]
    if not values:
        return {"mean": 0.0, "max": 0.0, "rms": 0.0}
    return {
        "mean": sum(values) / len(values),
        "max": max(values),
        "rms": math.sqrt(sum(v * v for v in values) / len(values)),
    }


def fraction_within(
    series: Iterable[Tuple[float, float]], threshold: float = LIP_SYNC_THRESHOLD
) -> float:
    """Fraction of samples with |skew| <= threshold."""
    values = [abs(s) for _t, s in series]
    if not values:
        return 1.0
    return sum(1 for v in values if v <= threshold) / len(values)
