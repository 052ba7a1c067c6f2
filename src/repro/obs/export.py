"""Exporters: fixed-bucket histograms, Prometheus text, JSON snapshots.

The auditor and the run reports need three export surfaces that the
raw primitives of :mod:`repro.obs.registry` deliberately do not
provide:

- :class:`FixedBucketHistogram` -- an HDR-style histogram with
  geometrically spaced buckets between a fixed ``lo`` and ``hi``,
  plus underflow/overflow buckets.  Memory is O(buckets) regardless
  of sample count, and quantiles (p50/p95/p99/p999) are answered by
  walking the cumulative counts.  Quantile results are clamped to the
  observed ``[min, max]`` so a single sample reports itself exactly
  and a saturated top bucket reports the true maximum rather than the
  bucket bound.
- :func:`prometheus_text` -- Prometheus text exposition (``# TYPE``
  lines plus samples) for a :class:`~repro.obs.registry.MetricsRegistry`.
- :func:`write_json_snapshot` -- ``MetricsRegistry.snapshot()`` dumped
  to a JSON file.
- :func:`write_json_document` -- a large JSON object (a merged fleet
  audit) written through the C encoder one bounded chunk of array
  elements at a time.

Like the rest of ``repro.obs``, everything here is passive: recording
a sample or rendering an exposition never schedules simulator events.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Dict, List, Optional

__all__ = [
    "FixedBucketHistogram",
    "prometheus_text",
    "write_json_document",
    "write_json_snapshot",
]

#: Array elements handed to the C encoder per call by
#: :func:`write_json_document`: the text of a chunk this size is small,
#: and the per-call overhead is already negligible.
_CHUNK = 128


class FixedBucketHistogram:
    """Geometric fixed-bucket histogram over ``[lo, hi)``.

    Bucket ``i`` covers ``[lo * r**i, lo * r**(i+1))`` with
    ``r = (hi / lo) ** (1 / buckets)``; values strictly below ``lo``
    land in the underflow bucket (``lo`` itself is the inclusive lower
    edge of bucket 0), values at or above ``hi`` in the overflow
    bucket.  Exact ``min``/``max``/``total`` are tracked alongside so
    the edges stay honest.
    """

    __slots__ = (
        "lo", "hi", "buckets", "_log_span", "counts",
        "underflow", "overflow", "count", "minimum", "maximum", "total",
    )

    def __init__(self, lo: float = 1e-6, hi: float = 10.0, buckets: int = 128):
        if not (0 < lo < hi):
            raise ValueError(f"need 0 < lo < hi, got lo={lo} hi={hi}")
        if buckets < 1:
            raise ValueError(f"need at least one bucket, got {buckets}")
        self.lo = lo
        self.hi = hi
        self.buckets = buckets
        self._log_span = math.log(hi / lo)
        self.counts = [0] * buckets
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0

    # -- recording ---------------------------------------------------------

    def record(self, value: float) -> None:
        """Fold one observation in (NaN observations are ignored)."""
        if value != value:  # NaN
            return
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value < self.lo:
            self.underflow += 1
        elif value >= self.hi:
            self.overflow += 1
        else:
            idx = int(self.buckets * math.log(value / self.lo) / self._log_span)
            # Guard float rounding at the very top edge.
            if idx >= self.buckets:
                idx = self.buckets - 1
            self.counts[idx] += 1

    # -- quantiles ---------------------------------------------------------

    def _bucket_upper(self, idx: int) -> float:
        return self.lo * math.exp(self._log_span * (idx + 1) / self.buckets)

    def quantile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1); NaN while empty.

        Answers are bucket upper bounds clamped into the observed
        ``[min, max]``: an empty histogram returns NaN, a single
        sample returns that sample exactly, and a histogram whose mass
        sits entirely in the overflow bucket returns the observed
        maximum rather than pretending everything equals ``hi``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        target = max(1, math.ceil(q * self.count))
        cumulative = self.underflow
        if cumulative >= target:
            return self._clamp(self.lo)
        for idx, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                return self._clamp(self._bucket_upper(idx))
        # Target falls in the overflow bucket: all we know is the
        # sample was >= hi, and the tightest honest answer is the
        # observed maximum.
        return self.maximum

    def _clamp(self, value: float) -> float:
        return min(max(value, self.minimum), self.maximum)

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def __len__(self) -> int:
        return self.count

    # -- (de)serialisation -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot (sparse bucket counts)."""
        quantiles: Dict[str, Optional[float]] = {}
        for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99),
                         ("p999", 0.999)):
            value = self.quantile(q)
            quantiles[label] = None if value != value else value
        return {
            "lo": self.lo,
            "hi": self.hi,
            "buckets": self.buckets,
            "count": self.count,
            "underflow": self.underflow,
            "overflow": self.overflow,
            "min": None if self.count == 0 else self.minimum,
            "max": None if self.count == 0 else self.maximum,
            "total": self.total,
            "nonzero": {
                str(i): c for i, c in enumerate(self.counts) if c
            },
            **quantiles,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FixedBucketHistogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        hist = cls(lo=data["lo"], hi=data["hi"], buckets=data["buckets"])
        for key, value in data.get("nonzero", {}).items():
            hist.counts[int(key)] = int(value)
        hist.underflow = data.get("underflow", 0)
        hist.overflow = data.get("overflow", 0)
        hist.count = data.get("count", 0)
        hist.total = data.get("total", 0.0)
        if data.get("min") is not None:
            hist.minimum = data["min"]
        elif hist.count:
            hist.minimum = hist._derived_minimum()
        if data.get("max") is not None:
            hist.maximum = data["max"]
        elif hist.count:
            hist.maximum = hist._derived_maximum()
        return hist

    def _bucket_lower(self, idx: int) -> float:
        return self.lo * math.exp(self._log_span * idx / self.buckets)

    def _derived_minimum(self) -> float:
        """Tightest finite lower bound reconstructible from the buckets.

        Used when a serialised snapshot has ``count > 0`` but no
        ``min`` key: the true minimum is unknown, but it is at least
        bounded by the lowest occupied bucket's edge -- never the
        ``inf`` sentinel, which would poison quantile clamping.
        """
        if self.underflow:
            return self.lo
        for idx, bucket_count in enumerate(self.counts):
            if bucket_count:
                return self._bucket_lower(idx)
        return self.hi  # all mass in overflow

    def _derived_maximum(self) -> float:
        """Finite upper-bound counterpart of :meth:`_derived_minimum`."""
        if self.overflow:
            return self.hi
        for idx in range(self.buckets - 1, -1, -1):
            if self.counts[idx]:
                return self._bucket_upper(idx)
        return self.lo  # all mass in underflow


_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    """Sanitise a registry metric name for Prometheus exposition."""
    sanitised = _NAME_RE.sub("_", name)
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return sanitised


def _disambiguate(prom: str, emitted: set) -> str:
    """Resolve a sanitised-name collision deterministically.

    Two registry names can sanitise to the same Prometheus name
    (``vc.v0.x`` and ``vc_v0_x``); emitting both under one name is
    invalid exposition (duplicate ``# TYPE`` + samples).  The first
    name keeps the plain form; later colliders get ``_2``, ``_3``, ...
    in emission order, which is sorted and therefore stable run to run.
    """
    if prom not in emitted:
        return prom
    n = 2
    while f"{prom}_{n}" in emitted:
        n += 1
    return f"{prom}_{n}"


def prometheus_text(
    registry,
    histograms: Optional[Dict[str, "FixedBucketHistogram"]] = None,
) -> str:
    """Prometheus text exposition of a registry (plus histograms).

    One ``# TYPE`` line per metric followed by its sample(s); names are
    sanitised (``vc.v0.arrived_bits`` becomes ``vc_v0_arrived_bits``).
    Distinct registry names that sanitise identically are kept distinct
    by suffixing later colliders with ``_2``, ``_3``, ... in sorted
    emission order (counters, then gauges, then histograms), so the
    exposition never contains duplicate metric names.

    ``histograms`` maps names to :class:`FixedBucketHistogram` objects;
    each renders as standard cumulative histogram exposition --
    ``_bucket{le="..."}`` samples (an anchor at ``le=lo`` carrying the
    underflow count, one edge per occupied bucket, ``le="+Inf"``),
    then ``_sum`` and ``_count``.  Bucket edges are ``repr``-precision
    floats, so a reader that knows ``lo``/``hi``/``buckets`` can map
    every edge back to its bucket index exactly (round-trip pinned in
    ``tests/obs/test_export.py``).  Rendering reads current values
    only -- it never mutates the registry or the histograms.
    """
    lines: List[str] = []
    emitted: set = set()
    snap = registry.snapshot()
    for name, value in sorted(snap["counters"].items()):
        prom = _disambiguate(_prom_name(name), emitted)
        emitted.add(prom)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {value}")
    for name, value in sorted(snap["gauges"].items()):
        prom = _disambiguate(_prom_name(name), emitted)
        emitted.add(prom)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {value}")
    for name, hist in sorted((histograms or {}).items()):
        prom = _disambiguate(_prom_name(name), emitted)
        emitted.add(prom)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = hist.underflow
        lines.append(f'{prom}_bucket{{le="{hist.lo!r}"}} {cumulative}')
        for idx, bucket_count in enumerate(hist.counts):
            if bucket_count:
                cumulative += bucket_count
                edge = hist._bucket_upper(idx)
                lines.append(f'{prom}_bucket{{le="{edge!r}"}} {cumulative}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{prom}_sum {hist.total}")
        lines.append(f"{prom}_count {hist.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_json_snapshot(registry, path: str) -> str:
    """Stream ``registry.snapshot()`` to ``path`` as JSON.

    Byte-identical to ``json.dump(registry.snapshot(), handle,
    indent=2, sort_keys=True)`` -- pinned in
    ``tests/obs/test_export.py`` -- but written one top-level section
    at a time via
    :meth:`~repro.obs.registry.MetricsRegistry.snapshot_sections`, so
    the full snapshot document is never materialised alongside the
    live registry at fleet scale.  Returns ``path``.
    """
    with open(path, "w") as handle:
        handle.write("{")
        first = True
        for name, section in registry.snapshot_sections():
            if not first:
                handle.write(",")
            first = False
            body = json.dumps(section, indent=2, sort_keys=True)
            handle.write(f'\n  "{name}": ' + body.replace("\n", "\n  "))
        handle.write("\n}")
    return path


def write_json_document(path: str, document: Dict[str, Any]) -> str:
    """Write a large JSON object to ``path``; returns ``path``.

    Byte-identical to ``json.dump(document, handle)`` -- which walks the
    document in pure Python -- but encoded by the C encoder.  A member
    that is a list is written ``_CHUNK`` elements per encoder call, so
    the document's text never exists all at once; any other member is
    encoded whole.  Keys must be strings.
    """
    encode = json.JSONEncoder().encode
    with open(path, "w") as handle:
        write = handle.write
        write("{")
        for index, (key, value) in enumerate(document.items()):
            if not isinstance(key, str):
                raise TypeError(f"document keys must be str, got {key!r}")
            write(f"{', ' if index else ''}{encode(key)}: ")
            if isinstance(value, list):
                write("[")
                for start in range(0, len(value), _CHUNK):
                    write(", " if start else "")
                    write(encode(value[start:start + _CHUNK])[1:-1])
                write("]")
            else:
                write(encode(value))
        write("}")
    return path
