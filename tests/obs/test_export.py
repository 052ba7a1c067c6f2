"""Tests for the exporters: histogram quantiles, Prometheus, JSON."""

import hashlib
import io
import json
import math
import tracemalloc

import pytest

from repro.core import Stack
from repro.obs import export
from repro.obs import trace as trace_module
from repro.obs.audit import FlightRecorder
from repro.obs.export import (
    FixedBucketHistogram,
    prometheus_text,
    write_json_document,
    write_json_snapshot,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceLevel, Tracer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestFixedBucketHistogram:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            FixedBucketHistogram(lo=1.0, hi=1.0)
        with pytest.raises(ValueError):
            FixedBucketHistogram(lo=-1.0, hi=1.0)
        with pytest.raises(ValueError):
            FixedBucketHistogram(buckets=0)

    def test_empty_quantiles_are_nan(self):
        hist = FixedBucketHistogram()
        assert math.isnan(hist.p50)
        assert math.isnan(hist.p999)
        assert math.isnan(hist.mean)
        assert len(hist) == 0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_single_sample_reports_itself_exactly(self):
        hist = FixedBucketHistogram(lo=1e-3, hi=10.0)
        hist.record(0.125)
        # Every quantile of a one-sample distribution is that sample;
        # the clamp into [min, max] must defeat bucket rounding.
        for q in (0.0, 0.5, 0.95, 0.999, 1.0):
            assert hist.quantile(q) == 0.125
        assert hist.mean == 0.125

    def test_saturated_top_bucket_reports_observed_max(self):
        hist = FixedBucketHistogram(lo=1e-3, hi=1.0, buckets=8)
        # All mass beyond hi: quantiles must answer the true maximum,
        # not the histogram's upper bound.
        for value in (3.0, 5.0, 42.0):
            hist.record(value)
        assert hist.overflow == 3
        assert hist.p50 == 42.0
        assert hist.p999 == 42.0

    def test_underflow_clamps_to_observed_min(self):
        hist = FixedBucketHistogram(lo=1e-3, hi=1.0)
        hist.record(1e-6)
        hist.record(1e-5)
        assert hist.underflow == 2
        # All mass below lo: the underflow bucket's bound (lo) clamps
        # down to the observed maximum.
        assert hist.p50 == 1e-5
        assert hist.p999 == 1e-5

    def test_quantiles_track_the_distribution(self):
        hist = FixedBucketHistogram(lo=1e-4, hi=10.0, buckets=256)
        values = [0.001 * (i + 1) for i in range(1000)]  # 1 ms .. 1 s
        for value in values:
            hist.record(value)
        assert hist.count == 1000
        # Geometric buckets give ~ (hi/lo)^(1/256) ~ 4.6% resolution.
        assert hist.p50 == pytest.approx(0.5, rel=0.06)
        assert hist.p99 == pytest.approx(0.99, rel=0.06)
        assert hist.maximum == pytest.approx(1.0)

    def test_nan_observations_are_ignored(self):
        hist = FixedBucketHistogram()
        hist.record(float("nan"))
        assert len(hist) == 0

    def test_round_trip_through_dict(self):
        hist = FixedBucketHistogram(lo=1e-3, hi=1.0, buckets=16)
        for value in (1e-6, 0.01, 0.2, 5.0):
            hist.record(value)
        clone = FixedBucketHistogram.from_dict(
            json.loads(json.dumps(hist.to_dict()))
        )
        assert clone.count == hist.count
        assert clone.counts == hist.counts
        assert clone.underflow == hist.underflow
        assert clone.overflow == hist.overflow
        assert clone.p50 == hist.p50
        assert clone.p999 == hist.p999

    def test_to_dict_reports_none_for_empty(self):
        doc = FixedBucketHistogram().to_dict()
        assert doc["count"] == 0
        assert doc["min"] is None and doc["max"] is None
        assert doc["p50"] is None and doc["p999"] is None

    def test_record_lo_lands_in_bucket_zero(self):
        # The docstring contract: bucket 0 covers [lo, lo*r), so lo
        # itself is a bucket-0 sample, not underflow.
        hist = FixedBucketHistogram(lo=1e-3, hi=1.0, buckets=8)
        hist.record(1e-3)
        assert hist.underflow == 0
        assert hist.counts[0] == 1
        assert hist.minimum == 1e-3

    def test_values_below_lo_still_underflow(self):
        hist = FixedBucketHistogram(lo=1e-3, hi=1.0, buckets=8)
        hist.record(0.99e-3)
        assert hist.underflow == 1
        assert sum(hist.counts) == 0

    def test_from_dict_derives_finite_min_max_when_keys_absent(self):
        hist = FixedBucketHistogram(lo=1e-3, hi=1.0, buckets=16)
        for value in (0.01, 0.2):
            hist.record(value)
        doc = hist.to_dict()
        del doc["min"], doc["max"]
        clone = FixedBucketHistogram.from_dict(doc)
        # count > 0 must never leave the inf/-inf sentinels in place:
        # they poison quantile clamping (p50 would return inf-clamped
        # garbage) and serialise as Infinity in JSON.
        assert math.isfinite(clone.minimum)
        assert math.isfinite(clone.maximum)
        assert clone.minimum <= 0.01 * (1 + 1e-9)
        assert clone.maximum >= 0.2 * (1 - 1e-9)
        assert clone.minimum <= clone.p50 <= clone.maximum

    def test_from_dict_without_min_max_all_underflow_overflow(self):
        hist = FixedBucketHistogram(lo=1e-3, hi=1.0, buckets=8)
        hist.record(1e-6)
        hist.record(42.0)
        doc = hist.to_dict()
        del doc["min"], doc["max"]
        clone = FixedBucketHistogram.from_dict(doc)
        # Only the edge buckets are occupied: the tightest derivable
        # bounds are the histogram's own edges.
        assert clone.minimum == pytest.approx(1e-3)
        assert clone.maximum == pytest.approx(1.0)

    def test_from_dict_empty_keeps_sentinels(self):
        clone = FixedBucketHistogram.from_dict(
            FixedBucketHistogram().to_dict()
        )
        assert clone.minimum == math.inf
        assert clone.maximum == -math.inf


class TestRegistrySnapshot:
    def test_snapshot_shape(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock)
        registry.counter("vc.v1.osdus").inc(3)
        registry.gauge("vc.v1.rate").set(2e6)
        registry.window("vc.v1.delay").add(0.01)
        clock.t = 1.0
        snap = registry.snapshot()
        assert snap["now"] == 1.0
        assert snap["counters"]["vc.v1.osdus"] == 3
        assert snap["gauges"]["vc.v1.rate"] == 2e6
        window = snap["windows"]["vc.v1.delay"]
        assert window["count"] == 1
        assert window["min"] == window["max"] == 0.01

    def test_snapshot_does_not_reset_windows(self):
        registry = MetricsRegistry(FakeClock())
        registry.window("s").add(1.0)
        registry.snapshot()
        assert registry.snapshot()["windows"]["s"]["count"] == 1


class TestPrometheusText:
    def test_counters_and_gauges_with_sanitised_names(self):
        registry = MetricsRegistry(FakeClock())
        registry.counter("vc.v1.arrived_bits").inc(8000)
        registry.gauge("link.a->b.rate").set(1e6)
        text = prometheus_text(registry)
        assert "# TYPE vc_v1_arrived_bits counter" in text
        assert "vc_v1_arrived_bits 8000" in text
        assert "# TYPE link_a__b_rate gauge" in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry(FakeClock())) == ""

    def test_colliding_sanitised_names_stay_distinct(self):
        registry = MetricsRegistry(FakeClock())
        registry.counter("vc.v0.x").inc(1)
        registry.counter("vc_v0_x").inc(2)
        registry.counter("vc-v0-x").inc(3)
        text = prometheus_text(registry)
        lines = text.splitlines()
        sample_names = [
            line.split()[0] for line in lines if not line.startswith("#")
        ]
        # Valid exposition: every metric name appears exactly once.
        assert len(sample_names) == len(set(sample_names)) == 3
        type_lines = [line for line in lines if line.startswith("# TYPE")]
        assert len(type_lines) == 3
        # Deterministic: the sorted-first name keeps the plain form,
        # later colliders get numbered suffixes.
        assert "vc_v0_x 3" in text          # "vc-v0-x" sorts first
        assert "vc_v0_x_2 1" in text        # then "vc.v0.x"
        assert "vc_v0_x_3 2" in text        # then "vc_v0_x"

    def test_counter_gauge_collision_disambiguated(self):
        registry = MetricsRegistry(FakeClock())
        registry.counter("a.b").inc(7)
        registry.gauge("a_b").set(9.0)
        text = prometheus_text(registry)
        assert "# TYPE a_b counter" in text
        assert "a_b 7" in text
        assert "# TYPE a_b_2 gauge" in text
        assert "a_b_2 9.0" in text

    def test_json_snapshot_file(self, tmp_path):
        registry = MetricsRegistry(FakeClock())
        registry.counter("c").inc()
        path = write_json_snapshot(registry, str(tmp_path / "m.json"))
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["counters"]["c"] == 1


class TestPrometheusHistograms:
    def _hist(self):
        hist = FixedBucketHistogram(lo=1e-3, hi=10.0, buckets=32)
        for value in (0.0001, 0.002, 0.002, 0.05, 1.5, 42.0):
            hist.record(value)
        return hist

    def test_exposition_shape(self):
        registry = MetricsRegistry(FakeClock())
        hist = self._hist()
        text = prometheus_text(registry, histograms={"delay.s": hist})
        assert "# TYPE delay_s histogram" in text
        assert 'delay_s_bucket{le="0.001"} 1' in text  # underflow anchor
        assert 'delay_s_bucket{le="+Inf"} 6' in text
        assert f"delay_s_sum {hist.total}" in text
        assert "delay_s_count 6" in text
        # Cumulative and monotone.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines() if "_bucket" in line
        ]
        assert counts == sorted(counts)

    def test_round_trips_through_exposition(self):
        registry = MetricsRegistry(FakeClock())
        hist = self._hist()
        text = prometheus_text(registry, histograms={"h": hist})
        # A reader that knows the bucket layout reconstructs the exact
        # per-bucket counts from the cumulative ``le`` samples.
        rebuilt = FixedBucketHistogram(
            lo=hist.lo, hi=hist.hi, buckets=hist.buckets,
        )
        edges = []
        for line in text.splitlines():
            if not line.startswith("h_bucket"):
                continue
            le = line.split('le="', 1)[1].split('"', 1)[0]
            cumulative = int(line.rsplit(" ", 1)[1])
            edges.append((le, cumulative))
        previous = 0
        for le, cumulative in edges:
            mass = cumulative - previous
            previous = cumulative
            if le == repr(hist.lo):
                rebuilt.underflow = mass
            elif le == "+Inf":
                rebuilt.overflow = mass
            else:
                upper = float(le)
                idx = min(
                    range(hist.buckets),
                    key=lambda k: abs(hist._bucket_upper(k) - upper),
                )
                rebuilt.counts[idx] = mass
        assert rebuilt.counts == hist.counts
        assert rebuilt.underflow == hist.underflow
        assert rebuilt.overflow == hist.overflow

    def test_histogram_name_collides_with_counter(self):
        registry = MetricsRegistry(FakeClock())
        registry.counter("delay.s").inc(1)
        text = prometheus_text(
            registry, histograms={"delay_s": self._hist()},
        )
        assert "# TYPE delay_s counter" in text
        assert "# TYPE delay_s_2 histogram" in text

    def test_empty_histogram_renders_zero_buckets(self):
        registry = MetricsRegistry(FakeClock())
        hist = FixedBucketHistogram(lo=1e-3, hi=1.0, buckets=4)
        text = prometheus_text(registry, histograms={"h": hist})
        assert 'h_bucket{le="+Inf"} 0' in text
        assert "h_count 0" in text


class TestStreamedJsonSnapshot:
    def test_byte_identical_to_buffered_dump(self, tmp_path):
        clock = FakeClock()
        registry = MetricsRegistry(clock)
        registry.counter("vc.v1.osdus").inc(3)
        registry.gauge("vc.v1.rate").set(2e6)
        registry.window("vc.v1.delay").add(0.01)
        registry.series("vc.v1.jitter").add(0.001)
        clock.t = 4.25
        path = write_json_snapshot(registry, str(tmp_path / "m.json"))
        expected = json.dumps(
            registry.snapshot(), indent=2, sort_keys=True,
        )
        assert open(path).read() == expected

    def test_empty_registry_byte_identical(self, tmp_path):
        registry = MetricsRegistry(FakeClock())
        path = write_json_snapshot(registry, str(tmp_path / "m.json"))
        expected = json.dumps(
            registry.snapshot(), indent=2, sort_keys=True,
        )
        assert open(path).read() == expected


def _buffered(document) -> str:
    """What ``json.dump(document, handle)`` writes."""
    handle = io.StringIO()
    json.dump(document, handle)
    return handle.getvalue()


CHUNK = export._CHUNK
#: Array lengths around the writer's chunk boundaries.
BOUNDARIES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1]
PER_WRITE = trace_module._EVENTS_PER_WRITE
#: Trace lengths around the trace export's write boundaries.
WRITE_BOUNDARIES = [PER_WRITE - 1, PER_WRITE, PER_WRITE + 1, 2 * PER_WRITE + 1]


class TestJsonDocumentWriter:
    @pytest.mark.parametrize("length", BOUNDARIES)
    def test_array_members_byte_identical_at_chunk_boundaries(
            self, tmp_path, length):
        document = {
            "kind": "t",
            "rows": [{"i": i, "x": i / 7, "s": "é\"\n"} for i in range(length)],
            "nested": {"a": [1, 2.5, None, True], "inf": float("inf")},
            "tail": list(range(length)),
        }
        path = write_json_document(str(tmp_path / "d.json"), document)
        assert open(path).read() == _buffered(document)

    def test_empty_document_and_non_string_keys(self, tmp_path):
        path = write_json_document(str(tmp_path / "d.json"), {})
        assert open(path).read() == "{}"
        with pytest.raises(TypeError):
            write_json_document(str(tmp_path / "e.json"), {1: []})


def _fill(tracer, clock, count, with_args):
    """``count`` events of all three phases on two tracks."""
    for k in range(count):
        clock.t = k * 0.125 + 1 / 3
        args = {"packet_id": k, "vc": "v1", "ok": k % 2 == 0,
                "ids": [k, k + 1]} if with_args else None
        if k % 3 == 0:
            tracer.instant(f"rx:v1#{k}", track="node:b", cat="rx", args=args)
        elif k % 3 == 1:
            tracer.complete("tx", clock.t - 0.01, clock.t, track="link:a->b",
                            cat="link", args=args)
        else:
            tracer.counter("queue", {"depth": k, "bytes": k * 1.5}
                           if with_args else {}, track="link:a->b")


class TestTraceExportIdentity:
    """``Tracer.export`` streams; ``to_dict`` is the reference document."""

    @pytest.mark.parametrize("with_args", [True, False],
                             ids=["args", "no-args"])
    @pytest.mark.parametrize("count", BOUNDARIES)
    def test_tracer(self, tmp_path, count, with_args):
        clock = FakeClock()
        tracer = Tracer(clock, TraceLevel.PACKET)
        _fill(tracer, clock, count, with_args)
        path = tracer.export(str(tmp_path / "t.json"))
        assert open(path).read() == _buffered(tracer.to_dict())
        assert len(tracer.to_dict()["traceEvents"]) == count + min(count, 2)

    @pytest.mark.parametrize("count", WRITE_BOUNDARIES)
    def test_tracer_at_write_boundaries(self, tmp_path, count):
        clock = FakeClock()
        tracer = Tracer(clock, TraceLevel.PACKET)
        _fill(tracer, clock, count, True)
        path = tracer.export(str(tmp_path / "t.json"))
        assert open(path).read() == _buffered(tracer.to_dict())

    def test_export_memory_does_not_grow_with_the_trace(self, tmp_path):
        """The export holds one write's worth of events: its peak
        allocation for 50 000 link spans is that for 5 000."""

        def export_peak(count):
            tracer = Tracer(FakeClock(), TraceLevel.PACKET)
            for k in range(count):
                t = k * 1e-4
                tracer.complete("v0", t, t + 1e-5 * (1 + k % 7),
                                track="link:a->b", cat="link",
                                args={"bits": 8000 + k, "priority": 0,
                                      "packet_id": k})
            tracemalloc.start()
            try:
                tracer.export(str(tmp_path / f"{count}.json"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = export_peak(5_000), export_peak(50_000)
        assert large - small < 32 * 1024, (small, large)

    @pytest.mark.parametrize("count", BOUNDARIES)
    def test_flight_recorder(self, tmp_path, count):
        clock = FakeClock()
        ring = FlightRecorder(clock, capacity=CHUNK + 1)
        _fill(ring, clock, count, True)
        path = ring.export(str(tmp_path / "r.json"))
        assert open(path).read() == _buffered(ring.to_dict())
        assert len(ring.snapshot()) == min(count, CHUNK + 1)

    def test_views_are_fresh_dicts_in_the_recorded_key_order(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        _fill(tracer, clock, 3, True)
        instant, span, counter = tracer.events
        assert list(instant) == ["name", "ph", "s", "ts", "pid", "tid",
                                 "cat", "args"]
        assert list(span) == ["name", "ph", "ts", "dur", "pid", "tid",
                              "cat", "args"]
        assert list(counter) == ["name", "ph", "ts", "pid", "tid", "args"]
        instant["args"]["packet_id"] = "scribbled"
        assert tracer.events[0]["args"]["packet_id"] == 0


#: sha256 over audit.json + trace.json of the ledger's ``film_obs`` stack
#: (perf/workloads/film.py, seed 1) after 5 virtual seconds of play,
#: taken at the commit before the record store replaced the dict store.
FILM_EXPORTS_SHA256 = (
    "6ce5ef172de02e78609d4ccc09e1842407732c1e1f1ec10bf667628bbb6f4600"
)


def test_film_stack_exports_are_the_same_bytes(tmp_path):
    from perf.workloads import film
    from repro.sim.shard import reset_process_state

    reset_process_state()
    stack = film.build(1, obs=True)
    groups = [film._Group(stack, g) for g in range(film.GROUPS)]
    film._stage(stack, groups, "connected", "connect")
    for group in groups:
        group.attach_media()
    film._stage(stack, groups, "started", "orchestrate")
    stack.run(5.0)
    digest = hashlib.sha256()
    for path in (stack.export_audit(str(tmp_path / "audit.json")),
                 stack.export_trace(str(tmp_path / "trace.json"))):
        with open(path, "rb") as handle:
            digest.update(handle.read())
    assert len(stack.sim.trace) == 31062
    assert digest.hexdigest() == FILM_EXPORTS_SHA256


def _one_film_group(traced):
    """The ledger's film group (perf/workloads/film.py) alone, audited
    and, when ``traced``, PACKET-traced, after 2 virtual seconds of
    play; without a tracer the auditor installs a flight recorder of
    1,000 events, which the run wraps."""
    from perf.workloads import film
    from repro.sim.shard import reset_process_state

    reset_process_state()
    stack = Stack(seed=1)
    if traced:
        stack.enable_tracing(TraceLevel.PACKET)
    stack.enable_audit(flight_capacity=1000)
    stack.router("net")
    for role in ("video-srv", "audio-srv", "ws"):
        stack.host(f"{role}0")
        stack.link(f"{role}0", "net", 20e6, prop_delay=0.003)
    stack.up()
    group = film._Group(stack, 0)
    film._stage(stack, [group], "connected", "connect")
    group.attach_media()
    film._stage(stack, [group], "started", "orchestrate")
    stack.run(2.0)
    return stack


class TestRealTrafficExport:
    """Real traffic, not drawn traffic: the export of a film run is the
    bytes ``json.dumps`` writes for its document."""

    def test_tracer(self, tmp_path):
        stack = _one_film_group(traced=True)
        tracer = stack.sim.trace
        assert type(tracer) is Tracer and len(tracer) > 2 * PER_WRITE
        path = stack.export_trace(str(tmp_path / "trace.json"))
        assert open(path).read() == json.dumps(tracer.to_dict())

    def test_flight_recorder(self, tmp_path):
        stack = _one_film_group(traced=False)
        ring = stack.sim.trace
        assert type(ring) is FlightRecorder and len(ring) == ring.capacity
        path = stack.export_trace(str(tmp_path / "ring.json"))
        assert open(path).read() == json.dumps(ring.to_dict())
