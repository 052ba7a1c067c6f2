"""Tests for the sim-time tracer and its Chrome-trace export."""

import gc
import json
import os
import tempfile
import tracemalloc
from collections import deque
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ansa.stream import AudioQoS
from repro.core.runtime import Stack
from repro.obs.report import load_events, main as report_main
from repro.obs import trace as trace_module
from repro.obs.audit import FlightRecorder
from repro.obs.trace import NULL_TRACER, TraceLevel, Tracer, event_of
from repro.transport.addresses import TransportAddress


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _tracked_held(tracer):
    """GC-tracked objects reachable through the tracer's containers."""
    seen = set()
    stack = [v for k, v in vars(tracer).items() if k != "_clock"]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        if type(obj) in (list, tuple, dict):
            stack.extend(gc.get_referents(obj))
    return len(seen)


class TestTracer:
    def test_levels(self):
        assert not Tracer(FakeClock(), TraceLevel.OFF).enabled
        lifecycle = Tracer(FakeClock(), TraceLevel.LIFECYCLE)
        assert lifecycle.enabled and not lifecycle.packets
        packet = Tracer(FakeClock(), TraceLevel.PACKET)
        assert packet.enabled and packet.packets

    def test_guards_are_plain_attributes(self):
        """Instrumented sites evaluate ``trace.enabled`` / ``.packets``
        per packet: an attribute load, as on :class:`NullTracer`, not a
        property call."""
        tracer = Tracer(FakeClock(), TraceLevel.PACKET)
        for guard in ("enabled", "packets"):
            assert guard in vars(tracer)
            assert not isinstance(getattr(Tracer, guard, None), property)
            assert getattr(NULL_TRACER, guard) is False

    def test_atom_only_records_add_no_gc_tracked_objects(self):
        """An event is filed into columns under a shared head, so the
        objects the cyclic collector tracks do not grow with the number
        of atom-only records (with the collector off, nothing is
        untracked behind the test's back)."""
        clock = FakeClock()
        tracer = Tracer(clock, TraceLevel.PACKET)

        def record(n):
            for k in range(n):
                clock.t = k * 1e-3
                tracer.instant("tpdu.tx", track="vc:v1", cat="causal",
                               args={"packet_id": 1000 + k, "vc": "v1",
                                     "ok": True, "r": k / 7})
                tracer.complete("tx", clock.t, clock.t + 1e-4,
                                track="link:a->b", cat="link")
                tracer.counter("queue", {"depth": k})

        enabled = gc.isenabled()
        gc.disable()
        try:
            record(10)
            held = _tracked_held(tracer)
            record(1000)
            assert _tracked_held(tracer) == held
            # A value that is a container is one more, and only that.
            for lost in (7, 8):
                held = _tracked_held(tracer)
                tracer.instant("link.down", track="link:a->b", cat="fault",
                               args={"lost_packet_ids": [lost]})
            assert _tracked_held(tracer) == held + 1
        finally:
            if enabled:
                gc.enable()
        assert len(tracer) == len(tracer.events) == 3 * 1010 + 2

    def test_link_span_bytes_per_record(self):
        """A ratchet on the store's size: a PACKET link span with fresh
        ``bits``/``packet_id`` ints measured 114-116 B in columns (241 B
        as one tuple per event) under CPython 3.11 to 3.13."""
        tracer = Tracer(FakeClock(), TraceLevel.PACKET)
        n = 10_000
        tracer.complete("v0", 0.0, 1e-5, track="link:a->b", cat="link",
                        args={"bits": 1, "priority": 0, "packet_id": 1})
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(n):
                t = k * 1e-4
                tracer.complete("v0", t, t + 1e-5, track="link:a->b",
                                cat="link",
                                args={"bits": 8000 + k, "priority": 0,
                                      "packet_id": 100_000 + k})
            per_record = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert per_record <= 130, per_record

    def test_records_from_any_start(self):
        clock = FakeClock()
        tracer = Tracer(clock, TraceLevel.PACKET)
        for k in range(6):
            clock.t = k / 10
            tracer.instant("e", args={"k": k} if k % 2 else None)
            tracer.counter("c", {"a": k, "b": -k} if k % 3 else {})
        everything = tracer.records()
        assert len(everything) == len(tracer) == 12
        # Forwards, backwards and out of range, as list slicing does.
        for k in [*range(-14, 15), *range(14, -15, -1)]:
            assert tracer.records(k) == everything[k:]

    def test_instant_and_complete_events(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        clock.t = 0.5
        tracer.instant("nack", track="vc:v1", cat="recovery")
        span = tracer.span("prime:v1", track="vc:v1")
        clock.t = 1.5
        span.end(ok=True)
        events = tracer.events
        assert events[0]["ph"] == "i"
        assert events[0]["ts"] == 0.5e6
        assert events[1]["ph"] == "X"
        assert events[1]["ts"] == 0.5e6
        assert events[1]["dur"] == 1e6
        assert events[1]["args"]["ok"] is True

    def test_tracks_map_to_pids_with_metadata(self):
        tracer = Tracer(FakeClock())
        tracer.instant("a", track="vc:v1")
        tracer.instant("b", track="link:a->b")
        doc = tracer.to_dict()
        names = {
            e["args"]["name"]: e["pid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
        }
        assert set(names) == {"vc:v1", "link:a->b"}
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] != "M"}
        assert pids == set(names.values())

    def test_export_round_trip(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(clock)
        for k in range(5):
            clock.t = k * 0.1
            tracer.instant(f"e{k}", track="sim")
        path = tracer.export(str(tmp_path / "trace.json"))
        with open(path) as handle:
            doc = json.load(handle)
        assert "traceEvents" in doc
        events = load_events(path)
        timestamps = [e["ts"] for e in events if e["ph"] != "M"]
        assert timestamps == sorted(timestamps)

    def test_report_cli(self, tmp_path, capsys):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.span("prime:v1", track="vc:v1", cat="orch")
        clock.t = 0.25
        span.end()
        path = tracer.export(str(tmp_path / "trace.json"))
        assert report_main([path]) == 0
        out = capsys.readouterr().out
        assert "prime:v1" in out

    def test_report_cli_rejects_invalid(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"notTraceEvents": []}')
        assert report_main([str(bad)]) == 1

    @pytest.mark.parametrize("event, complaint", [
        ({"ph": "X", "name": "a", "dur": 1}, "no numeric 'ts'"),
        ({"ph": "i", "name": "a", "ts": "5"}, "no numeric 'ts'"),
        ({"ph": "i", "name": "a", "ts": True}, "no numeric 'ts'"),
        ({"ph": "X", "name": "a", "ts": 1, "dur": "x"},
         "non-numeric 'dur'"),
        ({"ph": "X", "name": "a", "ts": 1, "dur": None},
         "non-numeric 'dur'"),
    ])
    def test_report_cli_names_the_wrong_shape_event(
            self, tmp_path, capsys, event, complaint):
        """A wrong-shape event used to surface as an interpreter
        message (``min() arg is an empty sequence``, ``can only
        concatenate str``); it is named by index instead."""
        meta = {"ph": "M", "name": "process_name", "pid": 1,
                "args": {"name": "vc:v1"}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [meta, event]}))
        assert report_main([str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid trace: trace event 1 ")
        assert complaint in err
        with pytest.raises(ValueError, match="trace event 1 "):
            load_events(str(bad))

    def test_report_cli_metadata_only_trace_has_no_events(
            self, tmp_path, capsys):
        path = tmp_path / "meta.json"
        path.write_text(json.dumps({"traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1,
             "args": {"name": "vc:v1"}},
        ]}))
        assert report_main([str(path)]) == 0
        assert "no events" in capsys.readouterr().out


class _TupleStore:
    """The reference: one flat record tuple per event, appended to a
    list (or to a ring of ``capacity``), and the event dicts built from
    them by :func:`event_of`."""

    def __init__(self, clock, capacity=None):
        self.clock = clock
        self.pids = {}
        self.records = [] if capacity is None else deque(maxlen=capacity)

    def _file(self, name, ph, ts, dur, track, cat, args):
        pid = self.pids.setdefault(track, len(self.pids) + 1)
        tail = (None,) if args is None else (tuple(args), *args.values())
        self.records.append((name, ph, ts, dur, pid, cat) + tail)

    def instant(self, name, track, cat, args):
        self._file(name, "i", self.clock() * 1e6, None, track, cat,
                   args or None)

    def complete(self, name, start, end, track, cat, args):
        self._file(name, "X", start * 1e6, max(end - start, 0.0) * 1e6,
                   track, cat, args or None)

    def counter(self, name, values, track):
        self._file(name, "C", self.clock() * 1e6, None, track, None, values)

    def to_dict(self):
        metadata = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": track}}
            for track, pid in self.pids.items()
        ]
        return {"traceEvents": metadata + [event_of(r) for r in self.records],
                "displayTimeUnit": "ms"}


class _Int(int):
    """An int subclass whose repr is not its JSON text."""

    def __repr__(self):
        return f"_Int({int(self)})"


class _Float(float):
    """A float subclass whose repr is not its JSON text."""

    def __repr__(self):
        return f"_Float({float(self)})"


#: Text a template must escape or double: JSON specials, control
#: characters, non-ASCII, a lone surrogate, and ``%`` / ``{`` for
#: templates built by %-formatting or ``str.format``.
_awkward = st.sampled_from([
    "%s", "%", "%%d", "{", "{0}", '"', "\\", "\x00\x1f\n\t", "\u00e9t\u00e9",
    "\u540d", "\ud800", "\u2028",
])
_text = _awkward | st.text(max_size=3)
_atoms = st.one_of(
    st.booleans(), st.none(), st.integers(), _text,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(TraceLevel), st.integers().map(_Int),
    st.floats(allow_nan=True, allow_infinity=True).map(_Float),
)
_values = st.recursive(
    _atoms,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_text, inner, max_size=3),
    max_leaves=6,
)
#: Key sets drawn from a small pool repeat; free text makes new ones,
#: and keys that are not str (``True``, ``1`` and ``1.0`` are one dict
#: key) are written as JSON writes them.
_str_keys = (
    st.sampled_from(["packet_id", "vc", "bits", "flow", "\u00e9t\u00e9"])
    | _text
)
_keys = (
    _str_keys
    | st.integers(-1, 2) | st.booleans() | st.none()
    | st.sampled_from([0.0, -0.0, 1.0, 1.5, float("nan"), float("inf")])
    | st.sampled_from([TraceLevel.LIFECYCLE, _Int(1), _Float(1.0)])
)
_args = st.dictionaries(_keys, _values, max_size=4)
_names = st.sampled_from(["tpdu.tx", "rx", "v0", "\u540d"]) | _text
_tracks = st.sampled_from(["sim", "vc:v1", "link:a->b"])
_cats = st.sampled_from(["event", "causal", "link", "fault", None]) | _text
#: Clock readings and span ends, NaN and the infinities included.
_odd_times = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_times = st.floats(-5.0, 5.0) | _odd_times
_ops = st.lists(st.one_of(
    st.tuples(st.just("advance"), st.floats(0.0, 2.0)),
    st.tuples(st.just("set"), _times),
    st.tuples(st.just("instant"), _names, _tracks, _cats,
              st.none() | _args),
    st.tuples(st.just("complete"), _names, _times, _times, _tracks, _cats,
              st.none() | _args),
    st.tuples(st.just("counter"), _names, _args, _tracks),
    st.tuples(st.just("open"), _names, _tracks, _cats, st.none() | _args),
    # Span.end() takes its extra args as keywords.
    st.tuples(st.just("close"), st.dictionaries(_str_keys, _values,
                                                max_size=4)),
), max_size=30)


def _replay(ops, tracer, reference, clock):
    """Drive the tracer and the reference through the same calls."""
    spans = []
    for op, *rest in ops:
        if op == "advance":
            clock.t += rest[0]
        elif op == "set":
            clock.t = rest[0]
        elif op == "instant":
            name, track, cat, args = rest
            tracer.instant(name, track=track, cat=cat, args=args)
            reference.instant(name, track, cat, args)
        elif op == "complete":
            name, start, end, track, cat, args = rest
            tracer.complete(name, start, end, track=track, cat=cat,
                            args=args)
            reference.complete(name, start, end, track, cat, args)
        elif op == "counter":
            name, values, track = rest
            tracer.counter(name, values, track=track)
            reference.counter(name, values, track)
        elif op == "open":
            name, track, cat, args = rest
            spans.append((tracer.span(name, track=track, cat=cat, args=args),
                          clock.t))
        elif spans:
            span, start = spans.pop(0)
            span.end(**rest[0])
            args = dict(span.args or {})
            reference.complete(span.name, start, clock.t, span.track,
                               span.cat, args)


class TestColumnStoreEquivalence:
    """The column store reads back exactly what one tuple per event
    held: records, events, the document and its exported bytes.

    Reads are compared by ``repr``, which tells NaN from NaN as equal,
    ``True`` from ``1`` and ``-0.0`` from ``0.0`` as different.  The
    export is written a few events per write, so that a drawn trace
    crosses chunk boundaries."""

    @settings(max_examples=150, deadline=None)
    @given(ops=_ops, per_write=st.integers(1, 4))
    @example(ops=[("instant", "%s", "sim", "%d", {"%s": "%s", "k": 1}),
                  ("complete", "%s", 0.0, 1.0, "sim", "{0}", {"{": "%"})],
             per_write=1)
    @example(ops=[("instant", "e", "sim", "event", {True: 1, 1: "one"}),
                  ("instant", "e", "sim", "event", {1: 1}),
                  ("instant", "e", "sim", "event", {1.0: 1}),
                  ("instant", "e", "sim", "event", {False: 0, 2: 2}),
                  ("instant", "e", "sim", "event", {0: 0, 2: 2}),
                  ("instant", "e", "sim", "event", {-0.0: 0, 2: 2})],
             per_write=4)
    def test_tracer_matches_the_tuple_store(self, ops, per_write):
        clock = FakeClock()
        tracer = Tracer(clock, TraceLevel.PACKET)
        reference = _TupleStore(clock)
        _replay(ops, tracer, reference, clock)
        records = reference.records
        assert len(tracer) == len(records)
        n = len(records)
        for k in [*range(n + 2), *range(n, -n - 2, -1)]:
            assert repr(tracer.records(k)) == repr(records[k:])
        assert repr(tracer.events) == repr([event_of(r) for r in records])
        assert repr(tracer.to_dict()) == repr(reference.to_dict())
        exported = self._exported(tracer, per_write)
        assert exported == json.dumps(reference.to_dict())
        assert exported == json.dumps(tracer.to_dict())

    @settings(max_examples=100, deadline=None)
    @given(ops=_ops, capacity=st.integers(1, 5),
           per_write=st.integers(1, 4))
    def test_wrapped_flight_recorder_matches_a_ring_of_tuples(
            self, ops, capacity, per_write):
        clock = FakeClock()
        ring = FlightRecorder(clock, capacity=capacity)
        reference = _TupleStore(clock, capacity=capacity)
        _replay(ops, ring, reference, clock)
        assert repr(ring.records()) == repr(list(reference.records))
        assert repr(ring.snapshot()) == repr(
            [event_of(r) for r in reference.records])
        assert (self._exported(ring, per_write)
                == json.dumps(reference.to_dict()))

    @staticmethod
    def _exported(tracer, per_write):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
                trace_module, "_EVENTS_PER_WRITE", per_write):
            path = tracer.export(os.path.join(tmp, "trace.json"))
            with open(path, encoding="utf-8") as handle:
                return handle.read()


def _one_vc_stack():
    stack = Stack(seed=3)
    stack.host("src")
    stack.host("snk").link("src", bandwidth_bps=10e6, prop_delay=0.002)
    stack.up()
    return stack


def _open_vc(stack):
    holder = {}

    def connector():
        holder["stream"] = yield from stack.factory.create(
            TransportAddress("src", 1), TransportAddress("snk", 1),
            AudioQoS.telephone(),
        )

    stack.spawn(connector())
    stack.run(2.0)
    return holder["stream"]


def _scheduled_events(stack):
    """Total events ever pushed on the heap (consumes one seq number)."""
    return next(stack.sim._seq)


class TestDisabledTracingIsFree:
    def test_null_tracer_is_default_and_records_nothing(self, sim):
        assert sim.trace is NULL_TRACER
        assert sim.trace.span("x") is None
        sim.trace.instant("x")
        sim.trace.complete("x", 0.0, 1.0)

    def test_disabled_tracing_schedules_no_extra_events(self):
        """With the null tracer the run must be event-for-event
        identical to an instrumented-but-disabled run: tracing may
        never schedule simulator events or change their order."""
        baseline = _one_vc_stack()
        _open_vc(baseline)
        baseline.run(2.0)

        traced = _one_vc_stack()
        tracer = traced.enable_tracing(TraceLevel.PACKET)
        _open_vc(traced)
        traced.run(2.0)

        disabled = _one_vc_stack()
        disabled.enable_tracing(TraceLevel.OFF)
        _open_vc(disabled)
        disabled.run(2.0)

        # The tracer recorded plenty...
        assert len(tracer) > 0
        # ...but neither it nor the disabled tracer perturbed the
        # simulation: the exact same number of events was scheduled
        # and virtual time ended in the same place.
        counts = {
            name: _scheduled_events(stack)
            for name, stack in (
                ("baseline", baseline), ("traced", traced),
                ("disabled", disabled),
            )
        }
        assert counts["baseline"] == counts["traced"] == counts["disabled"]
        assert baseline.sim.now == traced.sim.now


class TestStackTracing:
    def test_enable_and_export(self, tmp_path):
        stack = _one_vc_stack()
        stack.enable_tracing()
        _open_vc(stack)
        path = stack.export_trace(str(tmp_path / "run.json"))
        events = load_events(path)
        assert any(
            e["ph"] == "X" and e["name"].startswith("connect:")
            for e in events
        )

    def test_export_without_tracer_raises(self):
        import pytest

        stack = _one_vc_stack()
        with pytest.raises(RuntimeError):
            stack.export_trace("/tmp/never.json")
