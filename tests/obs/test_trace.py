"""Tests for the sim-time tracer and its Chrome-trace export."""

import gc
import json

import pytest

from repro.ansa.stream import AudioQoS
from repro.core.runtime import Stack
from repro.obs.report import load_events, main as report_main
from repro.obs.trace import NULL_TRACER, TraceLevel, Tracer
from repro.transport.addresses import TransportAddress


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


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

    def test_atom_only_records_leave_the_cyclic_gc(self):
        clock = FakeClock()
        tracer = Tracer(clock, TraceLevel.PACKET)
        tracer.instant("tpdu.tx", track="vc:v1", cat="causal",
                       args={"packet_id": 7, "vc": "v1", "ok": True})
        tracer.complete("tx", 0.0, 0.5, track="link:a->b", cat="link")
        tracer.counter("queue", {"depth": 3})
        tracer.instant("link.down", track="link:a->b", cat="fault",
                       args={"lost_packet_ids": [7]})
        # A key tuple seen for the first time is untracked by one pass,
        # the record holding it by the next; later records with those
        # keys go in their first.
        gc.collect()
        gc.collect()
        atoms, bare, counter, with_list = tracer.records()
        assert not any(map(gc.is_tracked, (atoms, bare, counter)))
        assert gc.is_tracked(with_list)  # a list may close a cycle
        assert len(tracer) == len(tracer.events) == 4

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
