"""Tests for the QoS conformance auditor and flight recorder."""

import json

import pytest

from repro.ansa.stream import AudioQoS
from repro.core.runtime import Stack
from repro.obs.audit import (
    FlightRecorder,
    QoSAuditor,
    install_audit,
    merge_snapshots,
)
from repro.obs import trace as trace_module
from repro.obs.causality import ChainIndex
from repro.obs.trace import TraceLevel, Tracer
from repro.sim.scheduler import Simulator
from repro.transport.addresses import TransportAddress
from repro.transport.qos import QoSContract, QoSMeasurement

_US = 1e6

CONTRACT = QoSContract(
    throughput_bps=1e6, delay_s=0.1, jitter_s=0.01,
    packet_error_rate=0.01, bit_error_rate=1e-6, max_osdu_bytes=1000,
)


def _measurement(t0=0.0, t1=1.0, **kwargs):
    return QoSMeasurement(period_start=t0, period_end=t1, **kwargs)


def _met():
    return _measurement(
        osdus_delivered=100, throughput_bps=1e6, mean_delay_s=0.05,
        jitter_s=0.001, packet_error_rate=0.0, bit_error_rate=0.0,
    )


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(lambda: 0.0, capacity=4)
        for k in range(10):
            recorder.instant(f"e{k}", track="sim")
        events = recorder.snapshot()
        assert len(events) == 4
        # Oldest events fell off the ring; the latest survive in order.
        assert [e["name"] for e in events] == ["e6", "e7", "e8", "e9"]

    def test_records_at_packet_level_by_default(self):
        recorder = FlightRecorder(lambda: 0.0)
        assert recorder.enabled and recorder.packets

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(lambda: 0.0, capacity=0)

    def test_export_works_from_the_ring(self, tmp_path):
        recorder = FlightRecorder(lambda: 0.0, capacity=8)
        recorder.instant("x", track="sim")
        path = recorder.export(str(tmp_path / "ring.json"))
        with open(path) as handle:
            doc = json.load(handle)
        assert any(e.get("name") == "x" for e in doc["traceEvents"])


class TestVerdicts:
    def _auditor(self):
        sim = Simulator()
        return QoSAuditor(sim)

    def test_met_period(self):
        auditor = self._auditor()
        auditor.register_connection("v1", CONTRACT)
        auditor.record_period("v1", CONTRACT, _met(), [])
        snap = auditor.snapshot()
        conn = snap["connections"][0]
        assert conn["counts"] == {
            "met": 1, "degraded": 0, "violated": 0, "idle": 0,
        }
        assert conn["conformance"] == 1.0
        assert conn["timeline"][0]["verdict"] == "met"

    def test_idle_period_is_excluded_from_conformance(self):
        auditor = self._auditor()
        auditor.record_period("v1", CONTRACT, _measurement(), [])
        conn = auditor.snapshot()["connections"][0]
        assert conn["counts"]["idle"] == 1
        assert conn["conformance"] is None

    def test_degraded_within_monitor_margin(self):
        # Delay 3% over contract: inside the monitor's 5% tolerance so
        # no QoSViolation fires, but the auditor still files "degraded".
        measurement = _measurement(
            osdus_delivered=100, throughput_bps=1e6, mean_delay_s=0.103,
        )
        assert CONTRACT.violations(measurement) == []
        auditor = self._auditor()
        auditor.record_period(
            "v1", CONTRACT, measurement, CONTRACT.violations(measurement)
        )
        conn = auditor.snapshot()["connections"][0]
        assert conn["counts"]["degraded"] == 1
        entry = conn["timeline"][0]
        assert entry["degraded"][0]["parameter"] == "delay"
        assert entry["degraded"][0]["observed"] == 0.103

    def test_violated_period_with_dimension_and_magnitude(self):
        measurement = _measurement(
            t0=2.0, t1=3.0, osdus_delivered=40, throughput_bps=4e5,
        )
        violations = CONTRACT.violations(measurement)
        assert violations
        auditor = self._auditor()
        auditor.record_period("v1", CONTRACT, measurement, violations)
        conn = auditor.snapshot()["connections"][0]
        assert conn["counts"]["violated"] == 1
        recorded = conn["timeline"][0]["violations"][0]
        assert recorded["parameter"] == "throughput"
        assert recorded["contracted"] == 1e6
        assert recorded["observed"] == 4e5
        assert recorded["ratio"] == pytest.approx(0.4)
        # First violation timestamped at the period's end.
        assert conn["time_to_first_violation"] == 3.0

    def test_conformance_fraction_over_mixed_timeline(self):
        auditor = self._auditor()
        auditor.register_connection("v1", CONTRACT)
        auditor.record_period("v1", CONTRACT, _met(), [])
        auditor.record_period("v1", CONTRACT, _met(), [])
        bad = _measurement(osdus_delivered=1, throughput_bps=1e3)
        auditor.record_period("v1", CONTRACT, bad, CONTRACT.violations(bad))
        auditor.record_period("v1", CONTRACT, _measurement(), [])  # idle
        conn = auditor.snapshot()["connections"][0]
        assert conn["conformance"] == pytest.approx(2 / 3)

    def test_renegotiations_and_release_roll_into_summary(self):
        auditor = self._auditor()
        auditor.register_connection("v1", CONTRACT)
        auditor.record_renegotiation("v1", "confirmed", from_bps=1e6,
                                     to_bps=5e5)
        auditor.record_renegotiation("v1", "failed", reason="peer-reject")
        auditor.record_release("v1", "qos-outage", initiator="provider")
        summary = auditor.snapshot()["summary"]
        assert summary["renegotiations"] == {"confirmed": 1, "failed": 1}
        assert summary["releases"] == {"qos-outage": 1}

    def test_unregistered_vc_gets_a_bare_record(self):
        auditor = self._auditor()
        auditor.record_period("v9", CONTRACT, _met(), [])
        conn = auditor.snapshot()["connections"][0]
        assert conn["vc"] == "v9"
        assert conn["counts"]["met"] == 1


class _Clock:
    """A clock the test sets by hand."""

    t = 0.0

    def __call__(self):
        return self.t


def _record_starved_period(tracer, clock):
    """The causal chain of a period starved by a link outage, recorded
    the way the instrumentation does: the outage span closes last."""
    clock.t = 2.1
    tracer.instant("tpdu.tx", track="vc:v1", cat="causal",
                   args={"packet_id": 7, "vc": "v1", "seq": 3,
                         "kind": "data"})
    clock.t = 2.15
    tracer.instant("drop:down", track="link:r->b",
                   args={"packet_id": 7, "link": "r->b", "flow": "v1"})
    clock.t = 2.5
    tracer.complete("fault:outage:r->b", 2.0, 2.5, track="link:r->b",
                    cat="fault", args={"link": "r->b"})


class TestDrilldown:
    def _sim_with_ring(self):
        sim = Simulator()
        auditor = install_audit(sim, max_drilldowns=2)
        return sim, auditor

    def test_violated_period_drills_to_lost_packets_and_faults(self):
        self._assert_drilldown(FlightRecorder)

    def test_append_only_tracer_drills_down_the_same(self):
        self._assert_drilldown(
            lambda clock: Tracer(clock, TraceLevel.PACKET))

    def _assert_drilldown(self, make_tracer):
        sim = Simulator()
        clock = _Clock()
        sim.trace = make_tracer(clock)
        auditor = install_audit(sim, max_drilldowns=2)
        assert auditor._tracer is sim.trace  # an enabled tracer is reused
        _record_starved_period(sim.trace, clock)
        measurement = _measurement(t0=2.0, t1=3.0, osdus_delivered=0,
                                   throughput_bps=0.0)
        violations = CONTRACT.violations(measurement)
        auditor.record_period("v1", CONTRACT, measurement, violations)
        conn = auditor.snapshot()["connections"][0]
        drill = conn["drilldowns"][0]
        assert drill["sent"] == 1
        assert drill["lost"][0]["packet_id"] == 7
        assert drill["lost"][0]["cause"] == "link-down"
        assert drill["lost"][0]["where"] == "r->b"
        assert any(
            f["name"] == "fault:outage:r->b" for f in drill["faults"]
        )
        assert drill["violations"][0]["parameter"] == "throughput"

    @staticmethod
    def _count_ingested(monkeypatch):
        """Sizes of every batch of records any index is fed from here on."""
        batches = []
        extend_records = ChainIndex.extend_records

        def counting(index, records):
            records = list(records)
            batches.append(len(records))
            extend_records(index, records)

        monkeypatch.setattr(ChainIndex, "extend_records", counting)
        return batches

    def _violate(self, auditor, vc, t0):
        bad = _measurement(t0=t0, t1=t0 + 1.0, osdus_delivered=0,
                           throughput_bps=0.0)
        auditor.record_period(vc, CONTRACT, bad, CONTRACT.violations(bad))

    def test_growing_tracer_is_indexed_once_not_once_per_drilldown(
            self, monkeypatch):
        sim = Simulator()
        clock = _Clock()
        tracer = sim.trace = Tracer(clock, TraceLevel.PACKET)
        auditor = install_audit(sim, max_drilldowns=100)
        batches = self._count_ingested(monkeypatch)
        drilldowns = 12
        for k in range(drilldowns):
            for n in range(50):
                clock.t = k + n / 50
                tracer.instant("tpdu.tx", track="vc:v1", cat="causal",
                               args={"packet_id": 50 * k + n, "vc": "v1",
                                     "seq": 50 * k + n, "kind": "data"})
            self._violate(auditor, "v1", float(k))
        assert len(batches) == drilldowns
        assert sum(batches) == len(tracer) == 50 * drilldowns
        conn = auditor.snapshot()["connections"][0]
        # Every period still sees exactly its own sends (t1 inclusive:
        # none was sent at a whole second but the period's first).
        assert [d["sent"] for d in conn["drilldowns"]] == [50] * drilldowns
        # Nothing recorded in between: the next drill-down ingests nothing.
        self._violate(auditor, "v1", 0.0)
        assert batches[-1] == 0

    def test_drilldown_materialises_only_records_filed_since_its_cursor(
            self, monkeypatch):
        sim = Simulator()
        clock = _Clock()
        tracer = sim.trace = Tracer(clock, TraceLevel.PACKET)
        auditor = install_audit(sim, max_drilldowns=100)
        built = []
        assemble = trace_module.assemble

        def counting(head, ts, dur, values):
            built.append(head[0])
            return assemble(head, ts, dur, values)

        monkeypatch.setattr(trace_module, "assemble", counting)

        def send(first, count):
            for n in range(first, first + count):
                clock.t = n / 100
                tracer.instant("tpdu.tx", track="vc:v1", cat="causal",
                               args={"packet_id": n, "vc": "v1", "seq": n,
                                     "kind": "data"})
                tracer.instant("spawn", track="sim")

        send(0, 40)
        self._violate(auditor, "v1", 0.0)
        assert len(built) == 80
        send(40, 3)
        built.clear()
        self._violate(auditor, "v1", 0.0)
        assert built == ["tpdu.tx", "spawn"] * 3
        built.clear()
        self._violate(auditor, "v1", 0.0)
        assert built == []

    def test_index_forgets_packets_once_no_connection_can_drill_down(
            self, monkeypatch):
        """The index keeps its packet chains while any connection may
        still drill down; one registered after the drop drills down
        exactly as from an index that never dropped anything, and
        nothing filed before the drop is read again."""
        sim = Simulator()
        clock = _Clock()
        tracer = sim.trace = Tracer(clock, TraceLevel.PACKET)
        auditor = install_audit(sim, max_drilldowns=1)
        batches = self._count_ingested(monkeypatch)

        def send(vc, first, t0):
            for n in range(first, first + 20):
                clock.t = t0 + (n - first) / 20
                tracer.instant("tpdu.tx", track=f"vc:{vc}", cat="causal",
                               args={"packet_id": n, "vc": vc, "seq": n,
                                     "kind": "data"})
                if n % 3:
                    tracer.instant("rx:tpdu", track="host",
                                   args={"src": "a", "flow": vc,
                                         "packet_id": n})
                else:
                    tracer.instant("drop:down", track="link:r->b",
                                   args={"packet_id": n, "link": "r->b",
                                         "flow": vc})

        fed = []

        def drilldown(vc, t0):
            self._violate(auditor, vc, t0)
            fed.append(batches[-1])
            never_dropped = ChainIndex()
            never_dropped.extend_records(tracer.records())
            drill = auditor._connection(vc).drilldowns[-1]
            assert drill.pop("violations")
            assert drill == never_dropped.explain_period(vc, t0, t0 + 1.0)
            return drill

        auditor.register_connection("v0", CONTRACT)
        auditor.register_connection("v1", CONTRACT)
        send("v0", 0, 0.0)
        send("v1", 50, 0.0)
        tracer.complete("fault:outage:r->b", 0.5, 1.5, track="link:r->b",
                        cat="fault", args={"link": "r->b"})
        drilldown("v1", 0.0)
        chain = auditor._chain
        assert chain._by_packet  # v0 may still drill down
        assert drilldown("v0", 0.0)["sent"] == 20
        assert not chain._by_packet and not chain._tx_by_vc
        assert [r[0] for r in chain._faults] == ["fault:outage:r->b"]

        clock.t = 1.9
        auditor.register_connection("v2", CONTRACT)
        send("v2", 100, 2.0)
        drill = drilldown("v2", 2.0)
        assert fed == [81, 0, 40]
        # The fault before the drop lies inside the period's look-back.
        assert [f["name"] for f in drill["faults"]] == ["fault:outage:r->b"]
        assert drill["sent"] == 20 and len(drill["lost"]) == 6

    def test_ring_drilldown_sees_only_the_ring(self, monkeypatch):
        sim = Simulator()
        clock = _Clock()
        ring = sim.trace = FlightRecorder(clock, capacity=8)
        auditor = install_audit(sim, max_drilldowns=100)
        batches = self._count_ingested(monkeypatch)
        for n in range(20):
            clock.t = n / 20
            ring.instant("tpdu.tx", track="vc:v1", cat="causal",
                         args={"packet_id": n, "vc": "v1", "seq": n,
                               "kind": "data"})
        self._violate(auditor, "v1", 0.0)
        self._violate(auditor, "v1", 0.0)
        # Rebuilt from the ring both times (an index starts out empty).
        assert [size for size in batches if size] == [8, 8]
        drills = auditor.snapshot()["connections"][0]["drilldowns"]
        assert [d["sent"] for d in drills] == [8, 8]  # 12 fell off

    def test_drilldowns_are_bounded(self):
        sim, auditor = self._sim_with_ring()
        bad = _measurement(osdus_delivered=0, throughput_bps=0.0)
        violations = CONTRACT.violations(bad)
        for _ in range(5):
            auditor.record_period("v1", CONTRACT, bad, violations)
        conn = auditor.snapshot()["connections"][0]
        assert len(conn["drilldowns"]) == 2
        assert conn["drilldowns_suppressed"] == 3


class TestGroups:
    def test_skew_conformance_against_bound(self):
        auditor = QoSAuditor(Simulator())
        auditor.register_group("orch-1", bound=0.08, streams=["v1", "v2"],
                               interval_length=0.2)
        for skew in (0.01, 0.05, 0.2):
            auditor.record_skew("orch-1", skew)
        auditor.record_group_outage("orch-1", "v1")
        auditor.record_group_recovery("orch-1", "v1")
        auditor.record_regulation_drop("orch-1", "v1", count=3)
        group = auditor.snapshot()["groups"][0]
        assert group["bound"] == 0.08
        assert group["intervals"] == 3
        assert group["over_bound"] == 1
        assert len(group["outages"]) == len(group["recoveries"]) == 1
        assert group["regulation_drops"] == {"v1": 3}


class TestMergeSnapshots:
    def _snapshot_with(self, counts_met, counts_violated):
        auditor = QoSAuditor(Simulator())
        for _ in range(counts_met):
            auditor.record_period("v1", CONTRACT, _met(), [])
        bad = _measurement(osdus_delivered=0, throughput_bps=0.0)
        for _ in range(counts_violated):
            auditor.record_period(
                "v1", CONTRACT, bad, CONTRACT.violations(bad)
            )
        return auditor.snapshot()

    def test_counts_and_histograms_add(self):
        merged = merge_snapshots(
            [self._snapshot_with(2, 1), self._snapshot_with(3, 0)]
        )
        assert merged["summary"]["connections"] == 2
        assert merged["summary"]["counts"]["met"] == 5
        assert merged["summary"]["counts"]["violated"] == 1
        # Both inputs recorded one delay sample per met/violated period
        # with a mean_delay_s; only met periods here carry delays.
        assert merged["histograms"]["delay_s"]["count"] == 5

    def test_merge_of_nothing_is_empty(self):
        merged = merge_snapshots([])
        assert merged["summary"]["connections"] == 0
        assert merged["connections"] == []


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


class TestAuditIsFree:
    def test_disabled_audit_is_the_default(self):
        stack = _one_vc_stack()
        assert stack.sim.auditor is None

    def test_enabled_audit_schedules_no_extra_events(self):
        """The auditor only appends to in-memory structures inside
        calls the layers were already making: an audited run must be
        event-for-event identical to an unaudited one."""
        baseline = _one_vc_stack()
        _open_vc(baseline)
        baseline.run(2.0)

        audited = _one_vc_stack()
        auditor = audited.enable_audit()
        _open_vc(audited)
        audited.run(2.0)

        # The auditor saw the connection and filed verdicts...
        snap = auditor.snapshot()
        assert snap["summary"]["connections"] >= 1
        assert snap["summary"]["periods"] >= 1
        # ...without perturbing the simulation.
        assert _scheduled_events(baseline) == _scheduled_events(audited)
        assert baseline.sim.now == audited.sim.now

    def test_install_is_idempotent_and_reuses_live_tracer(self):
        stack = _one_vc_stack()
        tracer = stack.enable_tracing(TraceLevel.PACKET)
        auditor = install_audit(stack.sim)
        assert stack.sim.trace is tracer  # not replaced by a ring
        assert install_audit(stack.sim) is auditor

    def test_install_provides_flight_recorder_when_untraced(self):
        stack = _one_vc_stack()
        stack.enable_audit(flight_capacity=128)
        assert isinstance(stack.sim.trace, FlightRecorder)
        assert stack.sim.trace.capacity == 128


class TestRuntimeExport:
    def test_export_audit_round_trip(self, tmp_path):
        stack = _one_vc_stack()
        stack.enable_audit()
        _open_vc(stack)
        path = stack.export_audit(str(tmp_path / "audit.json"))
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["kind"] == "repro-audit"
        assert doc["summary"]["connections"] >= 1

    def test_export_without_audit_raises(self):
        stack = _one_vc_stack()
        with pytest.raises(RuntimeError):
            stack.export_audit("/tmp/never.json")


class TestStreamedAuditExport:
    def test_export_byte_identical_to_buffered_dump(self, tmp_path):
        stack = _one_vc_stack()
        auditor = stack.enable_audit()
        _open_vc(stack)
        auditor.register_group("orch-1", bound=0.08, streams=["v1"],
                               interval_length=0.2)
        auditor.record_skew("orch-1", 0.01)
        auditor.attach_section("controlplane", lambda: {"converged": True})
        path = stack.export_audit(str(tmp_path / "audit.json"))
        expected = json.dumps(auditor.snapshot(), indent=2)
        assert open(path).read() == expected

    def test_export_byte_identical_when_empty(self, tmp_path):
        sim = Simulator()
        auditor = QoSAuditor(sim)
        path = auditor.export(str(tmp_path / "empty.json"))
        expected = json.dumps(auditor.snapshot(), indent=2)
        assert open(path).read() == expected

    def test_iter_json_chunks_concatenate_to_the_document(self):
        stack = _one_vc_stack()
        auditor = stack.enable_audit()
        _open_vc(stack)
        text = "".join(auditor.iter_json())
        assert json.loads(text) == auditor.snapshot()
