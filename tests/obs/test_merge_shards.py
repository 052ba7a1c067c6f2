"""The sharded-run merge pipeline: traces, metrics, audits, reports.

A sharded soak folds one worker's telemetry per shard; these tests pin
the merge semantics each layer promises -- trace pid re-namespacing,
additive metrics, audit identity rules (disjoint ids pass through with
provenance) -- and that a >2-shard merged audit renders one coherent
report through ``repro.obs.report``.
"""

import json

import pytest

from repro.obs.audit import QoSAuditor, merge_snapshots
from repro.obs.registry import MetricsRegistry
from repro.obs.registry import merge_snapshots as merge_metrics
from repro.obs.report import render_run
from repro.obs.trace import TraceLevel, Tracer, merge_traces
from repro.sim.scheduler import Simulator
from repro.transport.qos import QoSContract, QoSMeasurement


def _trace(label_count):
    clock = [0.0]
    tracer = Tracer(lambda: clock[0], level=TraceLevel.PACKET)
    for i in range(label_count):
        clock[0] = 0.1 * (i + 1)
        tracer.instant(f"evt{i}", track="link:a->b")
        tracer.instant(f"evt{i}", track="node:ws")
    return tracer


class TestMergeTraces:
    def test_labels_namespace_colliding_tracks(self):
        merged = merge_traces(
            [_trace(2).to_dict(), _trace(3).to_dict()],
            labels=["s0", "s1"],
        )
        events = merged["traceEvents"]
        tracks = {
            e["args"]["name"]
            for e in events if e.get("ph") == "M"
        }
        assert tracks == {
            "s0/link:a->b", "s0/node:ws", "s1/link:a->b", "s1/node:ws",
        }
        payload = [e for e in events if e.get("ph") != "M"]
        assert len(payload) == 10
        # Every payload event maps to a declared pid.
        pids = {
            e["pid"] for e in events if e.get("ph") == "M"
        }
        assert {e["pid"] for e in payload} <= pids

    def test_unlabelled_merge_joins_same_named_tracks(self):
        merged = merge_traces([_trace(1).to_dict(), _trace(1).to_dict()])
        metadata = [
            e for e in merged["traceEvents"] if e.get("ph") == "M"
        ]
        assert len(metadata) == 2  # one lane per unique track name

    def test_label_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="labels"):
            merge_traces([_trace(1).to_dict()], labels=["a", "b"])


class TestMergeMetrics:
    def test_counters_gauges_windows_series_combine(self):
        regs = []
        for k in range(3):
            clock = [float(k + 1)]
            reg = MetricsRegistry(lambda c=clock: c[0])
            reg.counter("pkts").inc(10 * (k + 1))
            reg.gauge("depth").set(k)
            reg.window("delay").add(0.01 * (k + 1))
            reg.series("jit").add(0.001)
            regs.append(reg.snapshot())
        merged = merge_metrics(regs)
        assert merged["counters"]["pkts"] == 60
        assert merged["gauges"]["depth"] == 3
        win = merged["windows"]["delay"]
        assert win["count"] == 3
        assert win["total"] == pytest.approx(0.06)
        assert win["min"] == pytest.approx(0.01)
        assert win["max"] == pytest.approx(0.03)
        assert merged["series"]["jit"] == 3
        assert merged["now"] == 3.0


def _audit_snapshot(vc_ids, violated=False, section=None):
    sim = Simulator()
    auditor = QoSAuditor(sim, tracer=None)
    contract = QoSContract(
        throughput_bps=1e5, delay_s=0.01, jitter_s=0.005,
        packet_error_rate=0.01, bit_error_rate=1e-6,
        max_osdu_bytes=2000,
    )
    for vc in vc_ids:
        auditor.register_connection(vc, contract, src="a", dst="b")
        measurement = QoSMeasurement(
            period_start=0.0, period_end=1.0, osdus_delivered=10,
            throughput_bps=2e5,
            mean_delay_s=0.5 if violated else 0.005,
            jitter_s=0.001,
        )
        violations = contract.violations(measurement)
        auditor.record_period(vc, contract, measurement, violations)
    if section is not None:
        auditor.attach_section("controlplane", lambda s=section: s)
    return auditor.snapshot()


def _cp_section(stream):
    return {
        "converged": True,
        "leases": {"granted_total": 1, "violations": []},
        "events": {"published": 2, "delivered": 2},
        "paths": [{
            "stream_id": stream,
            "desired": {"running": True, "run_id": "r1"},
            "actual": {"running": True, "run_id": "r1",
                       "session_id": "sess"},
            "converged": True,
            "starts": 1, "stops": 0, "outages": 0, "recoveries": 0,
            "failures": 0, "last_error": None,
        }],
    }


class TestMergeAudits:
    def test_disjoint_ids_pass_through_with_provenance(self):
        snaps = [
            _audit_snapshot([f"s{k}.vc0", f"s{k}.vc1"]) for k in range(3)
        ]
        merged = merge_snapshots(snaps, labels=["s0", "s1", "s2"])
        vcs = [c["vc"] for c in merged["connections"]]
        assert vcs == [
            "s0.vc0", "s0.vc1", "s1.vc0", "s1.vc1", "s2.vc0", "s2.vc1",
        ]
        assert merged["merged_from"] == {
            "snapshots": 3, "labels": ["s0", "s1", "s2"],
            "namespaced": False,
        }
        assert merged["summary"]["connections"] == 6

    def test_label_count_must_match_snapshots(self):
        with pytest.raises(ValueError, match="labels"):
            merge_snapshots([_audit_snapshot(["a"])], labels=["x", "y"])


class TestMergedReportRendering:
    def _render(self, tmp_path, merged, **kwargs):
        path = tmp_path / "audit.json"
        path.write_text(json.dumps(merged))
        return render_run(str(path), **kwargs)

    def test_three_shard_report_renders_every_section(self, tmp_path):
        snaps = [
            _audit_snapshot(
                [f"s{k}.vc{i}" for i in range(3)],
                violated=(k == 1),
                section=_cp_section(f"s{k}/live"),
            )
            for k in range(3)
        ]
        merged = merge_snapshots(snaps, labels=["s0", "s1", "s2"])
        text = self._render(tmp_path, merged)
        assert "Merged from 3 snapshot(s): s0, s1, s2" in text
        # One control-plane block per shard, headed by its label.
        for label in ("s0", "s1", "s2"):
            assert f"Control plane [{label}]:" in text
            assert f"{label}/live" in text
        # Every shard's VCs are present with their own ids.
        for k in range(3):
            assert f"s{k}.vc0" in text
        # Shard 1's violations survive the merge into the fleet counts.
        assert "violated 3" in text

    def test_fleet_report_caps_rows_and_says_so(self, tmp_path):
        snaps = [
            _audit_snapshot([f"s{k}.vc{i}" for i in range(40)])
            for k in range(3)
        ]
        merged = merge_snapshots(snaps, labels=["s0", "s1", "s2"])
        text = self._render(tmp_path, merged, max_rows=25)
        assert "and 95 more connection(s) not shown" in text
        assert "audit of 120 connection(s)" in text
        # Unlimited mode still renders them all.
        full = self._render(tmp_path, merged, max_rows=None)
        assert "not shown" not in full

    def test_worst_connections_rank_first_when_capped(self, tmp_path):
        good = _audit_snapshot([f"g{i}" for i in range(30)])
        bad = _audit_snapshot(["bad0", "bad1"], violated=True)
        merged = merge_snapshots([good, bad], labels=["good", "bad"])
        text = self._render(tmp_path, merged, max_rows=2)
        assert "bad0" in text and "bad1" in text
        assert "g0" not in text
