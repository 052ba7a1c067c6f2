"""Tests for streaming telemetry deltas: encoder, folder, live sink.

The load-bearing property: for *any* interleaving of audit/registry
activity and barrier points, folding the encoder's per-barrier deltas
reconstructs the same documents a finish-time snapshot merge builds --
byte for byte.  ``tests/integration/test_stream_fleet.py`` pins the
same property over real sharded fleets; here hypothesis drives the
primitives directly so the state machine is exercised far off the
fleet's happy path (re-registration, idle barriers, interleaved group
churn, windows that roll between barriers...).
"""

import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.audit import QoSAuditor, merge_snapshots
from repro.obs.registry import MetricsRegistry
from repro.obs.registry import merge_snapshots as merge_metrics
from repro.obs.stream import (
    DeltaEncoder,
    DeltaFolder,
    LiveWriter,
    open_live_sink,
)
from repro.transport.qos import QoSContract, QoSMeasurement

CONTRACT = QoSContract(
    throughput_bps=1e6, delay_s=0.1, jitter_s=0.01,
    packet_error_rate=0.01, bit_error_rate=1e-6, max_osdu_bytes=1000,
)


class FakeSim:
    """The slice of a simulator the auditor reads: a clock."""

    def __init__(self):
        self.now = 0.0


def _met(t0, t1):
    return QoSMeasurement(
        period_start=t0, period_end=t1, osdus_delivered=100,
        throughput_bps=1e6, mean_delay_s=0.05, jitter_s=0.001,
        packet_error_rate=0.0, bit_error_rate=0.0,
    )


def _bad(t0, t1):
    return QoSMeasurement(
        period_start=t0, period_end=t1, osdus_delivered=100,
        throughput_bps=1e6, mean_delay_s=0.5, jitter_s=0.001,
        packet_error_rate=0.0, bit_error_rate=0.0,
    )


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2)


# One scripted operation: (op kind, entity index, scalar argument).
_OP = st.tuples(
    st.integers(min_value=0, max_value=13),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
              width=32),
)


def _apply(op, sim, auditor, registry):
    kind, idx, value = op
    vc = f"v{idx}"
    group = f"g{idx % 2}"
    if kind == 0:
        auditor.register_connection(vc, CONTRACT, src=f"h{idx}", dst="h9")
    elif kind == 1:
        measurement = _met(sim.now, sim.now + 0.5)
        auditor.record_period(vc, CONTRACT, measurement, [])
    elif kind == 2:
        measurement = _bad(sim.now, sim.now + 0.5)
        auditor.record_period(
            vc, CONTRACT, measurement, CONTRACT.violations(measurement),
        )
    elif kind == 3:
        auditor.record_renegotiation(
            vc, "confirmed", from_bps=1e6, to_bps=5e5,
        )
    elif kind == 4:
        auditor.record_release(vc, "app-request")
    elif kind == 5:
        auditor.register_group(group, bound=0.08, streams=["v0", "v1"],
                               interval_length=0.1)
    elif kind == 6:
        auditor.record_skew(group, value)
    elif kind == 7:
        auditor.record_group_outage(group, vc)
    elif kind == 8:
        auditor.record_group_recovery(group, vc)
    elif kind == 9:
        auditor.record_regulation_drop(group, vc)
    elif kind == 10:
        registry.counter(f"c.{idx}").inc()
    elif kind == 11:
        registry.gauge(f"g.{idx}").set(value)
    elif kind == 12:
        registry.window(f"w.{idx}").add(value)
    elif kind == 13:
        registry.window(f"w.{idx}").roll()
    sim.now += 0.25


class TestDeltaRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        script=st.lists(_OP, max_size=60),
        barriers=st.sets(st.integers(min_value=0, max_value=59)),
    )
    # The final-delta-only cadence (a sharded run without ``stream``):
    # one encoder call ships the whole run.
    @example(script=[], barriers=set())
    @example(script=[(k, k % 4, 0.5) for k in range(14)], barriers=set())
    @example(
        script=[(k % 14, k % 3, k / 40) for k in range(40)], barriers=set(),
    )
    def test_folded_deltas_equal_snapshot_merge(self, script, barriers):
        sim = FakeSim()
        auditor = QoSAuditor(sim)
        registry = MetricsRegistry(clock=lambda: sim.now)
        encoder = DeltaEncoder(auditor=auditor, registry=registry)
        folder = DeltaFolder(1)
        for step, op in enumerate(script):
            _apply(op, sim, auditor, registry)
            if step in barriers:
                folder.fold(0, encoder.delta())
        folder.fold(0, encoder.delta(final=True))
        assert _dumps(folder.result_audit()) == _dumps(auditor.snapshot())
        assert (_dumps(folder.result_metrics())
                == _dumps(merge_metrics([registry.snapshot()])))

    def test_two_shard_fold_matches_labelled_merge(self):
        sims = [FakeSim(), FakeSim()]
        auditors = [QoSAuditor(sim) for sim in sims]
        encoders = [DeltaEncoder(auditor=a) for a in auditors]
        folder = DeltaFolder(2, labels=["s0", "s1"])
        for shard, auditor in enumerate(auditors):
            vc = f"s{shard}:v0"
            auditor.register_connection(vc, CONTRACT)
            auditor.record_period(vc, CONTRACT, _met(0.0, 0.5), [])
            sims[shard].now = 0.5
            folder.fold(shard, encoders[shard].delta())
            auditor.record_period(vc, CONTRACT, _met(0.5, 1.0), [])
            sims[shard].now = 1.0
        for shard, encoder in enumerate(encoders):
            folder.fold(shard, encoder.delta(final=True))
        merged = merge_snapshots(
            [a.snapshot() for a in auditors], labels=["s0", "s1"],
        )
        assert _dumps(folder.result_audit()) == _dumps(merged)

    @pytest.mark.parametrize("per_barrier", [True, False],
                             ids=["streamed", "final-only"])
    def test_two_shard_fold_with_sections_matches_labelled_merge(
        self, per_barrier,
    ):
        sims = [FakeSim(), FakeSim()]
        auditors = [QoSAuditor(sim) for sim in sims]
        registries = [
            MetricsRegistry(clock=lambda sim=sim: sim.now) for sim in sims
        ]
        encoders = [
            DeltaEncoder(auditor=a, registry=r)
            for a, r in zip(auditors, registries)
        ]
        folder = DeltaFolder(2, labels=["s0", "s1"])
        for shard, auditor in enumerate(auditors):
            auditor.attach_section(
                "controlplane", lambda k=shard: {"shard": k, "ok": True},
            )
            auditor.attach_section("extra", lambda k=shard: [k])
            vc = f"s{shard}:v0"
            auditor.register_connection(vc, CONTRACT)
            auditor.record_period(vc, CONTRACT, _met(0.0, 0.5), [])
            registries[shard].counter("osdus").inc(shard + 1)
            sims[shard].now = 0.5
            if per_barrier:
                folder.fold(shard, encoders[shard].delta())
            bad = _bad(0.5, 1.0)
            auditor.record_period(
                vc, CONTRACT, bad, CONTRACT.violations(bad),
            )
            sims[shard].now = 1.0
        for shard, encoder in enumerate(encoders):
            folder.fold(shard, encoder.delta(final=True))
        merged = merge_snapshots(
            [a.snapshot() for a in auditors], labels=["s0", "s1"],
        )
        assert merged["sections"] == {
            "controlplane": [{"shard": 0, "ok": True},
                             {"shard": 1, "ok": True}],
            "extra": [[0], [1]],
        }
        assert _dumps(folder.result_audit()) == _dumps(merged)
        assert _dumps(folder.result_metrics()) == _dumps(
            merge_metrics([r.snapshot() for r in registries])
        )

    def test_none_delta_between_barriers_and_final_never_none(self):
        sim = FakeSim()
        auditor = QoSAuditor(sim)
        encoder = DeltaEncoder(auditor=auditor)
        assert encoder.delta() is None  # nothing happened yet
        auditor.register_connection("v0", CONTRACT)
        assert encoder.delta() is not None
        assert encoder.delta() is None  # drained; still idle
        assert encoder.delta(final=True) is not None

    def test_timeline_cap_matches_capped_auditor(self):
        sim = FakeSim()
        auditor = QoSAuditor(sim, max_timeline=3)
        encoder = DeltaEncoder(auditor=auditor)
        folder = DeltaFolder(1, max_timeline=3)
        for k in range(8):
            auditor.record_period(
                "v0", CONTRACT, _met(k * 0.5, k * 0.5 + 0.5), [],
            )
            sim.now += 0.5
            folder.fold(0, encoder.delta())
        folder.fold(0, encoder.delta(final=True))
        timeline = folder.result_audit()["connections"][0]["timeline"]
        assert len(timeline) == 3
        snapshot = auditor.snapshot()["connections"][0]["timeline"]
        assert timeline == snapshot

    def test_requires_a_source(self):
        with pytest.raises(ValueError):
            DeltaEncoder()


class _World:
    """One auditor + registry driven by a script, folded at one cadence."""

    def __init__(self, period=None):
        self.sim = FakeSim()
        self.auditor = QoSAuditor(self.sim)
        self.registry = MetricsRegistry(clock=lambda: self.sim.now)
        self.encoder = DeltaEncoder(
            auditor=self.auditor, registry=self.registry, period=period,
        )
        self.folder = DeltaFolder(1)

    def documents(self):
        self.folder.fold(0, self.encoder.delta(final=True))
        return (_dumps(self.folder.result_audit()),
                _dumps(self.folder.result_metrics()))


class TestPeriodCadence:
    """An encoder with a period ships once per period multiple."""

    def test_none_before_the_first_multiple(self):
        world = _World(period=1.0)
        world.auditor.register_connection("v0", CONTRACT)
        for now in (0.0, 0.25, 0.5, 0.999):
            world.sim.now = now
            world.auditor.record_period(
                "v0", CONTRACT, _met(now, now + 0.25), [],
            )
            assert world.encoder.delta() is None

    def test_ships_at_the_first_barrier_at_or_after_each_multiple(self):
        world = _World(period=1.0)
        shipped = []
        for now in (0.4, 1.0, 1.5, 1.9, 2.3, 2.7, 5.2, 5.9, 6.0):
            world.sim.now = now
            world.registry.counter("c").inc()
            if world.encoder.delta() is not None:
                shipped.append(now)
        # 1.0 is a multiple itself; 2.3 is the first barrier past 2.0;
        # 5.2 crosses 3.0, 4.0 and 5.0 at once; 6.0 is the next multiple.
        assert shipped == [1.0, 2.3, 5.2, 6.0]

    def test_final_always_ships(self):
        world = _World(period=10.0)
        assert world.encoder.delta() is None
        final = world.encoder.delta(final=True)
        assert final is not None and final["final"]
        world.sim.now = 0.5
        world.auditor.register_connection("v0", CONTRACT)
        assert world.encoder.delta() is None
        assert world.encoder.delta(final=True)["audit"]["connections"]

    @settings(max_examples=60, deadline=None)
    @given(
        script=st.lists(_OP, max_size=60),
        barriers=st.dictionaries(
            st.integers(min_value=0, max_value=59),
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        ),
        period=st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
    )
    def test_every_cadence_folds_to_the_same_documents(
        self, script, barriers, period,
    ):
        # ``barriers`` maps a script step to extra clock advance before
        # that step's barrier, so barrier times fall off the op grid.
        worlds = [_World(), _World(period=period), _World()]
        per_barrier, per_period, final_only = worlds
        for step, op in enumerate(script):
            gap = barriers.get(step)
            for world in worlds:
                _apply(op, world.sim, world.auditor, world.registry)
                if gap is not None:
                    world.sim.now += gap
            if gap is not None:
                per_barrier.folder.fold(0, per_barrier.encoder.delta())
                per_period.folder.fold(0, per_period.encoder.delta())
        expected = final_only.documents()
        assert per_barrier.documents() == expected
        assert per_period.documents() == expected


class TestRollingSummary:
    def test_rolls_counts_and_first_breach(self):
        sim = FakeSim()
        auditor = QoSAuditor(sim)
        encoder = DeltaEncoder(auditor=auditor)
        folder = DeltaFolder(1)
        auditor.record_period("v0", CONTRACT, _met(0.0, 0.5), [])
        sim.now = 0.5
        folder.fold(0, encoder.delta())
        rolling = folder.rolling()
        assert rolling["counts"]["met"] == 1
        assert rolling["conformance"] == 1.0
        assert rolling["first_breach_at"] is None
        bad = _bad(0.5, 1.0)
        auditor.record_period("v0", CONTRACT, bad, CONTRACT.violations(bad))
        sim.now = 1.0
        folder.fold(0, encoder.delta())
        rolling = folder.rolling()
        assert rolling["counts"]["violated"] == 1
        assert rolling["conformance"] == 0.5
        # The auditor stamps the first violation at the period's end.
        assert rolling["first_breach_at"] == pytest.approx(1.0)


class TestLiveSink:
    def test_writer_emits_one_json_line_per_record(self):
        sink = io.StringIO()
        writer = LiveWriter(sink)
        writer.write({"kind": "window", "t": 1.0})
        writer.write({"kind": "final", "t": 2.0})
        lines = sink.getvalue().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == [
            "window", "final",
        ]

    def test_open_live_sink_path_and_fd(self, tmp_path):
        path = str(tmp_path / "live.jsonl")
        sink, should_close = open_live_sink(path)
        assert should_close
        sink.write("x\n")
        sink.close()
        assert open(path).read() == "x\n"
        sink, should_close = open_live_sink("-")
        assert not should_close  # caller must not close stdout
