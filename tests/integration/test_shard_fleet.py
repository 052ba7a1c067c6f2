"""The sharding determinism contract, end to end over real fleets.

Two guarantees anchor ``docs/SCALING.md`` and these tests pin both:

- **1-shard bit-identity**: a sharded run with one worker process
  produces the inline (unsharded) baseline's audit, metrics and
  control-plane results byte for byte -- the audit once the merge's
  provenance and per-source section lists are stripped -- because with
  no cuts the whole run is a single synchronization window and
  ``reset_process_state`` makes every process-global id counter start
  where a fresh worker's does.

- **N-shard conformance equality**: splitting the fleet across worker
  processes -- including cross-shard ring traffic serialized over cut
  links -- changes *where* verdicts are filed but not what they say:
  the merged audit's per-VC timelines and fleet conformance equal the
  inline baseline's.

Spawned worker processes make these the slowest tests in the tier-1
suite; specs are kept small (they prove identity, not throughput).
"""

import json

import pytest

from repro.obs.report import render_run
from repro.soak import FleetSpec, run_fleet

#: Small but complete: three cells don't divide evenly across two
#: shards, the ring wraps across a shard boundary in both directions,
#: and one control-plane pair lands on each shard.
SPEC = FleetSpec(
    cells=3, vcs_per_cell=5, shards=2, cp_pairs=2,
    duration=8.0, seed=3, cross_traffic=True, tight_every=7,
)


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True)


class TestOneShardBitIdentity:
    def test_one_worker_documents_equal_inline(self):
        spec = FleetSpec(
            cells=3, vcs_per_cell=5, shards=1, cp_pairs=2,
            duration=8.0, seed=3, cross_traffic=True, tight_every=7,
        )
        sharded = run_fleet(spec)
        inline = run_fleet(spec, inline=True)
        assert sharded.windows == 1  # no cuts -> one window
        assert sharded.messages == 0
        audit = dict(sharded.audit)
        assert audit.pop("merged_from") == {
            "snapshots": 1, "labels": ["s0"], "namespaced": False,
        }
        # One source, so every per-source section list has one value.
        audit["sections"] = {
            name: value for name, (value,) in audit["sections"].items()
        }
        assert json.dumps(audit) == json.dumps(inline.audit)
        assert json.dumps(sharded.metrics) == json.dumps(inline.metrics)
        worker, baseline = sharded.payloads[0], inline.payloads[0]
        assert worker["counts"] == baseline["counts"]
        assert worker["controlplane"] == baseline["controlplane"]


class TestShardedConformanceEquality:
    def test_merged_fleet_equals_inline_baseline(self):
        sharded = run_fleet(SPEC)
        inline = run_fleet(SPEC, inline=True)

        # The protocol really ran: multiple windows, packets crossed.
        assert sharded.windows > 10
        assert sharded.messages > 0
        assert sharded.lookahead == SPEC.ring_prop_delay

        # Same fleet totals, same per-VC verdict timelines.
        merged, baseline = sharded.audit, inline.audit
        assert merged["summary"] == baseline["summary"]
        by_vc = lambda conns: {c["vc"]: c for c in conns}  # noqa: E731
        merged_vcs = by_vc(merged["connections"])
        baseline_vcs = by_vc(baseline["connections"])
        assert merged_vcs.keys() == baseline_vcs.keys()
        for vc, conn in baseline_vcs.items():
            assert merged_vcs[vc]["counts"] == conn["counts"], vc
            assert _canon(merged_vcs[vc]["timeline"]) == \
                _canon(conn["timeline"]), vc

        # Histograms fold additively back to the baseline's: identical
        # bucket counts and extrema; the float `total` is summed in
        # shard order instead of event order, so only to within ulps.
        for name, hist in baseline["histograms"].items():
            folded = merged["histograms"][name]
            assert folded["nonzero"] == hist["nonzero"], name
            assert folded["count"] == hist["count"], name
            assert folded["min"] == hist["min"], name
            assert folded["max"] == hist["max"], name
            assert folded["total"] == pytest.approx(hist["total"]), name

        # Delivery accounting agrees fleet-wide.
        assert sharded.packets_delivered == inline.packets_delivered
        assert sharded.invariant_failures() == []
        assert inline.invariant_failures() == []

    def test_merged_report_renders_one_fleet_document(self, tmp_path):
        sharded = run_fleet(SPEC)
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(sharded.audit))
        text = render_run(str(path), max_rows=8)
        assert "Merged from 2 snapshot(s): s0, s1" in text
        # One control-plane block per shard, each holding its own pair.
        assert "Control plane [s0]:" in text
        assert "Control plane [s1]:" in text
        assert "p0/live" in text and "p1/live" in text
        assert "more connection(s) not shown" in text
