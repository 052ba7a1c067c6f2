"""Both delta cadences fold to the same fleet documents, over real fleets.

The contract extending ``docs/SCALING.md``: a sharded run's workers
ship telemetry only as deltas, folded by one ``DeltaFolder``.  Whether
they ship one per barrier (``FleetSpec.stream``) or only a final one,
the merged audit and metrics documents must be the same, byte for
byte.  Pinned over a plain cross-traffic fleet with control planes,
and over a chaotic scenario cell where faults drive renegotiations,
releases and drill-downs through the delta encoder.

Spawned worker processes make these slow; specs stay CI-small.
"""

import dataclasses
import json

from repro.obs.stream import DeltaFolder
from repro.scenarios.runner import run_cell
from repro.scenarios.spec import parse_scenario_id
from repro.soak import FleetSpec, run_fleet

SPEC = FleetSpec(
    cells=3, vcs_per_cell=5, shards=2, cp_pairs=2,
    duration=8.0, seed=3, cross_traffic=True, tight_every=7,
)


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2)


class TestStreamedFleetIdentity:
    def test_streamed_documents_byte_identical_to_merge(self, monkeypatch):
        folded = []
        fold = DeltaFolder.fold

        def counting_fold(folder, shard, delta):
            if delta is not None:
                folded.append(shard)
            fold(folder, shard, delta)

        monkeypatch.setattr(DeltaFolder, "fold", counting_fold)
        merged = run_fleet(SPEC)
        # Without streaming, each worker's final delta is its only one.
        assert sorted(folded) == list(range(SPEC.shards))
        del folded[:]
        streamed = run_fleet(dataclasses.replace(SPEC, stream=True))
        assert len(folded) > SPEC.shards
        assert _dumps(streamed.audit) == _dumps(merged.audit)
        assert _dumps(streamed.metrics) == _dumps(merged.metrics)
        # Workers never ship audit or registry snapshots, in either
        # cadence.
        for payload in (*merged.payloads, *streamed.payloads):
            assert "audit" not in payload and "metrics" not in payload

    def test_chaotic_sharded_cell_streams_identically(self):
        spec = dataclasses.replace(
            parse_scenario_id("cbr/cells/chaos@s0"), shards=2,
        )
        merged = run_cell(spec)
        streamed = run_cell(spec, stream=True)
        assert _dumps(streamed.audit) == _dumps(merged.audit)
        assert _dumps(streamed.metrics) == _dumps(merged.metrics)

    def test_live_sink_records_windows_and_final(self, tmp_path):
        path = tmp_path / "live.jsonl"
        with open(path, "w") as sink:
            run_fleet(dataclasses.replace(SPEC, stream=True), live=sink)
        records = [
            json.loads(line) for line in open(path) if line.strip()
        ]
        assert records, "live sink stayed empty"
        kinds = [record["kind"] for record in records]
        assert kinds[-1] == "final"
        assert all(kind == "window" for kind in kinds[:-1])
        final = records[-1]
        # The rolling fold and the merged document agree on the run.
        merged = run_fleet(SPEC)
        summary = merged.audit["summary"]
        assert final["connections"] == summary["connections"]
        assert final["periods"] == summary["periods"]
        assert final["conformance"] == summary["conformance"]
        assert final["counts"] == summary["counts"]

    def test_live_sink_writes_windows_per_audit_period_not_per_barrier(
        self, tmp_path,
    ):
        path = tmp_path / "live.jsonl"
        with open(path, "w") as sink:
            result = run_fleet(dataclasses.replace(SPEC, stream=True),
                               live=sink)
        windows = [
            record for record in map(json.loads, open(path))
            if record["kind"] == "window"
        ]
        # Workers ship once per audit period, so the rolling record
        # moves (and is written) at most that often.
        assert 0 < len(windows) <= SPEC.duration / SPEC.pump_period
        assert len(windows) < result.windows
