"""Fleet spec validation, partitioning, inline runs, and the CLI.

Everything here runs in-process (inline mode); the spawned-worker
determinism contract lives in ``tests/integration/test_shard_fleet.py``.
"""

import json

import pytest

from repro.soak import FleetSpec, fleet_partition, run_fleet
from repro.soak.__main__ import main as soak_main


class TestFleetSpec:
    @pytest.mark.parametrize("kwargs,match", [
        (dict(cells=0), "cell"),
        (dict(vcs_per_cell=0), "VC"),
        (dict(shards=5, cells=4), "shards"),
        (dict(shards=0), "shards"),
        (dict(cp_pairs=-1), "cp_pairs"),
        (dict(duration=0.0), "duration"),
        (dict(cp_pairs=1, duration=2.0), "ready/unready"),
        (dict(cross_traffic=True, cells=1), "two cells"),
        (dict(pump_period=0.0), "pump_period"),
    ])
    def test_rejects_unbuildable_specs(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FleetSpec(**kwargs).validate()

    def test_round_robin_assignment(self):
        spec = FleetSpec(cells=5, shards=2)
        assert [spec.cell_shard(j) for j in range(5)] == [0, 1, 0, 1, 0]
        assert spec.total_vcs == 5 * spec.vcs_per_cell


class TestFleetPartition:
    def test_only_ring_links_cut(self):
        spec = FleetSpec(cells=4, shards=2, cp_pairs=2, cross_traffic=True)
        part = fleet_partition(spec)
        # Every ring hop joins consecutive cells on opposite shards.
        assert len(part.cuts) == 4
        assert all(c.prop_delay == spec.ring_prop_delay for c in part.cuts)
        assert part.lookahead == spec.ring_prop_delay
        # Cell and control-plane links stay local.
        local = [s for shard in part.local for s in shard]
        assert len(local) == 4 * 2 + 2 * 4

    def test_no_cross_traffic_means_no_cuts(self):
        part = fleet_partition(FleetSpec(cells=4, shards=4))
        assert part.cuts == ()
        assert part.lookahead == float("inf")

    def test_wraparound_ring_link_can_stay_local(self):
        # cells=5, shards=2: cell 4 -> cell 0 are both shard 0.
        spec = FleetSpec(cells=5, shards=2, cross_traffic=True)
        part = fleet_partition(spec)
        assert len(part.cuts) == 4  # one of five ring hops is local


class TestInlineFleet:
    def test_small_fleet_runs_healthy(self):
        spec = FleetSpec(
            cells=2, vcs_per_cell=4, cp_pairs=1, duration=6.0,
            cross_traffic=True, tight_every=4,
        )
        result = run_fleet(spec, inline=True)
        assert result.mode == "inline"
        assert result.invariant_failures() == []
        counts = result.payloads[0]["counts"]
        assert counts["pump_vcs"] == 8
        assert counts["cross_vcs"] == 2
        assert counts["pump_sent"] > 0
        assert counts["cross_exported"] == 0  # nothing leaves inline
        summary = result.audit["summary"]
        # Two tight VCs (global indices 3 and 7) violate every period.
        assert summary["counts"]["violated"] > 0
        assert 0 < summary["conformance"] < 1

    def test_tight_every_zero_disables_violations(self):
        spec = FleetSpec(
            cells=2, vcs_per_cell=2, cp_pairs=0, duration=5.0,
            tight_every=0,
        )
        result = run_fleet(spec, inline=True)
        assert result.audit["summary"]["counts"]["violated"] == 0
        assert result.invariant_failures() == []

    def test_max_timeline_bounds_the_snapshot(self):
        spec = FleetSpec(
            cells=1, vcs_per_cell=2, cp_pairs=0, duration=10.0,
            max_timeline=3,
        )
        result = run_fleet(spec, inline=True)
        for conn in result.audit["connections"]:
            assert len(conn["timeline"]) <= 3
            # Verdict *counts* still cover every period.
            assert sum(conn["counts"].values()) >= 8


class TestSoakCLI:
    def test_inline_smoke_writes_and_renders(self, tmp_path, capsys):
        out = tmp_path / "audit.json"
        code = soak_main([
            "--inline", "--cells", "2", "--vcs-per-cell", "2",
            "--cp-pairs", "1", "--duration", "5", "--render",
            "--max-rows", "4", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "repro-audit"
        captured = capsys.readouterr().out
        assert "inline run" in captured
        assert "Per-VC conformance" in captured

    def test_cli_rejects_bad_spec_with_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            soak_main(["--cells", "0", "--inline"])
        assert excinfo.value.code == 2
        assert "cell" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--workload", "trace:nosuch", "--inline"],
        ["--shards", "9", "--cells", "2", "--inline"],
        ["--topology", "hypercube", "--inline"],
        ["--flow", "closed", "--inline"],
        ["--no-such-flag"],
    ])
    def test_cli_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            soak_main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [
        (["--live", "{tmp}/missing/x.jsonl"], "{tmp}/missing/x.jsonl"),
        (["--live", "999"], "--live 999"),
        (["--shards", "2", "--cells", "2", "--cross", "--window", "0"],
         "--window"),
        (["--shards", "2", "--cells", "2", "--cross", "--window", "-1"],
         "--window"),
        (["--timeline", "-3"], "--timeline"),
    ], ids=["live-path", "live-fd", "window-0", "window-neg", "timeline-neg"])
    def test_cli_bad_input_exits_2_before_running(
        self, argv, named, tmp_path, monkeypatch, capsys,
    ):
        def no_run(*_args, **_kwargs):
            raise AssertionError("fleet ran despite bad input")

        monkeypatch.setattr("repro.soak.__main__.run_fleet", no_run)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            soak_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert named.format(tmp=tmp_path) in err.strip().splitlines()[-1]

    def test_cli_list_prints_presets(self, capsys):
        assert soak_main(["--list"]) == 0
        out = capsys.readouterr().out
        for preset in ("smoke", "pipeline-smoke", "soak", "trace-abr"):
            assert preset in out

    def test_cli_preset_applies_defaults_but_flags_win(self, capsys):
        code = soak_main([
            "--preset", "pipeline-smoke", "--inline", "--duration", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 cell(s) x 3 VC(s)" in out
        assert "4 virtual s" in out
