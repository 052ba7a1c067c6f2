"""``python -m repro.scenarios``: modes, exit codes, baseline freshness.

``test_update_baselines_reproduces_the_checked_in_file`` doubles as
the freshness guard: the committed ``BASELINES.json`` must be exactly
what ``--matrix --update-baselines`` regenerates at seed 0, so a
behavioural change cannot land without visibly rewriting baselines.
"""

import json
import pathlib

import pytest

from repro.scenarios.__main__ import main as scenarios_main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BASELINES = REPO_ROOT / "BASELINES.json"


class TestUsage:
    @pytest.mark.parametrize("argv", [
        [],                                     # a mode is required
        ["--matrix", "--list"],                 # modes are exclusive
        ["--matrix", "--tolerance", "-0.5"],
        ["--cell", "not-a-scenario-id"],
        ["--cell", "cbr/cells/mayhem@s0"],      # unknown variant
        ["--replay", "/no/such/file.json"],
        ["--no-such-flag"],
    ])
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            scenarios_main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err

    def test_unopenable_live_sink_exits_2_before_running(
        self, tmp_path, monkeypatch, capsys,
    ):
        def no_run(*_args, **_kwargs):
            raise AssertionError("cell ran despite bad input")

        monkeypatch.setattr("repro.scenarios.__main__.run_cell", no_run)
        sink = str(tmp_path / "missing" / "x.jsonl")
        with pytest.raises(SystemExit) as excinfo:
            scenarios_main(["--cell", "cbr/cells/calm@s0", "--live", sink])
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert f"--live {sink}" in last

    def test_list_prints_parseable_matrix_ids(self, capsys):
        assert scenarios_main(["--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 12
        assert "cbr/cells/calm@s0" in lines
        assert "trace:action/pipeline/abr-chaos@s0" in lines


class TestCellMode:
    def test_baselined_cell_is_ok(self, capsys):
        code = scenarios_main([
            "--cell", "cbr/cells/calm@s0", "--baselines", str(BASELINES),
        ])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_unbaselined_cell_reports_new_without_failing(
        self, tmp_path, capsys,
    ):
        empty = tmp_path / "b.json"
        empty.write_text(json.dumps({"tolerance": 0.02, "cells": {}}))
        code = scenarios_main([
            "--cell", "cbr/cells/calm@s0", "--baselines", str(empty),
        ])
        assert code == 0
        assert "new" in capsys.readouterr().out


class TestMatrixMode:
    def test_matrix_is_clean_against_checked_in_baselines(
        self, tmp_path, capsys,
    ):
        code = scenarios_main([
            "--matrix", "--baselines", str(BASELINES),
            "--repro-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 failing" in out
        assert not list(tmp_path.iterdir())  # no repro files on a clean run

    def test_update_baselines_reproduces_the_checked_in_file(
        self, tmp_path,
    ):
        regenerated = tmp_path / "regenerated.json"
        code = scenarios_main([
            "--matrix", "--update-baselines",
            "--baselines", str(regenerated),
        ])
        assert code == 0
        assert json.loads(regenerated.read_text()) == (
            json.loads(BASELINES.read_text())
        )

    def test_missing_baselines_fails_with_a_hint(self, tmp_path, capsys):
        code = scenarios_main([
            "--matrix", "--baselines", str(tmp_path / "absent.json"),
            "--no-shrink", "--repro-dir", str(tmp_path),
        ])
        assert code == 1
        assert "--update-baselines" in capsys.readouterr().err

    def test_drifted_cell_fails_the_matrix(self, tmp_path, capsys):
        doctored = json.loads(BASELINES.read_text())
        doctored["cells"]["cbr/cells/calm@s0"]["conformance"] += 0.1
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(doctored))
        code = scenarios_main([
            "--matrix", "--baselines", str(path),
            "--no-shrink", "--repro-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "1 failing" in out
        assert "drift" in out

    def test_corrupt_baselines_is_a_usage_error(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(["not", "a", "mapping"]))
        with pytest.raises(SystemExit) as excinfo:
            scenarios_main(["--matrix", "--baselines", str(path)])
        assert excinfo.value.code == 2
