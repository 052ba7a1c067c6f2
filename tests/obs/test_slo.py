"""Tests for the declarative SLO evaluator and the live-log CLI."""

import json

import pytest

from repro.obs import live
from repro.obs.slo import (
    SLO,
    default_slos,
    evaluate,
    parse_slo,
    render_statuses,
)

RECORD = {
    "kind": "final",
    "t": 8.0,
    "conformance": 0.97,
    "skew_over_bound": 0,
    "lease_violations": 2,
    "first_breach_at": None,
}


class TestSLO:
    def test_ge_and_le_ops(self):
        assert SLO("c", "conformance", "ge", 0.95).evaluate(RECORD).ok
        assert not SLO("c", "conformance", "ge", 0.99).evaluate(RECORD).ok
        assert not SLO("l", "lease_violations", "le", 0).evaluate(RECORD).ok
        assert SLO("l", "lease_violations", "le", 5).evaluate(RECORD).ok

    def test_absent_metric_is_pending_not_breach(self):
        status = SLO("l", "lease_violations", "le", 0).evaluate(
            {"kind": "window", "conformance": 1.0},
        )
        assert status.ok is None
        assert status.label == "PENDING"

    def test_present_but_none_metric_is_pending(self):
        status = SLO("c", "conformance", "ge", 0.95).evaluate(
            {"conformance": None},
        )
        assert status.ok is None

    def test_none_or_ge_treats_none_as_best(self):
        slo = SLO("fb", "first_breach_at", "none_or_ge", 5.0)
        assert slo.evaluate({"first_breach_at": None}).ok
        assert slo.evaluate({"first_breach_at": 7.5}).ok
        assert not slo.evaluate({"first_breach_at": 0.5}).ok

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            SLO("x", "x", "gt", 1.0)

    def test_parse_round_trip(self):
        slo = parse_slo("conformance>=0.95")
        assert (slo.metric, slo.op, slo.threshold) == (
            "conformance", "ge", 0.95,
        )
        slo = parse_slo("lease_violations<=0")
        assert (slo.op, slo.threshold) == ("le", 0.0)
        # first_breach_at inverts: None (never breached) must satisfy.
        slo = parse_slo("first_breach_at>=2.0")
        assert slo.op == "none_or_ge"
        with pytest.raises(ValueError):
            parse_slo("conformance")
        with pytest.raises(ValueError):
            parse_slo(">=0.95")

    def test_default_slos_judge_the_final_record(self):
        statuses = evaluate(default_slos(), RECORD)
        by_name = {s.slo.name: s for s in statuses}
        assert by_name["conformance"].ok
        assert by_name["skew-bound"].ok
        assert not by_name["leases"].ok
        line = render_statuses(statuses)
        assert "conformance 0.97 >= 0.95 OK" in line
        assert "leases 2 <= 0 BREACH" in line


def _write_log(path, records):
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


class TestLiveCLI:
    def test_check_passes_on_healthy_final(self, tmp_path, capsys):
        path = str(tmp_path / "log.jsonl")
        _write_log(path, [
            {"kind": "window", "t": 4.0, "conformance": 0.99},
            RECORD,
        ])
        code = live.main([
            "check", path, "--slo", "conformance>=0.95",
        ])
        assert code == 0

    def test_check_fails_on_breach(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        _write_log(path, [RECORD])
        assert live.main([
            "check", path, "--slo", "conformance>=0.99",
        ]) == 1

    def test_check_fails_without_final_record(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        _write_log(path, [{"kind": "window", "t": 1.0,
                           "conformance": 1.0}])
        assert live.main(["check", path]) == 1

    def test_check_empty_log_is_usage_error(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        _write_log(path, [])
        assert live.main(["check", path]) == 2

    def test_pending_slo_fails_unless_allowed(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        record = dict(RECORD)
        del record["lease_violations"]
        _write_log(path, [record])
        args = ["check", path, "--slo", "lease_violations<=0"]
        assert live.main(args) == 1
        assert live.main(args + ["--allow-pending"]) == 0

    def test_breach_forgiven_by_matching_baseline(self, tmp_path):
        log = str(tmp_path / "log.jsonl")
        record = dict(RECORD, conformance=0.84)
        _write_log(log, [record])
        baselines = str(tmp_path / "BASELINES.json")
        with open(baselines, "w") as handle:
            json.dump({
                "tolerance": 0.02,
                "cells": {"cbr/cells/chaos@s0": {"conformance": 0.85}},
            }, handle)
        args = ["check", log, "--slo", "conformance>=0.95",
                "--baselines", baselines, "--cell", "cbr/cells/chaos@s0"]
        assert live.main(args) == 0  # within band of the known baseline
        # A drifted baseline does not forgive.
        with open(baselines, "w") as handle:
            json.dump({
                "tolerance": 0.02,
                "cells": {"cbr/cells/chaos@s0": {"conformance": 0.95}},
            }, handle)
        assert live.main(args) == 1

    def test_tail_renders_rolling_status(self, tmp_path, capsys):
        path = str(tmp_path / "log.jsonl")
        _write_log(path, [
            {"kind": "window", "t": 4.0, "conformance": 0.99},
            RECORD,
        ])
        # Bare-path invocation defaults to the tail subcommand.
        assert live.main([path, "--slo", "conformance>=0.95"]) == 0
        out = capsys.readouterr().out
        assert "final" in out
        assert "OK" in out

    @pytest.mark.parametrize("mode", ["check", "tail"])
    def test_missing_log_names_the_path(self, mode, tmp_path, capsys):
        path = str(tmp_path / "absent.jsonl")
        assert live.main([mode, path]) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"{path}: No such file or directory"

    @pytest.mark.parametrize("bad", ["{not json", "[1, 2]"])
    def test_malformed_line_names_its_number(self, bad, tmp_path, capsys):
        path = str(tmp_path / "log.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"kind": "window", "t": 1.0}) + "\n")
            handle.write(bad + "\n")
        assert live.main(["check", path]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"{path}:2: not a JSON telemetry record"]

    def test_unparseable_slo_is_a_usage_error(self, tmp_path, capsys):
        path = str(tmp_path / "log.jsonl")
        _write_log(path, [RECORD])
        with pytest.raises(SystemExit) as excinfo:
            live.main(["check", path, "--slo", "bogus"])
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert "--slo" in last and "bogus" in last
