"""Tests of the benchmark itself (``python -m pytest perf/tests -q``).

Each workload runs at a tiny scale (its size constants patched down);
the rest pins the ``BENCHMARK.json`` contract, the span arithmetic, the
patch hygiene of traced runs and the comparison rules.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perf import compare, harness, ledger, run
from perf.workloads import WORKLOADS, film, fleet_shards2, kernel_link, lossy_mixed

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture
def tiny(monkeypatch):
    """Every workload shrunk to a fraction of a second."""
    monkeypatch.setattr(kernel_link, "PLAY_SECONDS", 2)
    monkeypatch.setattr(kernel_link, "BALLAST", 100)
    monkeypatch.setitem(film.PLAY_SECONDS, "film_orch", 3)
    monkeypatch.setitem(film.PLAY_SECONDS, "film_obs", 3)
    monkeypatch.setattr(film, "GROUPS", 2)
    monkeypatch.setattr(lossy_mixed, "PLAY_SECONDS", 2)
    monkeypatch.setattr(fleet_shards2, "DURATION", 2.0)


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_schema(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer"}
    assert contract["paths"] == ["perf"]
    assert all(len(arg) <= 200 for arg in contract["command"])
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60
    assert len(contract["workloads"]) == 5
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in contract["end_to_end"])}]


def test_benchmark_names_match_the_code(contract, tiny):
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    plain = harness.run_rep(WORKLOADS["kernel_link"].run, 1)
    assert list(run.end_to_end([plain], [])) == [
        m["name"] for m in contract["end_to_end"]]
    from perf.tracing import SpanRecorder

    recorder = SpanRecorder().install()
    try:
        traced = harness.run_rep(
            WORKLOADS["kernel_link"].run, 1, recorder=recorder)
    finally:
        recorder.uninstall()
    table = run.per_layer(plain, traced, 1.0, 0)
    assert list(table) == [m["name"] for m in contract["per_layer"]]
    assert {name: unit for name, (_v, unit) in table.items()} == {
        m["name"]: m["unit"] for m in contract["per_layer"]}


def test_readme_interactions_name_real_metrics_and_workloads(contract):
    """Every per-layer row of the README names what it should move."""
    with open(os.path.join(ROOT, "perf", "README.md")) as handle:
        readme = handle.read()
    per_layer = {m["name"] for m in contract["per_layer"]}
    known = ({m["name"] for m in contract["end_to_end"]}
             | {w["name"] for w in contract["workloads"]} | {"failed"})
    documented = set()
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        row_names = re.findall(r"`([^`]+)`", cells[0]) if cells else []
        if len(cells) != 4 or not set(row_names) & per_layer:
            continue
        documented.update(row_names)
        moves = re.findall(r"`([^`]+)`", cells[3])
        assert moves, f"{row_names}: no end-to-end metric or workload named"
        assert set(moves) <= known, (row_names, set(moves) - known)
    assert documented == per_layer


# -- the workloads at a tiny scale ------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_repeats_exactly_and_checks_pass(name, tiny):
    first = harness.run_rep(WORKLOADS[name].run, 7)
    second = harness.run_rep(WORKLOADS[name].run, 7)
    assert first.stats.problems == []
    assert first.stats.failed == 0
    assert first.stats.units > 0 and first.stats.attempted >= first.stats.units
    assert first.digest == second.digest
    # Every OSDU the transport reports lost counts as failed.
    assert first.stats.counts.get("lost_osdus", 0) == 0
    assert first.phases.setup_s > 0 and first.phases.finish_s > 0
    assert len(first.phases.slice_s) >= 2
    assert not os.listdir(harness.OUT_DIR) or all(
        not entry.startswith("rep-") for entry in os.listdir(harness.OUT_DIR))


def test_seed_changes_the_inputs(tiny):
    a = harness.run_rep(WORKLOADS["lossy_mixed"].run, 1)
    b = harness.run_rep(WORKLOADS["lossy_mixed"].run, 2)
    assert a.digest != b.digest


@pytest.mark.parametrize("name", ["film_orch", "fleet_shards2"])
def test_setup_pass_stops_at_the_last_confirm(name, tiny):
    import multiprocessing

    assert harness.setup_pass(WORKLOADS[name].run, 7) > 0
    assert multiprocessing.active_children() == []
    # The pass left no state behind that a played rep would see.
    first = harness.run_rep(WORKLOADS[name].run, 7)
    harness.setup_pass(WORKLOADS[name].run, 7)
    assert harness.run_rep(WORKLOADS[name].run, 7).digest == first.digest


class _ScriptedProbe:
    """Stands in for the host probe: rates as multiples of the reference."""

    def __init__(self, speeds):
        from perf.probe import REFERENCE_RATE

        self._rates = [speed * REFERENCE_RATE for speed in speeds]

    def rate(self):
        return self._rates.pop(0)


def test_times_are_scaled_by_the_bracketing_probe_readings(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(harness, "perf_counter", lambda: float(next(ticks)))
    # Readings: start, after setup, after slice 1, after slice 2, at finish.
    phases = harness.Phases(_ScriptedProbe([1.0, 0.5, 0.5, 1.0, 1.0]))
    phases.setup_done()
    phases.slice_done()
    phases.slice_done()
    phases.finish_done()
    # Every piece took one tick of plain wall.
    assert phases.setup_s == 0.75
    assert phases.slice_s == [0.5, 0.75]
    assert phases.finish_s == 1.0
    assert phases.wall_s == 4.0 and phases.speed_factor == 0.75


def test_phases_keep_untimed_work_out_of_the_slice():
    from time import sleep

    phases = harness.Phases()
    phases.setup_done()
    with phases.untimed():
        sleep(0.05)
    phases.slice_done()
    phases.finish_done()
    assert phases.timed_s == phases.slice_s[0] < 0.04
    with pytest.raises(harness.SetupOnly):
        harness.Phases(play=False).setup_done()


def test_setup_is_a_median_over_passes_and_reps(tiny):
    rep = harness.run_rep(WORKLOADS["kernel_link"].run, 1)
    rep.phases.setup_s = 0.3
    metrics = run.end_to_end([rep], [0.1, 0.2, 0.4, 0.5])
    assert metrics["setup_s"] == (0.3, "s")


# -- tracing -------------------------------------------------------------------


def test_span_self_time_arithmetic():
    from perf.tracing import SpanRecorder, self_seconds_by_group

    recorder = SpanRecorder()
    recorder.owner = "cb:netsim.link"
    # dispatch [0, 10] > Host.receive [1, 9] > {deliver [2, 5], deliver [6, 8]}
    recorder.add("transport.deliver", 2.0, 5.0)
    recorder.add("transport.deliver", 6.0, 8.0)
    recorder.add("netsim.node:Host.receive", 1.0, 9.0)
    recorder.add("scheduler.dispatch", 0.0, 10.0)
    # A second event: nothing nested.
    recorder.owner = "cb:sim.scheduler"
    recorder.add("scheduler.dispatch", 10.0, 11.0)
    totals = recorder.totals()
    assert totals["transport.deliver"][:3] == [2, 5.0, 5.0]
    assert totals["netsim.node:Host.receive"] == [1, 8.0, 3.0]
    assert totals["cb:netsim.link"] == [1, 10.0, 2.0]
    assert totals["cb:sim.scheduler"] == [1, 1.0, 1.0]
    groups = self_seconds_by_group(totals)
    assert groups == {"transport.entity": 5.0, "netsim.node": 3.0,
                      "netsim.link": 2.0, "sim.process": 1.0}
    # Self times add up to the time under top-level spans.
    assert sum(groups.values()) == 11.0
    parents = [span[3] for span in recorder.spans]
    assert parents == [2, 2, 3, -1, -1]


def _patched_attributes():
    import importlib

    from perf.tracing import ENTRY_POINTS
    from repro.obs.stream import DeltaFolder
    from repro.sim import scheduler

    attributes = [
        (scheduler.TimerHandle, "__init__"), (scheduler.PeriodicTimer, "__init__"),
        (scheduler.Process, "_resume"), (scheduler.Process, "_throw"),
        (scheduler.Simulator, "_note_dead"), (scheduler.Simulator, "__init__"),
        (DeltaFolder, "fold"),
    ]
    for module, cls, methods, _group in ENTRY_POINTS:
        owner = getattr(importlib.import_module(module), cls)
        attributes.extend((owner, method) for method in methods)
    return attributes


def test_traced_rep_perturbs_nothing_and_removes_its_patches(tiny):
    from perf.tracing import SpanRecorder

    before = [(owner, attr, owner.__dict__[attr])
              for owner, attr in _patched_attributes()]
    plain = harness.run_rep(WORKLOADS["film_orch"].run, 3)
    recorder = SpanRecorder().install()
    try:
        assert any(owner.__dict__[attr] is not original
                   for owner, attr, original in before)
        traced = harness.run_rep(
            WORKLOADS["film_orch"].run, 3, recorder=recorder)
    finally:
        recorder.uninstall()
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert traced.digest == plain.digest
    spans = traced.phases.spans
    assert spans["cb:netsim.link"][0] > 0
    assert spans["proc:media.sink"][0] > 0
    assert spans["transport.send:VCEndpoint.write"][0] > 0
    assert not any(name.startswith("obs.trace") for name in spans)
    again = harness.run_rep(WORKLOADS["film_orch"].run, 3)
    assert again.digest == plain.digest


def test_untraced_run_never_imports_the_tracer(tiny, capsys):
    sys.modules.pop("perf.tracing", None)
    assert run.run_workload("kernel_link", 1, 0.01, False) == 0
    assert "perf.tracing" not in sys.modules
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0


# -- comparison rules -----------------------------------------------------------


def _row(values, better="higher", bound=0.10):
    return {"unit": "1/s", "better": better, "bound": bound,
            **harness.quantiles(values), "values": values}


def test_compare_verdicts():
    base = _row([100, 101, 99, 100, 102])
    assert compare.verdict(base, _row([97, 98, 99, 98, 97])) == "within bound"
    assert compare.verdict(base, _row([80, 81, 82, 80, 79])) == "worse"
    assert compare.verdict(base, _row([120, 121, 119, 122, 120])) == "better"
    noisy = _row([100, 130, 70, 125, 75])
    assert compare.verdict(noisy, _row([98, 128, 72, 120, 80])) == "unresolved"
    lower = _row([1.0, 1.01, 0.99, 1.0, 1.02], better="lower")
    assert compare.verdict(lower, _row([1.2, 1.21, 1.19, 1.2, 1.22],
                                       better="lower")) == "worse"


def test_compare_floors():
    base = _row([0.0040, 0.0041, 0.0039, 0.0040, 0.0042], "lower", 0.15)
    slower = _row([0.0080, 0.0081, 0.0079, 0.0080, 0.0082], "lower", 0.15)
    assert compare.verdict(base, slower) == "worse"
    assert compare.verdict(base, slower, floor=0.050) == "within bound"
    far = _row([0.0800, 0.0810, 0.0790, 0.0800, 0.0820], "lower", 0.15)
    assert compare.verdict(base, far, floor=0.050) == "worse"
    jumpy = _row([0.0040, 0.0060, 0.0020, 0.0055, 0.0025], "lower", 0.15)
    assert compare.verdict(jumpy, jumpy) == "unresolved"
    assert compare.verdict(jumpy, jumpy, floor=0.050) == "within bound"


# -- ledger mode -----------------------------------------------------------------


def _fake_run(digest_of_traced="d1", lost=0):
    def run_once(workload, seed, seconds, traced):
        metrics = ({"host.spin_per_s": 1.0, "transport.lost_osdus": lost,
                    "obs.trace_events": 0}
                   if traced else
                   {"units_per_s": 100.0 + seed, "peak_rss_mib": 40.0,
                    "setup_s": 0.01, "finish_s": 0.02})
        return {
            "correct": True, "attempted": 1000, "failed": lost,
            "exit_code": 0,
            "metrics": {k: {"value": v, "unit": "x"}
                        for k, v in metrics.items()},
            "detail": {"seed": seed, "problems": [], "reps": [],
                       "digests": [digest_of_traced if traced
                                   else f"d{seed}"]},
        }
    return run_once


@pytest.fixture
def small_ledger(monkeypatch, tmp_path):
    """Ledger mode over two stub metrics and canned runs."""
    benchmark = {
        "run_seconds": 1,
        "workloads": [{"name": "film_orch", "why": ""}],
        "end_to_end": [{"name": "units_per_s", "unit": "1/s",
                        "better": "higher", "bound": 0.1}],
        "per_layer": [{"name": "transport.lost_osdus", "unit": "count",
                       "better": "lower"},
                      {"name": "obs.trace_events", "unit": "count",
                       "better": "lower"}],
    }
    monkeypatch.setattr(ledger, "load_benchmark", lambda: benchmark)
    monkeypatch.setattr(ledger, "RUNS", 3)
    monkeypatch.setattr(ledger, "LEDGER_PATH", str(tmp_path / "ledger.json"))
    monkeypatch.setattr(harness, "OUT_DIR", str(tmp_path))

    def read():
        with open(ledger.LEDGER_PATH) as handle:
            return json.load(handle)
    return read


def test_ledger_mode_aggregates_runs(small_ledger, monkeypatch, capsys):
    monkeypatch.setattr(ledger, "run_once", _fake_run())
    assert ledger.run_all(1, 1) == 0
    stored = small_ledger()
    entry = stored["workloads"]["film_orch"]
    assert stored["runs"] == 3 and stored["seed"] == 1
    row = entry["end_to_end"]["units_per_s"]
    assert row["values"] == [101.0, 102.0, 103.0]
    assert (row["median"], row["n"], row["bound"]) == (102.0, 3, 0.1)
    assert entry["sim_digest"] == {"1": ["d1"], "2": ["d2"], "3": ["d3"]}
    assert entry["zero_rows"] == {"obs.trace_events": 0}
    assert entry["failed"] == 0 and entry["attempted"] == 4000
    assert "units_per_s" in capsys.readouterr().out
    # A ledger compared with itself has no worse and no changed row.
    rows = compare.compare(stored, stored)
    assert {r["verdict"] for r in rows} == {"within bound", "identical"}


def test_ledger_mode_fails_on_a_traced_digest_mismatch(
        small_ledger, monkeypatch):
    monkeypatch.setattr(ledger, "run_once", _fake_run(digest_of_traced="xx"))
    assert ledger.run_all(1, 1) == 1
    entry = small_ledger()["workloads"]["film_orch"]
    assert entry["correct"] is False
    assert any("traced and untraced" in p for p in entry["problems"])


def test_any_lost_osdu_reads_worse_in_the_comparison(
        small_ledger, monkeypatch):
    monkeypatch.setattr(ledger, "run_once", _fake_run())
    ledger.run_all(1, 1)
    clean = small_ledger()
    monkeypatch.setattr(ledger, "run_once", _fake_run(lost=1))
    ledger.run_all(1, 1)
    rows = {r["metric"]: r["verdict"]
            for r in compare.compare(clean, small_ledger())}
    assert rows["failed_ratio"] == "worse"
    assert rows["transport.lost_osdus"] == "changed"


# -- the driver's contract --------------------------------------------------------


def test_command_line_prints_one_result_object():
    env = dict(os.environ, REPRO_TRACE="/nonexistent/should-be-scrubbed")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perf", "run.py"),
         "--workload", "lossy_mixed", "--seed", "11", "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {
        "units_per_s", "job_units_per_s", "peak_rss_mib", "setup_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perf"), tmp_path / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "kernel_link",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
