"""Every attribute ``perf/tracing.py`` patches exists where it looks.

A traced perf run (``perf/run.py --trace 1``) wraps the layers' entry
points and a few kernel internals at class level, reading each original
from the class ``__dict__``.  Renaming or moving one of them breaks
traced runs only, so this pins the contract in the tier-1 suite: every
name resolves, ``install()`` replaces each one and ``uninstall()`` puts
every original back.
"""

from __future__ import annotations

import importlib

from perf import tracing
from repro.obs.stream import DeltaFolder
from repro.sim import scheduler

#: The kernel attributes ``SpanRecorder.install`` reads besides
#: ``ENTRY_POINTS``.
KERNEL_ATTRIBUTES = [
    (scheduler.Process, "_resume"),
    (scheduler.Process, "_throw"),
    (scheduler.TimerHandle, "__init__"),
    (scheduler.PeriodicTimer, "__init__"),
    (scheduler.Simulator, "__init__"),
    (scheduler.Simulator, "_note_dead"),
    (DeltaFolder, "fold"),
]


def entry_points():
    """``(class, method)`` for every method named in ``ENTRY_POINTS``."""
    for module_name, class_name, methods, _group in tracing.ENTRY_POINTS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            yield cls, method


def test_every_entry_point_is_defined_on_its_class():
    missing = [f"{cls.__module__}.{cls.__qualname__}.{method}"
               for cls, method in entry_points() if method not in cls.__dict__]
    assert missing == []


def test_every_kernel_attribute_is_defined_on_its_class():
    missing = [f"{cls.__qualname__}.{attr}"
               for cls, attr in KERNEL_ATTRIBUTES if attr not in cls.__dict__]
    assert missing == []


def test_install_patches_and_uninstall_restores_every_attribute():
    targets = list(entry_points()) + KERNEL_ATTRIBUTES
    originals = [cls.__dict__[attr] for cls, attr in targets]
    recorder = tracing.SpanRecorder().install()
    try:
        untouched = [f"{cls.__qualname__}.{attr}"
                     for (cls, attr), original in zip(targets, originals)
                     if cls.__dict__[attr] is original]
    finally:
        recorder.uninstall()
    assert untouched == []
    assert [cls.__dict__[attr] for cls, attr in targets] == originals


# -- what perf/workloads/film.py reads off a live stack ----------------------


def test_film_workload_reads_every_attribute_it_names(monkeypatch, tmp_path):
    """One short ``film_orch`` rep on one group: ``film.run`` reads the
    stack's counters, buffers, session reports and media endpoints by
    name, so a rename fails here rather than in a benchmark run."""
    from perf.harness import Phases
    from perf.workloads import film

    seen = {}
    collect = film._collect

    def recording_collect(stack, groups, *args):
        seen["stack"], seen["groups"] = stack, groups
        return collect(stack, groups, *args)

    monkeypatch.setattr(film, "GROUPS", 1)
    monkeypatch.setattr(film, "PLAY_SECONDS", {"film_orch": 2})
    monkeypatch.setattr(film, "_collect", recording_collect)
    stats = film.run("film_orch", 1, Phases(), str(tmp_path))
    assert stats.problems == []
    assert stats.units > 0

    stack = seen["stack"]
    group = seen["groups"][0]
    reports = group.session.reports()
    assert reports
    assert group.session.max_skew(since=0.0) >= 0.0
    for name, stream in group.streams.items():
        send_vc = stack.entities[stream.source_node].send_vcs[stream.vc_id]
        recv_vc = stack.entities[stream.sink_node].recv_vcs[stream.vc_id]
        for report in reports:
            if stream.vc_id in report.streams:
                assert report.streams[stream.vc_id].dropped_delta >= 0
        assert recv_vc.lost_count >= 0
        assert recv_vc.source_dropped_count >= 0
        assert send_vc.buffer.capacity > 0 and recv_vc.buffer.capacity > 0
        assert send_vc.blocked_time("protocol") >= 0.0
        assert group.sources[name].generated >= group.sinks[name].presented > 0


# -- what perf/workloads/lossy_mixed.py reads off a live stack ----------------


def test_lossy_mixed_workload_reads_every_attribute_it_names(monkeypatch, tmp_path):
    """One short ``lossy_mixed`` rep on two VCs: ``lossy_mixed.run``
    connects through the transport service and reads the entities'
    bindings, VC tables, endpoints and counters by name, so a rename
    fails here rather than in a benchmark run."""
    from perf.harness import Phases
    from perf.workloads import lossy_mixed

    seen = {}
    collect = lossy_mixed._collect

    def recording_collect(stack, flows, *args):
        seen["stack"], seen["flows"] = stack, flows
        return collect(stack, flows, *args)

    monkeypatch.setattr(lossy_mixed, "VCS", 2)
    monkeypatch.setattr(lossy_mixed, "PLAY_SECONDS", 2)
    monkeypatch.setattr(lossy_mixed, "_collect", recording_collect)
    stats = lossy_mixed.run(1, Phases(), str(tmp_path))
    assert stats.problems == []
    assert stats.units > 0

    stack = seen["stack"]
    for flow in seen["flows"]:
        source = stack.entities[f"s{flow.index}"]
        sink = stack.entities[f"d{flow.index}"]
        vc_id = flow.send.vc_id
        assert source.bindings[1].address.node == f"s{flow.index}"
        # The rep's closing disconnect released both ends.
        assert vc_id not in source.send_vcs and vc_id not in sink.recv_vcs
        assert sink.endpoint_for(vc_id) is None
        send_vc, recv_vc = flow.send.vc, flow.recv.vc
        assert recv_vc.lost_count >= 0
        assert send_vc.sent_count > 0 and send_vc.retransmit_count >= 0
        assert send_vc.buffer.capacity > 0 and recv_vc.buffer.capacity > 0


# -- what perf/workloads/kernel_link.py reads off a bare link -----------------


def test_kernel_link_workload_reads_every_attribute_it_names(monkeypatch, tmp_path):
    """One short ``kernel_link`` rep: ``kernel_link.run`` reads the
    link's stats and its registry counters by name, so a rename fails
    here rather than in a benchmark run."""
    from perf.harness import Phases
    from perf.workloads import kernel_link

    link_class = kernel_link.Link
    links = []

    def recording_link(*args, **kwargs):
        links.append(link_class(*args, **kwargs))
        return links[-1]

    monkeypatch.setattr(kernel_link, "PLAY_SECONDS", 2)
    monkeypatch.setattr(kernel_link, "BALLAST", 100)
    monkeypatch.setattr(kernel_link, "PERIODIC_TIMERS", 4)
    monkeypatch.setattr(kernel_link, "Link", recording_link)
    stats = kernel_link.run(1, Phases(), str(tmp_path))
    assert stats.problems == []
    assert stats.units > 0

    (link,) = links
    link_stats = link.stats
    assert link_stats.sent_packets == stats.attempted
    assert link_stats.lost_packets == link_stats.buffer_drops == 0
    assert link_stats.corrupted_packets == 0
    # ``link_counts`` sums the registry's per-link counters by leaf
    # name; a renamed counter would read 0 here.
    assert stats.counts["link_pkts"] == link_stats.sent_packets
    assert stats.counts["link_delivered"] == stats.units
    assert stats.counts["queue_delay_sim_s"] >= 0.0


# -- what perf/workloads/fleet_shards2.py reads off a fleet result ------------


def test_fleet_shards2_workload_reads_every_attribute_it_names(monkeypatch, tmp_path):
    """One short, small ``fleet_shards2`` rep on two worker processes:
    ``fleet_shards2.run`` reads the fleet result's payload counts,
    protocol counters, audit summary, invariants and profile by name,
    so a rename in ``run_fleet`` fails here rather than in a benchmark
    run."""
    import dataclasses

    from perf.harness import Phases
    from perf.workloads import fleet_shards2

    spec_for = fleet_shards2.spec_for
    run_fleet = fleet_shards2.run_fleet
    seen = []

    def small_spec(seed, profile):
        # Profiled, so the traced run's profile read is checked too.
        return dataclasses.replace(
            spec_for(seed, profile), cells=4, vcs_per_cell=4,
            tight_every=4, duration=3.0, profile=True,
        )

    def recording_run_fleet(spec, **kwargs):
        seen.append(run_fleet(spec, **kwargs))
        return seen[-1]

    monkeypatch.setattr(fleet_shards2, "spec_for", small_spec)
    monkeypatch.setattr(fleet_shards2, "run_fleet", recording_run_fleet)
    stats = fleet_shards2.run(1, Phases(), str(tmp_path))
    assert stats.problems == []
    assert stats.units > 0

    (result,) = seen
    assert result.invariant_failures() == []
    assert len(result.payloads) == fleet_shards2.SHARDS
    for payload in result.payloads:
        counts = payload["counts"]
        assert counts["pump_sent"] > 0 and counts["cross_sent"] > 0
    assert result.windows > 1 and result.messages > 0
    summary = result.audit["summary"]
    assert summary["periods"] > 0 and summary["conformance"] is not None
    assert stats.counts["audit_periods"] == summary["periods"]
    assert result.packets_delivered == stats.units
    assert result.profile["subsystems"]["scheduler.dispatch"]["count"] > 0
