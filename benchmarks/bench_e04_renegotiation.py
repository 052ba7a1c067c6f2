"""E4 -- Table 3: QoS renegotiation vs naive teardown-and-reconnect.

The paper argues (section 3.3) for changing a VC's QoS "transparently
behind the transport service interface" because "it allows the
maintenance of buffers and protocol state over the successive
connections which may minimise the delay before data flow may
resume".  This experiment measures exactly that: the gap in delivered
data around a mid-stream upgrade, done (a) with T-Renegotiate and (b)
by disconnecting and reconnecting.

Expected shape: renegotiation's delivery gap is a few control RTTs and
no data is lost; teardown/reconnect shows a much larger gap, loses the
buffered pipeline, and restarts sequence numbering.
"""

import pytest

from repro.apps.testbed import Testbed
from repro.metrics.table import Table
from repro.sim.scheduler import Timer
from repro.transport.addresses import TransportAddress
from repro.transport.osdu import OSDU
from repro.transport.primitives import (
    TRenegotiateConfirm,
    TRenegotiateRequest,
)
from repro.transport.qos import QoSSpec
from repro.transport.service import TransportService

from benchmarks.common import collect_metrics, emit, emit_json, once


def build():
    bed = Testbed(seed=8)
    bed.host("src")
    bed.host("dst")
    bed.link("src", "dst", 20e6, prop_delay=0.005)
    bed.up()
    bed.enable_audit()
    service = TransportService(bed.entities["src"])
    TransportService(bed.entities["dst"]).listen(1)
    binding = service.bind(1)
    return bed, service, binding


LOW = QoSSpec.simple(1e6, max_osdu_bytes=1000)
HIGH = QoSSpec.simple(4e6, max_osdu_bytes=1000)


def run_renegotiation():
    bed, service, binding = build()
    deliveries = []
    out = {}

    def driver():
        endpoint = yield from service.connect(
            binding, TransportAddress("dst", 1), LOW
        )
        recv = bed.entities["dst"].endpoint_for(endpoint.vc_id)

        def producer():
            for i in range(20000):
                yield from endpoint.write(OSDU(size_bytes=1000, payload=i))

        def consumer():
            while True:
                osdu = yield from recv.read()
                deliveries.append((bed.sim.now, osdu.payload))

        bed.spawn(producer())
        bed.spawn(consumer())
        yield Timer(bed.sim).after(3.0)
        out["change_at"] = bed.sim.now
        bed.entities["src"].request(
            TRenegotiateRequest(
                initiator=binding.address, src=binding.address,
                dst=TransportAddress("dst", 1), new_qos=HIGH,
                vc_id=endpoint.vc_id,
            )
        )
        while True:
            primitive = yield binding.next_primitive()
            if isinstance(primitive, TRenegotiateConfirm):
                out["confirmed_at"] = bed.sim.now
                return

    bed.spawn(driver())
    bed.run(10.0)
    collect_metrics("e04_renegotiation[reneg]", bed.sim.metrics)
    out["audit"] = bed.sim.auditor.snapshot()
    return _gap_stats(deliveries, out["change_at"]), out


def run_teardown_reconnect():
    bed, service, binding = build()
    deliveries = []
    out = {}

    def driver():
        endpoint = yield from service.connect(
            binding, TransportAddress("dst", 1), LOW
        )
        recv = bed.entities["dst"].endpoint_for(endpoint.vc_id)
        state = {"sent": 0, "endpoint": endpoint}

        def producer(ep):
            def proc():
                while state["sent"] < 20000 and state["endpoint"] is ep:
                    wrote = ep.try_write(
                        OSDU(size_bytes=1000, payload=state["sent"])
                    )
                    if wrote:
                        state["sent"] += 1
                    else:
                        yield Timer(bed.sim).after(0.002)
                    if not ep.vc.open:
                        return
            return proc

        def consumer(ep):
            def proc():
                while True:
                    osdu = yield from ep.read()
                    deliveries.append((bed.sim.now, osdu.payload))
            return proc

        bed.spawn(producer(endpoint)())
        bed.spawn(consumer(recv)())
        yield Timer(bed.sim).after(3.0)
        out["change_at"] = bed.sim.now
        # Naive application-level upgrade: disconnect, reconnect.
        service.disconnect(binding, endpoint.vc_id)
        state["endpoint"] = None
        yield Timer(bed.sim).after(0.05)  # wait for teardown to settle
        endpoint2 = yield from service.connect(
            binding, TransportAddress("dst", 1), HIGH
        )
        out["confirmed_at"] = bed.sim.now
        recv2 = bed.entities["dst"].endpoint_for(endpoint2.vc_id)
        state["endpoint"] = endpoint2
        bed.spawn(producer(endpoint2)())
        bed.spawn(consumer(recv2)())

    bed.spawn(driver())
    bed.run(10.0)
    collect_metrics("e04_renegotiation[teardown]", bed.sim.metrics)
    out["audit"] = bed.sim.auditor.snapshot()
    return _gap_stats(deliveries, out["change_at"]), out


def _gap_stats(deliveries, change_at):
    # Longest silence in the delivery timeline around the switch: the
    # user-visible interruption.
    window = sorted(
        t for t, _p in deliveries
        if change_at - 0.5 <= t <= change_at + 2.0
    )
    gaps = [b - a for a, b in zip(window, window[1:])]
    resume_gap = max(gaps) if gaps else float("inf")
    payloads = [p for _t, p in deliveries]
    unique = len(set(payloads))
    repeats = len(payloads) - unique
    # Units produced but never delivered: holes in the payload span
    # (the discarded source buffer and in-flight pipeline).
    span = max(payloads) - min(payloads) + 1 if payloads else 0
    skipped = max(0, span - unique)
    return {
        "resume_gap": resume_gap,
        "skipped_units": skipped,
        "repeated_units": repeats,
    }


def run_experiment():
    from repro.obs.audit import merge_snapshots

    reneg_stats, reneg_out = run_renegotiation()
    naive_stats, naive_out = run_teardown_reconnect()
    audit = merge_snapshots([reneg_out["audit"], naive_out["audit"]])
    table = Table(
        ["strategy", "data-flow gap (ms)", "units lost at switch",
         "units repeated"],
        title="E4: mid-stream QoS upgrade, T-Renegotiate vs "
              "teardown-and-reconnect",
    )
    table.add("T-Renegotiate (state retained)",
              reneg_stats["resume_gap"] * 1e3,
              reneg_stats["skipped_units"], reneg_stats["repeated_units"])
    table.add("disconnect + reconnect",
              naive_stats["resume_gap"] * 1e3,
              naive_stats["skipped_units"], naive_stats["repeated_units"])
    return [table], reneg_stats, naive_stats, audit


@pytest.mark.benchmark(group="e04")
def test_e04_renegotiation(benchmark):
    tables, reneg, naive, audit = once(benchmark, run_experiment)
    emit("e04_renegotiation", tables)
    emit_json("e04_audit", audit)
    # The audit ledger records the upgrade's outcome.
    assert audit["summary"]["renegotiations"].get("confirmed", 0) >= 1
    # Renegotiation must not interrupt or lose data; the naive path
    # loses the in-flight pipeline.
    assert reneg["skipped_units"] == 0
    assert reneg["resume_gap"] < 0.05
    assert naive["skipped_units"] + naive["repeated_units"] > 0
    assert naive["resume_gap"] > reneg["resume_gap"]
