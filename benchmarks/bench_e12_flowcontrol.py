"""E12 -- section 7: rate-based vs window-based flow control for CM.

The paper *assumes* rate-based flow control, having "found rate-based
flow control to be admirably suited for transporting CM".  This
experiment substantiates the claim: the same 25 fps video workload is
carried over (a) the CM rate-based profile and (b) the window-based
profile, on a clean link and on a 2%-lossy link, measuring delivery
smoothness, end-to-end delay, and stop-responsiveness (how fast the
sender quiesces when the receiver gates -- the property Orch.Stop and
regulation blocking rely on, section 6.2.3).

Expected shape: on a clean link both profiles carry a paced source
smoothly and both stall promptly after a gate close (the credit loop
for the rate profile, the zero advertised window for the window
profile).  The decisive difference appears under loss: go-back-N's
RTO-clocked recovery stalls delivery for hundreds of milliseconds and
re-sends whole windows, where the rate profile's NACK recovery repairs
within a couple of RTTs.
"""

import pytest

from repro.apps.testbed import Testbed
from repro.metrics.stats import interarrival_jitter, summarize
from repro.metrics.table import Table
from repro.netsim.link import BernoulliLoss
from repro.sim.scheduler import Timer
from repro.transport.addresses import TransportAddress
from repro.transport.osdu import OSDU
from repro.transport.profiles import ClassOfService, ProtocolProfile
from repro.transport.qos import QoSSpec
from repro.transport.service import TransportService

from benchmarks.common import emit, once

RUN_SECONDS = 20.0
FRAME = 3000
FPS = 25.0


def run_case(profile: ProtocolProfile, loss_p: float):
    bed = Testbed(seed=int(loss_p * 100) + 43)
    bed.host("src")
    bed.host("dst")
    bed.link("src", "dst", 10e6, prop_delay=0.005,
             loss=BernoulliLoss(loss_p) if loss_p else None)
    bed.up()
    service = TransportService(bed.entities["src"])
    TransportService(bed.entities["dst"]).listen(1)
    binding = service.bind(1)
    cos = (
        ClassOfService.detect_and_correct()
        if profile is ProtocolProfile.CM_RATE_BASED
        else ClassOfService.detect_and_indicate()
    )
    qos = QoSSpec.simple(FPS * (FRAME + 72) * 8 * 1.2, max_osdu_bytes=FRAME,
                         per=0.5, ber=0.5)
    deliveries = []
    out = {}

    def driver():
        endpoint = yield from service.connect(
            binding, TransportAddress("dst", 1), qos, profile=profile,
            cos=cos,
        )
        recv = bed.entities["dst"].endpoint_for(endpoint.vc_id)

        def producer():
            # Media-paced at 25 fps so the source never queues and the
            # measured delay/jitter is the transport's alone.
            n = 0
            start = bed.sim.now
            while bed.sim.now - start < RUN_SECONDS + 5.0:
                wait = start + n / FPS - bed.sim.now
                if wait > 0:
                    yield Timer(bed.sim).after(wait)
                yield from endpoint.write(OSDU(size_bytes=FRAME, payload=n))
                n += 1

        def consumer():
            while True:
                osdu = yield from recv.read()
                deliveries.append((bed.sim.now, osdu.created_at))

        bed.spawn(producer())
        bed.spawn(consumer())
        yield Timer(bed.sim).after(RUN_SECONDS)
        # Stop-responsiveness: close the receive gate and watch the
        # sender quiesce (the Orch.Stop mechanism, section 6.2.3).
        recv_vc = bed.entities["dst"].recv_vcs[endpoint.vc_id]
        send_vc = bed.entities["src"].send_vcs[endpoint.vc_id]
        recv_vc.close_gate()
        gate_closed = bed.sim.now
        last_count = send_vc.sent_count
        quiet_since = bed.sim.now
        while bed.sim.now - quiet_since < 1.0:
            yield Timer(bed.sim).after(0.05)
            if send_vc.sent_count != last_count:
                last_count = send_vc.sent_count
                quiet_since = bed.sim.now
        out["stall_time"] = quiet_since - gate_closed

    bed.spawn(driver())
    bed.run(RUN_SECONDS + 20.0)
    arrivals = [t for t, _c in deliveries][30:]
    delays = [t - c for t, c in deliveries][30:]
    return {
        "jitter": interarrival_jitter(arrivals),
        "delay": summarize(delays),
        "stall": out.get("stall_time", float("nan")),
        "count": len(deliveries),
    }


def run_experiment():
    table = Table(
        ["profile", "link loss", "interarrival jitter max (ms)",
         "delay mean (ms)", "delay p95 (ms)", "sender stall after "
         "gate close (s)"],
        title="E12: rate-based CM profile vs window-based baseline "
              "carrying 25 fps video",
    )
    results = {}
    for profile, label in (
        (ProtocolProfile.CM_RATE_BASED, "rate-based"),
        (ProtocolProfile.WINDOW_BASED, "window-based"),
    ):
        for loss_p in (0.0, 0.02):
            result = run_case(profile, loss_p)
            results[(label, loss_p)] = result
            table.add(label, loss_p, result["jitter"].maximum * 1e3,
                      result["delay"].mean * 1e3, result["delay"].p95 * 1e3,
                      result["stall"])
    return [table], results


@pytest.mark.benchmark(group="e12")
def test_e12_flowcontrol(benchmark):
    tables, results = once(benchmark, run_experiment)
    emit("e12_flowcontrol", tables)
    # Clean link: both profiles carry a paced source smoothly.
    assert (
        results[("rate-based", 0.0)]["jitter"].maximum
        <= results[("window-based", 0.0)]["jitter"].maximum + 1e-9
    )
    # Under loss the rate profile is dramatically smoother: NACK repair
    # within ~2 RTTs versus go-back-N's RTO stalls.
    assert (
        results[("rate-based", 0.02)]["jitter"].maximum
        < 0.7 * results[("window-based", 0.02)]["jitter"].maximum
    )
    assert (
        results[("rate-based", 0.02)]["delay"].p95
        < 0.5 * results[("window-based", 0.02)]["delay"].p95
    )
    # Both backpressure mechanisms stall the sender promptly after a
    # gate close (credits / zero advertised window).
    assert results[("rate-based", 0.0)]["stall"] < 1.0
    assert results[("window-based", 0.0)]["stall"] < 1.0
