#!/usr/bin/env python3
"""QoS negotiation, degradation indication and soft guarantees.

Walks the transport-service QoS machinery of paper sections 3.2-3.3:

1. full end-to-end option negotiation with preferred/acceptable
   tolerance levels, clamped by the network's admission control;
2. a connection refused outright when even the acceptable levels
   cannot be met;
3. a *soft guarantee* in action: congestion is injected on the path
   and the transport entity delivers T-QoS.indication (Table 2) to the
   initiating user, identifying the degraded tolerance levels;
4. the user reacting by renegotiating the VC down (section 3.3's
   "re-assess priorities" scenario).

Run:  python examples/qos_negotiation.py
"""

from dataclasses import replace

from repro.apps import Testbed
from repro.netsim import BernoulliLoss
from repro.transport import (
    OSDU,
    QoSSpec,
    TQoSIndication,
    TransportAddress,
)
from repro.transport.primitives import (
    TRenegotiateConfirm,
    TRenegotiateRequest,
)
from repro.transport.service import ConnectionRefused, TransportService


def main() -> None:
    bed = Testbed(seed=21, sample_period=0.5)
    bed.host("sender")
    bed.host("receiver")
    bed.link("sender", "receiver", 10e6, prop_delay=0.004,
             loss=BernoulliLoss(0.08))
    bed.up()

    service = TransportService(bed.entities["sender"])
    peer = TransportService(bed.entities["receiver"])
    binding = service.bind(1)
    peer.listen(1)

    def driver():
        # 1. Negotiation clamps to what the route can offer.
        generous = QoSSpec.simple(
            30e6, delay_s=0.05, per=0.5, ber=0.5,
            max_osdu_bytes=1000, slack=8.0,
        )
        endpoint = yield from service.connect(
            binding, TransportAddress("receiver", 1), generous
        )
        contract = endpoint.contract
        print(f"asked for 30 Mbit/s preferred (3.75 acceptable); "
              f"network offered and contract fixed at "
              f"{contract.throughput_bps/1e6:.2f} Mbit/s")

        # 2. Impossible demands are refused with a reason.
        try:
            yield from service.connect(
                binding, TransportAddress("receiver", 1),
                QoSSpec.simple(50e6, slack=1.01, max_osdu_bytes=1000),
            )
        except ConnectionRefused as exc:
            print(f"hopeless request refused: {exc.reason}")

        # 3. Stream data over the lossy link; the contract tolerates
        #    only 2% loss, the link delivers ~8% -> degradation reports.
        recv_vc = bed.entities["receiver"].recv_vcs[endpoint.vc_id]
        recv_vc.contract = replace(recv_vc.contract, packet_error_rate=0.02)

        def producer():
            for i in range(4000):
                yield from endpoint.write(OSDU(size_bytes=1000, payload=i))

        def consumer():
            recv_endpoint = bed.entities["receiver"].endpoint_for(
                endpoint.vc_id
            )
            while True:
                yield from recv_endpoint.read()

        bed.spawn(producer())
        bed.spawn(consumer())

        reports = 0
        while reports < 3:
            primitive = yield binding.next_primitive()
            if isinstance(primitive, TQoSIndication):
                reports += 1
                worst = primitive.violations[0]
                print(
                    f"T-QoS.indication #{reports}: over "
                    f"{primitive.sample_period:.1f} s, "
                    f"{worst.parameter} contracted {worst.contracted:.3g} "
                    f"but observed {worst.observed:.3g}"
                )

        # 4. React: renegotiate the packet-error tolerance up (accept
        #    the lossy path) rather than tear the VC down.
        relaxed = QoSSpec.simple(
            contract.throughput_bps, per=0.25, ber=0.5,
            max_osdu_bytes=1000, slack=4.0,
        )
        bed.entities["sender"].request(
            TRenegotiateRequest(
                initiator=binding.address,
                src=binding.address,
                dst=TransportAddress("receiver", 1),
                new_qos=relaxed,
                vc_id=endpoint.vc_id,
            )
        )
        while True:
            primitive = yield binding.next_primitive()
            if isinstance(primitive, TRenegotiateConfirm):
                print(
                    f"renegotiated: packet-error tolerance now "
                    f"{primitive.contract.packet_error_rate:.2f}; the VC "
                    f"carried on without teardown"
                )
                break

    bed.spawn(driver())
    bed.run(40.0)


if __name__ == "__main__":
    main()
