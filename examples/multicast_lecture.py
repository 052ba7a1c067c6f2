#!/usr/bin/env python3
"""A multicast lecture: one stored audio stream to many booths.

Demonstrates the §3.8/§7 extension: a 1:N multicast CM connection over
the source-rooted tree, compared live against N unicast VCs on the same
topology.  The shared uplink reserves the stream once, the slowest
receiver's credits pace the whole group, and a lossy branch is repaired
unicast without re-flooding the tree.

Run:  python examples/multicast_lecture.py
"""

from repro.apps import Testbed
from repro.netsim import BernoulliLoss
from repro.transport import QoSSpec, TransportAddress
from repro.transport.multicast import create_multicast
from repro.transport.osdu import OSDU
from repro.transport.profiles import ClassOfService


def main() -> None:
    booths = 6
    bed = Testbed(seed=13)
    bed.host("lecturer")
    bed.router("campus")
    bed.link("lecturer", "campus", 10e6, prop_delay=0.003)
    for i in range(booths):
        bed.host(f"booth{i}")
        bed.link("campus", f"booth{i}", 10e6, prop_delay=0.002,
                 loss=BernoulliLoss(0.08) if i == booths - 1 else None)
    bed.up()

    qos = QoSSpec.simple(1.5e6, max_osdu_bytes=1000, per=0.5, ber=0.5)
    group = create_multicast(
        bed.entities,
        TransportAddress("lecturer", 1),
        [TransportAddress(f"booth{i}", 1) for i in range(booths)],
        qos,
        cos=ClassOfService.detect_and_correct(),
    )
    uplink = bed.network.link_between("lecturer", "campus")
    print(f"group {group.vc_id}: {booths} booths, uplink reserves "
          f"{bed.reservations.committed_bps(uplink)/1e6:.1f} Mbit/s "
          f"(one stream, not {booths})")

    received = {i: [] for i in range(booths)}

    def producer():
        for n in range(300):
            yield from group.send_endpoint.write(
                OSDU(size_bytes=800, payload=n)
            )

    def consumer(i):
        def proc():
            endpoint = group.recv_endpoints[f"booth{i}"]
            while True:
                osdu = yield from endpoint.read()
                received[i].append(osdu.payload)
        return proc

    bed.spawn(producer())
    for i in range(booths):
        bed.spawn(consumer(i)())
    bed.run(30.0)

    uplink_copies = uplink.stats.sent_packets
    for i in range(booths):
        holes = 300 - len(received[i])
        print(f"booth{i}: {len(received[i])}/300 units "
              f"({'lossy branch, repaired unicast' if i == booths - 1 else 'clean'}"
              f"{f', {holes} unrecovered' if holes else ''})")
    print(f"uplink carried {uplink_copies} packets for "
          f"{booths}x300 deliveries; repairs sent: "
          f"{group.send_vc.retransmit_count} (unicast, lossy branch only)")


if __name__ == "__main__":
    main()
