"""E15 -- sections 3.8/7 extension: 1:N multicast vs N unicast VCs.

The paper defers multicast but names its requirements: group
addressing in the transport, distribution in the subsystem.  This
experiment quantifies why that matters for CM fan-out (the language
laboratory's distribution pattern): the same 2 Mbit/s stream is
delivered to N workstations either as N independent unicast VCs or as
one multicast VC over the source-rooted tree.

Expected shape: unicast consumes N x rate on the shared uplink and is
refused once N x rate exceeds the reservable capacity; multicast
consumes one rate regardless of N, with identical per-sink delivery.
"""

import pytest

from repro.apps.testbed import Testbed
from repro.metrics.table import Table
from repro.transport.addresses import TransportAddress
from repro.transport.multicast import create_multicast
from repro.transport.osdu import OSDU
from repro.transport.qos import QoSSpec
from repro.transport.service import ConnectionRefused, connect_pair

from benchmarks.common import emit, once

RATE = 2e6
UNITS = 50


def star(n, seed=71):
    bed = Testbed(seed=seed)
    bed.host("src")
    bed.router("r")
    bed.link("src", "r", 10e6, prop_delay=0.002)
    for i in range(n):
        bed.host(f"sink{i}")
        bed.link("r", f"sink{i}", 10e6, prop_delay=0.002)
    return bed.up()


def qos():
    return QoSSpec.simple(RATE, slack=1.0, max_osdu_bytes=1000, per=0.5,
                          ber=0.5)


def run_unicast(n):
    bed = star(n)
    sends, recvs = [], []
    refused = 0
    for i in range(n):
        try:
            send, recv = connect_pair(
                bed.sim, bed.entities,
                TransportAddress("src", 10 + i),
                TransportAddress(f"sink{i}", 1),
                qos(),
            )
            sends.append(send)
            recvs.append(recv)
        except ConnectionRefused:
            refused += 1
    received = [[] for _ in recvs]

    def producer(send):
        def proc():
            for i in range(UNITS):
                yield from send.write(OSDU(size_bytes=500, payload=i))
        return proc

    def consumer(recv, out):
        def proc():
            while True:
                osdu = yield from recv.read()
                out.append(osdu.payload)
        return proc

    uplink = bed.network.link_between("src", "r")
    before_bits = uplink.stats.sent_bits
    for send in sends:
        bed.spawn(producer(send)())
    for recv, out in zip(recvs, received):
        bed.spawn(consumer(recv, out)())
    bed.run(20.0)
    complete = sum(1 for out in received if out == list(range(UNITS)))
    reserved = bed.reservations.committed_bps(uplink)
    return {
        "established": len(sends),
        "refused": refused,
        "complete": complete,
        "uplink_reserved": reserved,
        "uplink_bits": uplink.stats.sent_bits - before_bits,
    }


def run_multicast(n):
    bed = star(n)
    try:
        group = create_multicast(
            bed.entities, TransportAddress("src", 1),
            [TransportAddress(f"sink{i}", 1) for i in range(n)],
            qos(),
        )
    except ConnectionRefused:
        return {"established": 0, "refused": n, "complete": 0,
                "uplink_reserved": 0.0, "uplink_bits": 0}
    received = [[] for _ in range(n)]

    def producer():
        for i in range(UNITS):
            yield from group.send_endpoint.write(
                OSDU(size_bytes=500, payload=i)
            )

    def consumer(i):
        def proc():
            endpoint = group.recv_endpoints[f"sink{i}"]
            while True:
                osdu = yield from endpoint.read()
                received[i].append(osdu.payload)
        return proc

    uplink = bed.network.link_between("src", "r")
    before_bits = uplink.stats.sent_bits
    bed.spawn(producer())
    for i in range(n):
        bed.spawn(consumer(i)())
    bed.run(20.0)
    complete = sum(1 for out in received if out == list(range(UNITS)))
    return {
        "established": n,
        "refused": 0,
        "complete": complete,
        "uplink_reserved": bed.reservations.committed_bps(uplink),
        "uplink_bits": uplink.stats.sent_bits - before_bits,
    }


def run_experiment():
    table = Table(
        ["sinks", "design", "VCs admitted", "sinks fully served",
         "uplink reserved (Mbit/s)", "uplink data sent (Mbit)"],
        title=f"E15: fan-out of one {RATE/1e6:.0f} Mbit/s stream "
              f"(10 Mbit/s uplink, 90% reservable)",
    )
    results = {}
    for n in (2, 4, 8):
        uni = run_unicast(n)
        multi = run_multicast(n)
        results[n] = (uni, multi)
        table.add(n, "N unicast VCs", uni["established"], uni["complete"],
                  uni["uplink_reserved"] / 1e6, uni["uplink_bits"] / 1e6)
        table.add(n, "1:N multicast", multi["established"],
                  multi["complete"], multi["uplink_reserved"] / 1e6,
                  multi["uplink_bits"] / 1e6)
    return [table], results


@pytest.mark.benchmark(group="e15")
def test_e15_multicast(benchmark):
    tables, results = once(benchmark, run_experiment)
    emit("e15_multicast", tables)
    # Unicast saturates the 9 Mbit/s reservable uplink at N=8 (only 4
    # VCs fit); multicast always serves everyone with one reservation.
    uni8, multi8 = results[8]
    assert uni8["refused"] > 0
    assert multi8["complete"] == 8
    assert multi8["uplink_reserved"] == pytest.approx(RATE)
    # Uplink data scales with admitted unicast VCs but is flat for
    # multicast.
    uni2, multi2 = results[2]
    assert uni2["uplink_bits"] > 1.8 * multi2["uplink_bits"]
