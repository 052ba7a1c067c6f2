"""E13 -- section 3.7: the shared circular-buffer data-transfer interface.

The paper rejects per-unit ``send()``/``recv()`` calls because every
call re-specifies synchronisation, location, and copies the data.
This is the one experiment that is about *implementation* cost rather
than protocol behaviour, so it is measured in real (wall-clock) time
as a micro-benchmark of the two interface styles:

- **shared-buffer**: OSDU references pass through
  :class:`SharedCircularBuffer`; no payload copies.
- **per-call copy** (emulated Berkeley-sockets style): every transfer
  copies the payload into "system space" and back out.

Expected shape: the shared-buffer path avoids both copies, so its
per-OSDU cost is flat in payload size while the copy interface scales
linearly -- the crossover argument of [Govindan,91].
"""

import pytest

from repro.core import Runtime
from repro.sim.sync import TimedSemaphore
from repro.transport.buffers import SharedCircularBuffer
from repro.transport.osdu import OSDU
from repro.metrics.table import Table

from benchmarks.common import emit

UNITS = 2000


def shared_buffer_path(payload_bytes: int) -> None:
    sim = Runtime().sim
    buffer = SharedCircularBuffer(sim, 16)
    payload = bytes(payload_bytes)
    received = []

    def producer():
        for i in range(UNITS):
            yield from buffer.put(OSDU(size_bytes=payload_bytes,
                                       payload=payload))

    def consumer():
        for _ in range(UNITS):
            osdu = yield from buffer.get()
            received.append(osdu.payload)  # reference, no copy

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert len(received) == UNITS


def per_call_copy_path(payload_bytes: int) -> None:
    """Emulated send()/recv(): a copy into and out of 'system space'.

    ``bytes(b)`` is a no-op on an existing bytes object in CPython, so
    genuine copies are forced with ``bytearray``/slicing.
    """
    sim = Runtime().sim
    system_space = []
    space = TimedSemaphore(sim, 16)
    items = TimedSemaphore(sim, 0)
    payload = bytes(payload_bytes)
    received = []

    def producer():
        for i in range(UNITS):
            yield space.acquire("app")
            kernel_buffer = bytearray(payload)          # copy in
            system_space.append(
                OSDU(size_bytes=payload_bytes, payload=kernel_buffer)
            )
            items.release()

    def consumer():
        for _ in range(UNITS):
            yield items.acquire("app")
            osdu = system_space.pop(0)
            received.append(bytes(osdu.payload))        # copy out
            space.release()

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert len(received) == UNITS


@pytest.mark.benchmark(group="e13-shared")
@pytest.mark.parametrize("payload", [256, 4096, 65536])
def test_e13_shared_buffer(benchmark, payload):
    benchmark(shared_buffer_path, payload)


@pytest.mark.benchmark(group="e13-copy")
@pytest.mark.parametrize("payload", [256, 4096, 65536])
def test_e13_per_call_copy(benchmark, payload):
    benchmark(per_call_copy_path, payload)


def test_e13_summary_table(benchmark):
    """One-shot comparison table persisted alongside the timings."""
    import gc
    import time

    table = Table(
        ["payload (B)", "shared-buffer (us/OSDU)", "per-call copy (us/OSDU)",
         "copy overhead"],
        title=f"E13: data-transfer interface cost ({UNITS} OSDUs, "
              f"wall-clock)",
    )
    rows = []
    for payload in (256, 4096, 65536):
        # One-shot timings: collect first, or a full collection of the
        # test runner's heap lands inside whichever cell is due for it.
        gc.collect()
        start = time.perf_counter()
        shared_buffer_path(payload)
        shared = (time.perf_counter() - start) / UNITS * 1e6
        gc.collect()
        start = time.perf_counter()
        per_call_copy_path(payload)
        copied = (time.perf_counter() - start) / UNITS * 1e6
        rows.append((payload, shared, copied))
        table.add(payload, shared, copied, f"{copied / shared:.2f}x")
    emit("e13_buffer_interface", [table])
    benchmark(shared_buffer_path, 4096)
    # The copy interface's cost grows with payload; shared stays flat.
    shared_growth = rows[-1][1] / rows[0][1]
    copy_growth = rows[-1][2] / rows[0][2]
    assert copy_growth > shared_growth
