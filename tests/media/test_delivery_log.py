"""The sink's columnar delivery log against a plain list of records."""

import gc
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.lipsync import _position_series
from repro.media.sink import DeliveryRecord, PlayoutSink
from repro.sim.clock import NodeClock
from repro.sim.scheduler import Event, Simulator, Timer
from repro.sim.sync import Queue
from repro.transport.osdu import OPDU, OSDU

RATE = 25.0


class FeedEndpoint:
    """A receive endpoint that hands the sink scripted units.

    ``units`` is a list of ``(gap, osdu)``: each read waits ``gap``
    seconds (not at all when it is 0, so deliveries can tie) and
    returns ``osdu``.  ``reference`` collects the record a list-backed
    sink would have appended at that instant.
    """

    kind = "recv"
    vc_id = "feed"

    def __init__(self, sim, clock, units):
        self.sim = sim
        self.clock = clock
        self.units = iter(units)
        self.reference = []
        self._timer = Timer(sim)
        self._orch = Queue(sim)

    def read(self):
        for gap, osdu in self.units:
            if gap > 0:
                yield self._timer.after(gap)
            self.reference.append(DeliveryRecord(
                seq=osdu.seq,
                media_time=(osdu.media_time if osdu.media_time is not None
                            else osdu.seq / RATE),
                delivered_at=self.sim.now,
                local_time=self.clock.now(),
                created_at=osdu.created_at,
            ))
            return osdu
        yield Event(self.sim)  # the feed is dry: park for good

    def next_orch(self):
        return self._orch.get()


def gated_sink(units):
    """A gated sink on a feed of ``units``, not yet run."""
    sim = Simulator()
    clock = NodeClock(sim, skew_ppm=150.0, offset=0.25)
    feed = FeedEndpoint(sim, clock, units)
    return PlayoutSink(sim, feed, RATE, clock, mode="gated"), feed.reference


def run_sink(units):
    sink, reference = gated_sink(units)
    sink.sim.run(until=1e6)
    return sink, reference


def linear_position(records, t):
    """The sink's position lookup as a scan over a record list."""
    position = 0.0
    for record in records:
        if record.delivered_at > t:
            break
        position = record.media_time
    return position


def binary_position(records, t):
    """The lip-sync step function as a hand-written binary search."""
    times = [r.delivered_at for r in records]
    lo, hi = 0, len(times)
    while lo < hi:
        mid = (lo + hi) // 2
        if times[mid] <= t:
            lo = mid + 1
        else:
            hi = mid
    return records[lo - 1].media_time if lo > 0 else 0.0


unit = st.tuples(
    # Zero gaps tie delivery instants.
    st.sampled_from([0.0, 0.0, 0.001, 0.04, 0.5]),
    st.one_of(st.none(), st.floats(0.0, 1e4)),           # media_time
    st.one_of(st.none(), st.floats(-1.0, 1e4)),          # created_at
)


@settings(max_examples=150, deadline=None)
@given(st.lists(unit, max_size=40), st.data())
def test_log_reads_as_the_record_list(spec, data):
    units = [
        (gap, OSDU(size_bytes=1, opdu=OPDU(seq), media_time=media_time,
                   created_at=created_at))
        for seq, (gap, media_time, created_at) in enumerate(spec)
    ]
    sink, reference = run_sink(units)
    records = sink.records

    assert list(records) == reference
    assert len(records) == len(reference) == sink.presented
    assert bool(records) == bool(reference)
    for i in range(-len(reference), len(reference)):
        assert records[i] == reference[i]
    n = len(reference)
    start = data.draw(st.integers(-n - 2, n + 2))
    stop = data.draw(st.integers(-n - 2, n + 2))
    assert records[start:stop] == reference[start:stop]
    assert records[::-1] == reference[::-1]
    assert sink.last_media_time() == (
        reference[-1].media_time if reference else 0.0
    )

    times = sorted({r.delivered_at for r in reference})
    probes = [-1.0, 1e7] + times
    probes += [t - 1e-9 for t in times] + [t + 1e-9 for t in times]
    probes += [(a + b) / 2 for a, b in zip(times, times[1:])]
    series = _position_series(records)
    for t in probes:
        expected = linear_position(reference, t)
        assert binary_position(reference, t) == expected
        assert sink.media_position_at(t) == expected
        assert series(t) == expected


def test_log_is_read_only():
    sink, _ = run_sink([])
    assert not hasattr(sink.records, "append")
    assert not sink.records and sink.last_media_time() == 0.0


def test_retained_bytes_per_presented_osdu():
    """A presented unit costs its five column entries, not an object."""
    n = 2_400
    units = [
        (0.001, OSDU(size_bytes=1, opdu=OPDU(seq), media_time=seq / RATE,
                     created_at=seq * 0.001))
        for seq in range(n)
    ]
    sink, reference = gated_sink(units)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sink.sim.run(until=1e6)
        reference.clear()  # the test's own copy, not the sink's
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sink.presented == n
    # A frozen record per unit retained ~170 B here (~250 B in film_orch).
    assert retained / n <= 64, f"{retained / n:.1f} B per presented OSDU"
