"""Property-based tests on the simulation kernel (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.sim.clock import NodeClock
from repro.sim.scheduler import Simulator, Timer
from repro.sim.sync import Queue, Semaphore


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=100, deadline=None)
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.call_after(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=50, deadline=None)
def test_process_timeouts_accumulate_exactly(delays):
    sim = Simulator()

    def coro():
        for d in delays:
            yield Timer(sim).after(d)
        return sim.now

    proc = sim.spawn(coro())
    sim.run()
    assert abs(proc.finished.value - sum(delays)) < 1e-6 * max(1.0, sum(delays))


@given(
    initial=st.integers(min_value=0, max_value=5),
    acquires=st.integers(min_value=0, max_value=20),
    releases=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=100, deadline=None)
def test_semaphore_conservation(initial, acquires, releases):
    """Grants never exceed initial value plus releases."""
    sim = Simulator()
    sem = Semaphore(sim, initial)
    grants = []

    def acquirer(i):
        yield sem.acquire()
        grants.append(i)

    for i in range(acquires):
        sim.spawn(acquirer(i))
    for i in range(releases):
        sim.call_after(float(i + 1), sem.release)
    sim.run()
    assert len(grants) == min(acquires, initial + releases)
    # FIFO granting.
    assert grants == sorted(grants)


@given(
    items=st.lists(st.integers(), min_size=0, max_size=30),
    capacity=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=100, deadline=None)
def test_bounded_queue_preserves_order_and_items(items, capacity):
    sim = Simulator()
    q = Queue(sim, capacity=capacity)
    received = []

    def producer():
        for item in items:
            yield q.put(item)

    def consumer():
        for _ in items:
            received.append((yield q.get()))

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert received == items


@given(
    skew=st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False),
    offset=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    t=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_clock_conversion_roundtrip(skew, offset, t):
    sim = Simulator()
    clock = NodeClock(sim, skew_ppm=skew, offset=offset)
    assert abs(clock.to_sim(clock.to_local(t)) - t) < 1e-6 * max(1.0, abs(t))
