"""The metered sink by schedule paces exactly as the per-tick process did.

A regulation interval (section 6.3.1.1) used to run one process per
VC that woke at every tick, granted one credit on the receive buffer's
credit semaphore unless the sink had already reached the tick's pace
line, and -- behind target with an empty buffer -- spent one unit of
the drop budget.  The LLO now hands the gate one
:class:`~repro.transport.buffers.MeterSchedule` per interval and the
reader replays the ticks itself.  That loop and that credit semaphore
are kept here as ``ref_interval`` and ``RefGatedReceiveBuffer``, the
model the new path must reproduce: random intervals, clock skews, a
clock step mid-interval, deposit times with sequence gaps, drop
budgets and a gate closed (Orch.Stop) mid-interval leave the same take
log, the same drop-request instants, the same blocked-time floats and
the same end-of-interval report on both.
"""

from __future__ import annotations

from collections import deque

from hypothesis import example, given, settings, strategies as st

from repro.orchestration.llo import meter_interval
from repro.sim.clock import NodeClock
from repro.sim.scheduler import Simulator, Timer
from repro.sim.sync import TimedSemaphore
from repro.transport.buffers import GatedReceiveBuffer, ROLE_APPLICATION
from repro.transport.osdu import OPDU, OSDU

CAPACITY = 8
START = 0.05  # when the interval starts


class RefGatedReceiveBuffer:
    """The gate before schedules: a credit semaphore the LLO released
    once per tick (only the parts one interval exercises)."""

    def __init__(self, sim, capacity):
        self.sim = sim
        self.capacity = capacity
        self._slots = deque()
        self._items = TimedSemaphore(sim, 0)
        self._credits = TimedSemaphore(sim, 0)
        self._metered = False
        self._open = True
        self.last_delivered_seq = None

    def __len__(self):
        return len(self._slots)

    def deposit(self, osdu):
        if len(self._slots) >= self.capacity:
            return False
        self._slots.append(osdu)
        self._items.release()
        return True

    def close_gate(self):
        self._open = False
        self._metered = False
        self._drain_credits()

    def meter(self):
        self._open = False
        self._metered = True
        self._drain_credits()

    def grant(self, n=1):
        if not self._metered:
            return
        for _ in range(n):
            self._credits.release()

    def _drain_credits(self):
        while self._credits.try_acquire():
            pass

    def take(self, role=ROLE_APPLICATION):
        while True:
            if not self._open:
                yield self._credits.acquire(role)
                yield self._items.acquire(role)
                break
            yield self._items.acquire(role)
            if self._open:
                break
            self._items.release()
        osdu = self._slots.popleft()
        self.last_delivered_seq = osdu.opdu.osdu_seq
        return osdu

    def blocked_time(self, role):
        return self._items.blocked_time(role) + self._credits.blocked_time(role)


class VC:
    """The slice of ``RecvVC`` an interval drives."""

    def __init__(self, buffer):
        self.buffer = buffer

    def meter_gate(self):
        self.buffer.meter()

    def grant(self, what):
        self.buffer.grant(what)

    def delivered_seq(self):
        seq = self.buffer.last_delivered_seq
        return -1 if seq is None else seq


def ref_interval(sim, clock, recv_vc, target_osdu, max_drop, interval_length,
                 request_drop):
    """The per-tick interval loop the schedule replaced."""
    recv_vc.meter_gate()
    start_seq = recv_vc.delivered_seq()
    n_due = max(0, target_osdu - start_seq)
    drops_requested = 0
    interval_start_local = clock.now()
    pace = Timer(sim)
    for k in range(1, n_due + 1):
        tick_local = interval_start_local + interval_length * k / n_due
        remaining_local = tick_local - clock.now()
        if remaining_local > 0:
            yield pace.after(clock.sim_duration(remaining_local))
        if recv_vc.delivered_seq() >= start_seq + k:
            continue
        if len(recv_vc.buffer) == 0 and drops_requested < max_drop:
            drops_requested += 1
            request_drop()
        recv_vc.grant(1)
    end_local = interval_start_local + interval_length
    remaining_local = end_local - clock.now()
    if remaining_local > 0:
        yield pace.after(clock.sim_duration(remaining_local))
    return start_seq, drops_requested


def play(reference, n_due, length, skew_ppm, clock_change, deposits,
         max_drop, close_at):
    """One interval on a gated buffer; returns everything observable."""
    sim = Simulator()
    clock = NodeClock(sim, skew_ppm=skew_ppm)
    buffer = (RefGatedReceiveBuffer if reference else GatedReceiveBuffer)(
        sim, CAPACITY)
    vc = VC(buffer)
    log = []
    buffer.meter()

    def reader():
        while True:
            osdu = yield from buffer.take()
            log.append(("take", sim.now, osdu.opdu.osdu_seq))

    def interval():
        yield Timer(sim).after(START)
        target = vc.delivered_seq() + n_due

        def request_drop():
            log.append(("drop", sim.now))

        if reference:
            body = ref_interval(sim, clock, vc, target, max_drop, length,
                                request_drop)
        else:
            body = meter_interval(clock, vc, target, max_drop, length,
                                  request_drop)
        start_seq, drops = yield from body
        log.append(("end", sim.now, start_seq, drops, vc.delivered_seq(),
                    len(buffer)))

    sim.spawn(reader())
    sim.spawn(interval())
    seq = 0
    for when, gap in deposits:
        seq += gap
        sim.call_at(when, lambda seq=seq: buffer.deposit(
            OSDU(size_bytes=10, payload=seq, opdu=OPDU(seq))))
    if clock_change is not None:
        when, kind, amount = clock_change
        if kind == "adjust":
            sim.call_at(START + when * length, lambda: clock.adjust(amount))
        else:
            sim.call_at(START + when * length,
                        lambda: clock.set_skew_ppm(amount))
    if close_at is not None:
        sim.call_at(START + close_at * length, buffer.close_gate)
    sim.run(until=START + 2 * length)
    log.append(("blocked", repr(buffer.blocked_time(ROLE_APPLICATION))))
    return log


_deposits = st.lists(
    st.tuples(st.floats(0.0, 0.8), st.integers(1, 3)), max_size=80,
).map(sorted)
# Where in the interval a clock change or a stop lands.  Quarters fall
# on a tick's own instant when the clock is exact and n_due is a
# multiple of four.
_fraction = st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(0.01, 0.99))
_clock_change = st.one_of(
    st.none(),
    st.tuples(_fraction, st.just("adjust"), st.floats(-0.05, 0.05)),
    st.tuples(_fraction, st.just("skew"), st.floats(-300, 300)),
)


@given(
    n_due=st.integers(0, 60),
    length=st.floats(0.05, 0.5),
    skew_ppm=st.one_of(st.just(0.0), st.floats(-200, 200)),
    clock_change=_clock_change,
    deposits=_deposits,
    max_drop=st.integers(0, 3),
    close_at=st.one_of(st.none(), _fraction),
)
@settings(max_examples=300, deadline=None)
# Primed: a full buffer drained one unit per tick.
@example(n_due=10, length=0.2, skew_ppm=50.0, clock_change=None,
         deposits=[(0.0, 1)] * 8, max_drop=0, close_at=None)
# Starved: ticks find the buffer empty and spend the drop budget.
@example(n_due=20, length=0.2, skew_ppm=-80.0, clock_change=None,
         deposits=[(0.1, 1), (0.2, 1)], max_drop=3, close_at=None)
# Source drops: sequence gaps put the sink ahead of pace.
@example(n_due=12, length=0.3, skew_ppm=0.0, clock_change=None,
         deposits=[(0.0, 3)] * 6 + [(0.2, 1)] * 6, max_drop=1, close_at=None)
# A clock step mid-interval, and a stop mid-interval.
@example(n_due=30, length=0.25, skew_ppm=120.0,
         clock_change=(0.4, "adjust", 0.02),
         deposits=[(0.01 * i, 1) for i in range(40)], max_drop=2,
         close_at=None)
@example(n_due=30, length=0.25, skew_ppm=120.0,
         clock_change=(0.6, "skew", -150.0),
         deposits=[(0.01 * i, 1) for i in range(40)], max_drop=2,
         close_at=0.5)
# A clock step, and a stop, in a tick's own instant: both were
# scheduled before the tick's wake-up was armed, so they come first.
@example(n_due=2, length=0.5, skew_ppm=0.0,
         clock_change=(0.5, "adjust", 0.03125), deposits=[], max_drop=0,
         close_at=None)
@example(n_due=2, length=0.5, skew_ppm=0.0, clock_change=None,
         deposits=[(0.0, 1)] * 8, max_drop=0, close_at=0.5)
def test_schedule_meters_as_the_per_tick_loop(n_due, length, skew_ppm,
                                               clock_change, deposits,
                                               max_drop, close_at):
    new = play(False, n_due, length, skew_ppm, clock_change, deposits,
               max_drop, close_at)
    reference = play(True, n_due, length, skew_ppm, clock_change, deposits,
                     max_drop, close_at)
    assert new == reference
