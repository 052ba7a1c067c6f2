"""Tests for semaphores, timed semaphores and queues."""

from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs.registry import SpanAccumulator
from repro.sim.scheduler import (
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    Timer,
)
from repro.sim.sync import Queue, QueueFull, Semaphore, TimedSemaphore


def seq_count(sim) -> int:
    """Timers armed so far (as ``perf.harness.seq_count`` reads it)."""
    return int(repr(sim._seq)[6:-1])


class TestSemaphore:
    def test_immediate_acquire_when_available(self, sim):
        sem = Semaphore(sim, 2)

        def coro():
            yield sem.acquire()
            return sim.now

        proc = sim.spawn(coro())
        sim.run()
        assert proc.finished.value == 0.0
        assert sem.value == 1

    def test_acquire_blocks_until_release(self, sim):
        sem = Semaphore(sim, 0)

        def coro():
            yield sem.acquire()
            return sim.now

        proc = sim.spawn(coro())
        sim.call_after(2.0, sem.release)
        sim.run()
        assert proc.finished.value == 2.0

    def test_fifo_wakeup_order(self, sim):
        sem = Semaphore(sim, 0)
        order = []

        def coro(name):
            yield sem.acquire()
            order.append(name)

        sim.spawn(coro("first"))
        sim.spawn(coro("second"))
        sim.call_after(1.0, sem.release)
        sim.call_after(2.0, sem.release)
        sim.run()
        assert order == ["first", "second"]

    def test_release_with_no_waiters_increments(self, sim):
        sem = Semaphore(sim, 0)
        sem.release()
        assert sem.value == 1

    def test_try_acquire(self, sim):
        sem = Semaphore(sim, 1)
        assert sem.try_acquire()
        assert not sem.try_acquire()

    def test_try_acquire_respects_waiters(self, sim):
        # A queued waiter must get the unit before any try_acquire.
        sem = Semaphore(sim, 0)
        got = []

        def coro():
            yield sem.acquire()
            got.append(sim.now)

        sim.spawn(coro())
        sim.run()
        sem.release()
        assert not sem.try_acquire()
        sim.run()
        assert got

    def test_negative_initial_value_rejected(self, sim):
        with pytest.raises(SimulationError):
            Semaphore(sim, -1)

    def test_waiting_count(self, sim):
        sem = Semaphore(sim, 0)

        def coro():
            yield sem.acquire()

        sim.spawn(coro())
        sim.spawn(coro())
        sim.run()
        assert sem.waiting == 2


class TestTimedSemaphore:
    def test_no_blocking_time_when_available(self, sim):
        sem = TimedSemaphore(sim, 1)

        def coro():
            yield sem.acquire("app")

        sim.spawn(coro())
        sim.run()
        assert sem.blocked_time("app") == 0.0

    def test_blocking_time_accumulates(self, sim):
        sem = TimedSemaphore(sim, 0)

        def coro():
            yield sem.acquire("app")
            yield sem.acquire("app")

        sim.spawn(coro())
        sim.call_after(1.0, sem.release)
        sim.call_after(4.0, sem.release)
        sim.run()
        assert sem.blocked_time("app") == pytest.approx(4.0)

    def test_roles_tracked_independently(self, sim):
        sem = TimedSemaphore(sim, 0)

        def coro(role):
            yield sem.acquire(role)

        sim.spawn(coro("app"))
        sim.spawn(coro("proto"))
        sim.call_after(1.0, sem.release)
        sim.call_after(3.0, sem.release)
        sim.run()
        assert sem.blocked_time("app") == pytest.approx(1.0)
        assert sem.blocked_time("proto") == pytest.approx(3.0)

    def test_reset_stats(self, sim):
        sem = TimedSemaphore(sim, 0)

        def coro():
            yield sem.acquire("app")

        sim.spawn(coro())
        sim.call_after(2.0, sem.release)
        sim.run()
        sem.reset_stats()
        assert sem.blocked_time("app") == 0.0
        assert sem.acquire_count("app") == 0

    def test_acquire_count(self, sim):
        sem = TimedSemaphore(sim, 5)

        def coro():
            for _ in range(3):
                yield sem.acquire("app")

        sim.spawn(coro())
        sim.run()
        assert sem.acquire_count("app") == 3


@pytest.mark.parametrize("cls", [Semaphore, TimedSemaphore])
class TestOneEventPerGrant:
    """A grant is one scheduler event, blocked or not; never inline."""

    def test_uncontended_acquire_arms_one_event(self, sim, cls):
        sem = cls(sim, 1)
        marks = []

        def coro():
            marks.append(seq_count(sim))
            yield sem.acquire()
            marks.append(seq_count(sim))

        sim.spawn(coro())
        sim.run()
        assert marks[1] - marks[0] == 1

    def test_contended_acquire_arms_one_event_after_release(self, sim, cls):
        sem = cls(sim, 0)
        marks = []

        def coro():
            yield sem.acquire()
            marks.append(seq_count(sim))

        sim.spawn(coro())
        sim.run()
        parked = seq_count(sim)
        sem.release()
        assert marks == []  # resumed by the scheduler, not inside release()
        assert seq_count(sim) - parked == 1
        sim.run()
        assert marks == [parked + 1]


@pytest.mark.parametrize("cls", [Semaphore, TimedSemaphore])
class TestAbandonedWaiter:
    """A waiter that stops waiting must not be granted a unit."""

    def test_interrupted_waiter_leaves_the_queue(self, sim, cls):
        sem = cls(sim, 0)

        def coro():
            try:
                yield sem.acquire()
            except Interrupt:
                return "interrupted"

        proc = sim.spawn(coro())
        sim.run()
        assert sem.waiting == 1
        proc.interrupt()
        sim.run()
        assert proc.finished.value == "interrupted"
        assert sem.waiting == 0
        sem.release()
        assert sem.value == 1

    def test_anyof_timeout_leaves_the_queue(self, sim, cls):
        """An acquire that times out in a deadline wait withdraws."""
        sem = cls(sim, 0)

        def coro():
            fired, _value = yield sem.acquire().within(1.0)
            return fired

        proc = sim.spawn(coro())
        sim.run()
        assert proc.finished.value is False
        assert sem.waiting == 0
        sem.release()
        assert sem.value == 1

    def test_next_waiter_gets_the_unit(self, sim, cls):
        sem = cls(sim, 0)
        got = []

        def coro(name):
            try:
                yield sem.acquire()
            except Interrupt:
                return
            got.append((name, sim.now))

        first = sim.spawn(coro("first"))
        sim.spawn(coro("second"))
        sim.call_after(1.0, first.interrupt)
        sim.call_after(2.0, sem.release)
        sim.run()
        assert got == [("second", 2.0)]
        assert sem.value == 0 and sem.waiting == 0

    def test_interrupt_racing_a_grant(self, sim, cls):
        # interrupt() runs between release() and the resume: the process
        # gets its unit, parks on a second acquire, and the Interrupt
        # finds it there -- that second wait must be withdrawn too.
        sem = cls(sim, 0)
        got = []

        def coro():
            try:
                yield sem.acquire()
                got.append(sim.now)
                yield sem.acquire()
            except Interrupt:
                return "interrupted"

        proc = sim.spawn(coro())
        sim.call_at(1.0, sem.release)
        sim.call_at(1.0, proc.interrupt)
        sim.run()
        assert got == [1.0]
        assert proc.finished.value == "interrupted"
        assert sem.waiting == 0


class TestGrantInTheDeadlineInstant:
    """A set in the deadline's own instant, queued ahead of the deadline
    but woken behind it: the waiter times out, and what the set handed
    over goes back to its owner instead of to nobody."""

    @pytest.mark.parametrize("cls", [Semaphore, TimedSemaphore])
    def test_semaphore_unit_is_returned(self, sim, cls):
        sem = cls(sim, 0)
        got = []

        def racer():
            fired, _value = yield sem.acquire().within(1.0)
            return fired

        def later():
            yield Timer(sim).after(0.5)
            yield sem.acquire()
            got.append(sim.now)

        proc = sim.spawn(racer())
        sim.call_at(1.0, sem.release)  # queued before the deadline is armed
        sim.run(until=2.0)
        assert proc.finished.value is False
        assert sem.value == 1 and sem.waiting == 0
        sim.spawn(later())
        sim.run()
        assert got == [2.5]

    def test_semaphore_unit_goes_to_the_next_waiter(self, sim):
        sem = Semaphore(sim, 0)
        got = []

        def racer():
            fired, _value = yield sem.acquire().within(1.0)
            return fired

        def waiter():
            yield sem.acquire()
            got.append(sim.now)

        proc = sim.spawn(racer())
        sim.spawn(waiter())
        sim.call_at(1.0, sem.release)
        sim.run()
        assert proc.finished.value is False
        assert got == [1.0]
        assert sem.value == 0 and sem.waiting == 0

    def test_free_unit_raced_against_no_delay(self, sim):
        sem = Semaphore(sim, 1)

        def racer():
            fired, _value = yield sem.acquire().within(0.0)
            return fired

        proc = sim.spawn(racer())
        sim.run()
        assert proc.finished.value is False
        assert sem.value == 1

    def test_queue_item_goes_back_to_the_front(self, sim):
        q = Queue(sim)

        def racer():
            result = yield q.get().within(1.0)
            return result

        proc = sim.spawn(racer())
        sim.call_at(1.0, lambda: q.put_nowait("first"))
        sim.call_at(1.5, lambda: q.put_nowait("second"))
        sim.run()
        assert proc.finished.value == (False, None)
        assert [q.get_nowait(), q.get_nowait()] == ["first", "second"]

    def test_queue_item_goes_to_the_next_getter(self, sim):
        q = Queue(sim)
        got = []

        def racer():
            result = yield q.get().within(1.0)
            return result

        def getter():
            got.append((yield q.get()))

        proc = sim.spawn(racer())
        sim.spawn(getter())
        sim.call_at(1.0, lambda: q.put_nowait("item"))
        sim.run()
        assert proc.finished.value == (False, None)
        assert got == ["item"]
        assert len(q) == 0

    def test_bounded_queue_keeps_its_capacity(self, sim):
        """Capacity 1: the first put in the deadline's instant goes to
        the racer's get, the second fills the queue.  The refunded item
        goes back in front and the second waits as an admitted put."""
        q = Queue(sim, capacity=1)

        def racer():
            result = yield q.get().within(1.0)
            return result

        def two_puts():
            q.put_nowait("first")
            q.put_nowait("second")

        proc = sim.spawn(racer())
        sim.call_at(1.0, two_puts)
        sim.run()
        assert proc.finished.value == (False, None)
        assert len(q) == 1
        with pytest.raises(QueueFull):
            q.put_nowait("third")
        assert q.get_nowait() == "first"
        assert len(q) == 1
        assert q.get_nowait() == "second"
        assert len(q) == 0

    def test_no_delay_get_that_admitted_a_putter(self, sim):
        """A get with a free item admits the blocked putter at once; when
        its no-delay deadline wins, the item goes back in front and the
        queue stays within its capacity."""
        q = Queue(sim, capacity=1)
        q.put_nowait("first")
        put = []

        def putter():
            put.append((yield q.put("second")))

        def racer():
            result = yield q.get().within(0.0)
            return result

        sim.spawn(putter())
        sim.run()  # the putter waits: the queue is full
        proc = sim.spawn(racer())
        sim.run()
        assert proc.finished.value == (False, None)
        assert put == [None]
        assert len(q) == 1
        assert [q.get_nowait(), q.get_nowait()] == ["first", "second"]
        assert len(q) == 0


class TestAbandonedWaiterBlockedTime:
    def test_interrupt_closes_the_span(self, sim):
        sem = TimedSemaphore(sim, 0)

        def coro():
            yield sem.acquire("app")

        proc = sim.spawn(coro())
        sim.call_after(2.0, proc.interrupt)
        sim.run(until=5.0)
        assert sem.blocked_time("app") == 2.0

    def test_anyof_timeout_closes_the_span(self, sim):
        """An acquire that times out in a deadline wait stops accruing."""
        sem = TimedSemaphore(sim, 0)

        def coro():
            yield sem.acquire("app").within(1.5)

        sim.spawn(coro())
        sim.run(until=5.0)
        assert sem.blocked_time("app") == 1.5


# -- equivalence with the semaphore this one replaced -------------------------


class ReferenceEvent:
    """An event whose waiters are callbacks: ``set`` runs each through its
    own ``call_soon`` closure, as does a wait on an event already set."""

    def __init__(self, sim):
        self.sim = sim
        self._value = None
        self._is_set = False
        self._callbacks = []

    def set(self, value=None):
        self._is_set = True
        self._value = value
        for cb in self._callbacks:
            self.sim.call_soon(lambda cb=cb: cb(value))
        self._callbacks = []

    def _await(self, callback):
        if self._is_set:
            self.sim.call_soon(lambda: callback(self._value))
        else:
            self._callbacks.append(callback)


class ReferenceTimedSemaphore:
    """The two-``Event`` TimedSemaphore as it stood before the one-event
    grant: an inner event queued for the unit, an ``on_grant`` closure
    that closes the span, and an outer event the process waits on (two
    zero-delay scheduler events per acquire).  Kept here as the model
    the new class must reproduce.
    """

    def __init__(self, sim, value=1):
        self.sim = sim
        self._value = value
        self._waiters = deque()
        self._waits = SpanAccumulator("semaphore.blocked", lambda: sim.now)

    @property
    def value(self):
        return self._value

    @property
    def waiting(self):
        return len(self._waiters)

    def acquire(self, role="unknown"):
        token = self._waits.begin(role)
        inner = ReferenceEvent(self.sim)
        if self._value > 0 and not self._waiters:
            self._value -= 1
            inner.set(None)
        else:
            self._waiters.append(inner)
        outer = Event(self.sim)

        def on_grant(_value):
            self._waits.end(token)
            outer.set(None)

        inner._await(on_grant)
        return outer

    def release(self):
        if self._waiters:
            self._waiters.popleft().set(None)
        else:
            self._value += 1

    def blocked_time(self, role):
        return self._waits.total(role)

    def acquire_count(self, role):
        return self._waits.count(role)

    def reset_stats(self):
        self._waits.reset()


#: Schedule times are multiples of 2**-3 s, so every duration and every
#: sum of durations is exact in floating point: "identical" means ==.
TICK = 0.125
ROLES = ("application", "protocol")
HORIZON = 64

_steps = st.lists(
    st.tuples(st.integers(0, 4), st.sampled_from(["acquire", "release"])),
    max_size=8,
)
_processes = st.lists(
    st.tuples(st.sampled_from(ROLES), _steps), min_size=1, max_size=4
)
_timed = st.lists(
    st.tuples(
        st.integers(0, HORIZON - 1),
        st.sampled_from(["release", "reset", "sample"]),
    ),
    max_size=12,
)


def drive(cls, initial, processes, timed, interrupts=()):
    """Play one schedule against ``cls``; return (log, sim, sem).

    Each process walks its script of (delay, op) steps; ``timed``
    actions and ``interrupts`` fire from timers armed up front.  The log
    holds every grant (process, time) in resumption order and every
    sample of the statistics.
    """
    sim = Simulator()
    sem = cls(sim, initial)
    log = []

    def stats():
        return (
            sim.now, sem.value, sem.waiting,
            [(sem.blocked_time(r), sem.acquire_count(r)) for r in ROLES],
        )

    def body(index, role, steps):
        try:
            for delay, op in steps:
                if delay:
                    yield Timer(sim).after(delay * TICK)
                if op == "acquire":
                    log.append(("wait", index, sim.now))
                    yield sem.acquire(role)
                    log.append(("grant", index, sim.now))
                else:
                    log.append(("release", index, sim.now))
                    sem.release()
        except Interrupt:
            log.append(("interrupted", index, sim.now))

    def act(op):
        if op == "release":
            sem.release()
        elif op == "reset":
            sem.reset_stats()
        else:
            log.append(("sample",) + stats())

    procs = [
        sim.spawn(body(i, role, steps))
        for i, (role, steps) in enumerate(processes)
    ]
    for when, op in timed:
        sim.call_at(when * TICK, lambda op=op: act(op))
    for when, index in interrupts:
        sim.call_at(when * TICK, procs[index % len(procs)].interrupt)
    sim.run(until=HORIZON * TICK)
    log.append(("end",) + stats())
    return log, sim, sem


@given(initial=st.integers(0, 3), processes=_processes, timed=_timed)
@settings(max_examples=300, deadline=None)
def test_one_event_grant_matches_two_event_reference(initial, processes, timed):
    """Grant order and times, ``blocked_time`` and ``acquire_count`` per
    role, ``value`` and ``waiting`` -- sampled mid-run, across
    ``reset_stats`` and at the end -- are those of the old semaphore."""
    new_log = drive(TimedSemaphore, initial, processes, timed)[0]
    old_log = drive(ReferenceTimedSemaphore, initial, processes, timed)[0]
    assert new_log == old_log


@given(
    initial=st.integers(0, 2),
    processes=_processes,
    timed=st.lists(
        st.tuples(st.integers(0, HORIZON - 1), st.just("release")), max_size=8
    ),
    interrupts=st.lists(
        st.tuples(st.integers(0, HORIZON - 1), st.integers(0, 3)),
        min_size=1, max_size=4,
    ),
)
@settings(max_examples=300, deadline=None)
# An interrupt queued while a resume was in flight, then overtaking the
# wake-up of the acquire that resume parked on: a free unit ...
@example(
    initial=1,
    processes=[("application", [(0, "acquire"), (0, "acquire")])],
    timed=[(0, "release")],
    interrupts=[(0, 0)],
)
# ... and a unit another process released into a blocked grant.
@example(
    initial=0,
    processes=[
        ("application", [(0, "acquire"), (0, "acquire")]),
        ("protocol", [(0, "acquire"), (0, "release")]),
    ],
    timed=[(0, "release"), (0, "release")],
    interrupts=[(0, 0)],
)
# ... and a second interrupt queued alongside the first.
@example(
    initial=2,
    processes=[("application", [(0, "acquire"), (0, "acquire")])],
    timed=[],
    interrupts=[(0, 0), (0, 0)],
)
def test_interrupted_schedules_lose_no_unit(initial, processes, timed, interrupts):
    """With processes interrupted at arbitrary points (the case the old
    semaphore got wrong) every released unit is either still in the
    semaphore or was handed to a process that resumed with it, the
    queue holds exactly the processes still parked, and each role was
    charged exactly the time its processes spent waiting."""
    log, sim, sem = drive(TimedSemaphore, initial, processes, timed, interrupts)
    released = len(timed) + sum(1 for entry in log if entry[0] == "release")
    granted = sum(1 for entry in log if entry[0] == "grant")
    assert initial + released == sem.value + granted

    waiting_since = {}
    blocked = dict.fromkeys(ROLES, 0.0)
    for kind, index, when in log[:-1]:
        if kind == "wait":
            waiting_since[index] = when
        elif kind != "release" and index in waiting_since:
            blocked[processes[index][0]] += when - waiting_since.pop(index)
    for index, since in waiting_since.items():
        blocked[processes[index][0]] += sim.now - since
    assert sem.waiting == len(waiting_since)
    assert [sem.blocked_time(role) for role in ROLES] == [
        blocked[role] for role in ROLES
    ]


def abandon(sim, make_waitable, how):
    """Park a process on ``make_waitable()``, then make it stop waiting:
    by ``interrupt()``, or (``anyof``) by a deadline wait that times out."""

    def waiter():
        if how == "anyof":
            fired, _value = yield make_waitable().within(0.5)
            return fired
        try:
            yield make_waitable()
        except Interrupt:
            return "interrupted"

    proc = sim.spawn(waiter())
    sim.run()
    if how == "interrupt":
        proc.interrupt()
        sim.run()
    assert proc.finished.value == (False if how == "anyof" else "interrupted")


class TestQueue:
    def test_put_get_roundtrip(self, sim):
        q = Queue(sim)

        def coro():
            yield q.put("item")
            value = yield q.get()
            return value

        proc = sim.spawn(coro())
        sim.run()
        assert proc.finished.value == "item"

    def test_get_blocks_until_put(self, sim):
        q = Queue(sim)

        def getter():
            value = yield q.get()
            return (sim.now, value)

        proc = sim.spawn(getter())
        sim.call_after(3.0, lambda: q.put_nowait("late"))
        sim.run()
        assert proc.finished.value == (3.0, "late")

    def test_fifo_order(self, sim):
        q = Queue(sim)
        for i in range(5):
            q.put_nowait(i)
        assert [q.get_nowait() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_bounded_put_blocks(self, sim):
        q = Queue(sim, capacity=1)
        q.put_nowait("first")

        def putter():
            yield q.put("second")
            return sim.now

        proc = sim.spawn(putter())
        sim.call_after(2.0, q.get_nowait)
        sim.run()
        assert proc.finished.value == 2.0

    def test_put_nowait_full_raises(self, sim):
        q = Queue(sim, capacity=1)
        q.put_nowait(1)
        with pytest.raises(QueueFull):
            q.put_nowait(2)

    def test_get_nowait_empty_raises(self, sim):
        q = Queue(sim)
        with pytest.raises(IndexError):
            q.get_nowait()

    def test_invalid_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Queue(sim, capacity=0)

    def test_waiting_getter_receives_direct_handoff(self, sim):
        q = Queue(sim)
        got = []

        def getter():
            got.append((yield q.get()))

        sim.spawn(getter())
        sim.run()
        q.put_nowait("x")
        sim.run()
        assert got == ["x"]
        assert len(q) == 0

    @pytest.mark.parametrize("how", ["interrupt", "anyof"])
    def test_abandoned_get_does_not_swallow_the_next_item(self, sim, how):
        q = Queue(sim)
        abandon(sim, q.get, how)
        q.put_nowait("A")
        assert len(q) == 1

        def getter():
            return (yield q.get())

        proc = sim.spawn(getter())
        sim.run()
        assert proc.finished.value == "A"

    @pytest.mark.parametrize("how", ["interrupt", "anyof"])
    def test_abandoned_put_does_not_land_its_item(self, sim, how):
        q = Queue(sim, capacity=1)
        q.put_nowait("first")
        abandon(sim, lambda: q.put("second"), how)
        assert q.get_nowait() == "first"
        assert len(q) == 0
        q.put_nowait("third")
        assert q.get_nowait() == "third"

    def test_clear_drops_items_and_admits_putters(self, sim):
        q = Queue(sim, capacity=2)
        q.put_nowait(1)
        q.put_nowait(2)

        def putter():
            yield q.put(3)
            return sim.now

        proc = sim.spawn(putter())
        sim.run()
        dropped = q.clear()
        sim.run()
        assert dropped == 2
        assert proc.finished.is_set
        assert q.get_nowait() == 3
