"""A process is woken by re-arming its own handles: same order as before.

``Process`` parks itself on an ``Event`` (in the waiter list) or a
``Timer`` (as the one waiter) and is woken by re-arming the one
``TimerHandle`` it owns; a deadline wait (``event.within(s)``) arms a
second handle at the deadline.  The kernel before it handed every
waitable a bound ``_resume``, scheduled a fresh ``call_soon`` closure
(and with it a fresh ``TimerHandle``) per wake-up, kept a detach
closure per wait, and raced an event against a deadline with
``AnyOf([event, Timeout])``.  That kernel's ``Event``, ``Timer``,
``Timeout``, ``AnyOf`` and ``Process`` are kept here as ``RefEvent``,
``RefTimer``, ``RefTimeout``, ``RefAnyOf`` and ``RefProcess``, the model
the new ones must reproduce: random programs of spawns, Event
set/wait, semaphore acquire/release, Timer waits, races of an event or
an acquire against a deadline and interrupts at random instants leave
the same resume log on both and draw the same number of sequence
numbers.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.sim import sync
from repro.sim.scheduler import (
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    Timer,
    TimerHandle,
)
from repro.sim.sync import Semaphore


def seq_count(sim) -> int:
    """Sequence numbers drawn so far: one per ``Simulator._push``."""
    return int(repr(sim._seq)[6:-1])


def _no_detach() -> None:
    return None


class RefEvent:
    """``Event`` before in-place wake-ups: every waiter is a callback,
    resumed through a fresh ``call_soon`` closure."""

    def __init__(self, sim):
        self.sim = sim
        self._value = None
        self._is_set = False
        self._callbacks = []

    @property
    def is_set(self):
        return self._is_set

    def set(self, value=None):
        if self._is_set:
            raise SimulationError("event set twice")
        self._is_set = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self.sim.call_soon(lambda cb=cb: cb(value))

    def _await(self, callback):
        if self._is_set:
            self.sim.call_soon(lambda: callback(self._value))
            return _no_detach
        self._callbacks.append(callback)
        return lambda: self._discard(callback)

    def _discard(self, callback):
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass

    def _refund(self):
        pass


class RefGrant(RefEvent):
    """``sync._Grant`` over ``RefEvent``: withdraws when abandoned."""

    def __init__(self, owner, data=None):
        super().__init__(owner.sim)
        self._owner = owner
        self._data = data

    def _discard(self, callback):
        super()._discard(callback)
        if not self._is_set and not self._callbacks:
            self._owner._withdraw(self)

    def _refund(self):
        self._owner._refund(self)


class RefTimer:
    """``Timer`` with a callback waiter, detached by a closure."""

    def __init__(self, sim):
        self.sim = sim
        self.value = None
        self._callback = None
        self._handle = TimerHandle(sim, self._fire)

    def after(self, delay, value=None):
        self.value = value
        self._handle.reschedule(self.sim.now + delay)
        return self

    def _fire(self):
        callback, self._callback = self._callback, None
        if callback is not None:
            callback(self.value)

    def _await(self, callback):
        if self._callback is not None:
            raise SimulationError("Timer already has a waiter")
        self._callback = callback
        return self._detach

    def _detach(self):
        self._callback = None
        self._handle.cancel()


class RefTimeout:
    """``Timeout``: fires once, ``delay`` seconds after creation; its
    handle is cancelled when the last waiter detaches."""

    def __init__(self, sim, delay, value=None):
        self.sim = sim
        self.value = value
        self._fired = False
        self._callbacks = []
        self._when = sim.now + delay
        self._handle = sim.call_at(self._when, self._fire)

    def _fire(self):
        self._fired = True
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self.value)

    def _await(self, callback):
        if self._fired:
            self.sim.call_soon(lambda: callback(self.value))
            return _no_detach
        if not self._handle.scheduled:
            self._handle.reschedule(max(self._when, self.sim.now))
        self._callbacks.append(callback)
        return lambda: self._discard(callback)

    def _discard(self, callback):
        try:
            self._callbacks.remove(callback)
        except ValueError:
            return
        if not self._callbacks and not self._fired:
            self._handle.cancel()


class RefAnyOf:
    """``AnyOf``: resumes with ``(index, value)`` of the first waitable to
    fire and detaches the others.  When the deadline (index 1) wins
    while the event's set is still queued to it, what the set handed
    over goes back to its owner first, which ``AnyOf`` did not do."""

    def __init__(self, sim, waitables):
        self.sim = sim
        self.waitables = list(waitables)

    def _await(self, callback):
        detachers = []
        done = [False]

        def detach_all():
            for detach in detachers:
                detach()

        def make_cb(index):
            def on_fire(value):
                if done[0]:
                    return
                done[0] = True
                detach_all()
                if index == 1 and self.waitables[0].is_set:
                    self.waitables[0]._refund()
                callback((index, value))

            return on_fire

        for i, w in enumerate(self.waitables):
            detachers.append(w._await(make_cb(i)))
        return detach_all


class RefProcess:
    """``Process`` before in-place wake-ups: a ``call_soon`` closure to
    start, a bound ``_resume`` handed to every waitable, the detach
    closure it returns kept per wait."""

    def __init__(self, sim, gen, name):
        self.sim = sim
        self.gen = gen
        self.name = name
        self.finished = RefEvent(sim)
        self._detach = None
        self._alive = True
        self._advances = 0
        sim.call_soon(lambda: self._resume(None))

    def _resume(self, value):
        if not self._alive:
            return
        self._detach = None
        self._advances += 1
        try:
            waitable = self.gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._detach = waitable._await(self._resume)

    def _throw(self, exc):
        if not self._alive:
            return
        self._advances += 1
        try:
            waitable = self.gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupt:
            self._finish(None)
            return
        self._detach = waitable._await(self._resume)

    def _finish(self, value):
        self._alive = False
        self.finished.set(value)

    def interrupt(self, cause=None):
        if not self._alive:
            return
        if self._detach is not None:
            self._detach()
            self._detach = None
        advances = self._advances
        self.sim.call_soon(
            lambda: self._throw(Interrupt(cause))
            if self._advances == advances else self.interrupt(cause)
        )

    def _await(self, callback):
        return self.finished._await(callback)


#: Delays are multiples of 2**-3 s, so every instant is exact.
TICK = 0.125
HORIZON = 48
EVENTS = 3

_delay = st.integers(0, 3)
_event = st.integers(0, EVENTS - 1)
_leaf = st.one_of(
    st.tuples(st.just("sleep"), _delay),
    st.tuples(st.just("timeout"), _delay),
    st.tuples(st.just("wait"), _event),
    st.tuples(st.just("set"), _event),
    st.tuples(st.just("acquire")),
    st.tuples(st.just("release")),
    st.tuples(st.just("race"), _event, _delay),
    st.tuples(st.just("race_acquire"), _delay),
)
#: A spawn runs a child script, and joins it (``yield child``) or not.
_step = st.one_of(
    _leaf, st.tuples(st.just("spawn"), st.lists(_leaf, max_size=4), st.booleans())
)
_programs = st.lists(st.lists(_step, max_size=8), min_size=1, max_size=4)
_external = st.lists(
    st.tuples(
        st.integers(0, HORIZON - 1),
        st.sampled_from(["set", "release", "interrupt"]),
        st.integers(0, 7),
    ),
    max_size=10,
)


class NewKernel:
    """The kernel under test, as ``play`` drives it."""

    event = Event
    timer = Timer

    @staticmethod
    def spawn(sim, gen, name):
        return sim.spawn(gen, name=name)

    @staticmethod
    def sleep(sim, delay):
        return Timer(sim).after(delay)

    @staticmethod
    def race(sim, event, delay):
        return event.within(delay)

    @staticmethod
    def raced(value):
        return value


class RefKernel:
    """The closure kernel, with ``sync`` patched to build its events."""

    event = RefEvent
    timer = RefTimer
    spawn = RefProcess
    sleep = RefTimeout

    @staticmethod
    def race(sim, event, delay):
        return RefAnyOf(sim, [event, RefTimeout(sim, delay)])

    @staticmethod
    def raced(value):
        index, value = value
        return (index == 0, value)


def play(kernel, initial, programs, external):
    """Run one program; return its log and the kernel's final counts.

    The log holds every resumption ``(now, process, value)``, every
    caught interrupt and every external action, in the order they ran.
    """
    sim = Simulator()
    sem = Semaphore(sim, initial)
    events = [kernel.event(sim) for _ in range(EVENTS)]
    procs = []
    log = []

    def fire(index):
        # Set, or renew a set one: later waits find set and unset events.
        if events[index].is_set:
            events[index] = kernel.event(sim)
        else:
            events[index].set((index, sim.now))

    def body(name, steps):
        timer = kernel.timer(sim)
        for step in steps:
            op = step[0]
            try:
                if op == "sleep":
                    value = yield timer.after(step[1] * TICK)
                elif op == "timeout":
                    value = yield kernel.sleep(sim, step[1] * TICK)
                elif op == "wait":
                    value = yield events[step[1]]
                elif op == "race":
                    value = kernel.raced((yield kernel.race(
                        sim, events[step[1]], step[2] * TICK)))
                elif op == "acquire":
                    value = yield sem.acquire()
                elif op == "race_acquire":
                    value = kernel.raced((yield kernel.race(
                        sim, sem.acquire(), step[1] * TICK)))
                elif op == "spawn":
                    child = start(f"{name}/{len(procs)}", step[1])
                    if not step[2]:
                        continue
                    value = yield child
                elif op == "set":
                    fire(step[1])
                    continue
                else:
                    sem.release()
                    continue
            except Interrupt as exc:
                log.append((sim.now, name, "interrupted", exc.cause))
                continue
            log.append((sim.now, name, value))
        return name

    def start(name, steps):
        proc = kernel.spawn(sim, body(name, steps), name)
        procs.append(proc)
        return proc

    def act(op, arg):
        log.append((sim.now, "external", op, arg))
        if op == "set":
            fire(arg % EVENTS)
        elif op == "release":
            sem.release()
        else:
            procs[arg % len(procs)].interrupt(sim.now)

    for index, steps in enumerate(programs):
        start(str(index), steps)
    for when, op, arg in external:
        sim.call_at(when * TICK, lambda op=op, arg=arg: act(op, arg))
    sim.run(until=HORIZON * TICK)
    return log, seq_count(sim), sem.value, sem.waiting


@given(initial=st.integers(0, 2), programs=_programs, external=_external)
@settings(max_examples=300, deadline=None)
# A race on an event that is already set: the deadline's entry is drawn
# first, the wake-up's second, and the wake-up wins.
@example(initial=0, programs=[[("set", 0), ("race", 0, 2)]], external=[])
# ... and with no delay at all, the deadline is due first and wins.
@example(initial=0, programs=[[("set", 0), ("race", 0, 0)]], external=[])
# A set in the deadline's own instant, queued behind it: the deadline wins.
@example(initial=0, programs=[[("race", 0, 1)]], external=[(1, "set", 0)])
# ... and an acquire granted in that instant: the unit goes back to
# the semaphore (or its next waiter), not to nobody.
@example(initial=0, programs=[[("race_acquire", 1)]],
         external=[(1, "release", 0)])
@example(initial=0, programs=[[("race_acquire", 1)], [("acquire",)]],
         external=[(1, "release", 0)])
# A free unit raced against no delay at all: the deadline is due first.
@example(initial=1, programs=[[("race_acquire", 0)]], external=[])
# An interrupt mid-race, on an event and on an acquire.
@example(initial=0, programs=[[("race", 0, 3), ("wait", 1)]],
         external=[(1, "interrupt", 0), (2, "set", 0), (3, "set", 1)])
@example(initial=0, programs=[[("race_acquire", 3)], [("acquire",)]],
         external=[(1, "interrupt", 0), (2, "release", 0)])
# The set and an interrupt both in the deadline's instant, ahead of it:
# the queued wake-up still delivers, then the interrupt lands.
@example(initial=0, programs=[[("race", 0, 1), ("wait", 1)]],
         external=[(1, "set", 0), (1, "interrupt", 0)])
def test_in_place_wake_ups_dispatch_as_the_closure_kernel(initial, programs, external):
    new = play(NewKernel, initial, programs, external)
    with mock.patch.multiple(sync, Event=RefEvent, _Grant=RefGrant):
        reference = play(RefKernel, initial, programs, external)
    assert new == reference


def test_semaphore_hand_off_builds_no_timer_handle(monkeypatch):
    """Blocked grants and free units alike wake the consumer through its
    own handle: after both processes started, no handle is built."""
    sim = Simulator()
    sem = Semaphore(sim, 0)
    granted = []

    def consumer():
        for _ in range(6):
            yield sem.acquire()
            granted.append(sim.now)

    def producer():
        pace = Timer(sim)
        for _ in range(3):
            yield pace.after(1.0)
            sem.release()  # into the consumer's blocked grant
            sem.release()  # a free unit its next acquire takes

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run(until=0.5)
    built = []
    init = TimerHandle.__init__

    def counting_init(handle, *args, **kwargs):
        built.append(handle)
        init(handle, *args, **kwargs)

    monkeypatch.setattr(TimerHandle, "__init__", counting_init)
    sim.run()
    assert granted == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    assert built == []
