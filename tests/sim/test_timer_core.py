"""Edge-case coverage for the handle-based timer core.

Complements test_scheduler.py with the kernel corners the multi-layer
refactor leans on: process interruption at every lifecycle stage,
deadline-wait (``Event.within``) detach semantics (including reclaiming
the losing deadline, and withdrawing an abandoned acquire or get),
Event.set re-entrancy, same-time FIFO determinism across reschedules,
and lazy heap compaction -- notably compaction triggered *inside* a
running event loop.
"""

import pytest

from repro.sim.scheduler import (
    Event,
    Interrupt,
    PeriodicTimer,
    SimulationError,
    Simulator,
    Timer,
)
from repro.sim.sync import Queue, Semaphore


# ---------------------------------------------------------------------------
# Process.interrupt at each lifecycle stage
# ---------------------------------------------------------------------------


class TestProcessInterruptLifecycle:
    def test_interrupt_before_first_resume(self):
        """Interrupting a just-spawned process lands at its first yield.

        The initial resume is already queued when interrupt() is called,
        and same-time events are FIFO: the process runs to its first
        yield, then the interrupt kills it there (still at t=0).
        """
        sim = Simulator()
        trace = []

        def proc():
            trace.append("ran")
            yield Timer(sim).after(1.0)
            trace.append("survived")

        p = sim.spawn(proc())
        p.interrupt("early")
        sim.run(until=0.0)
        assert trace == ["ran"]
        assert not p.alive
        assert p.finished.is_set

    def test_interrupt_while_waiting_is_catchable(self):
        sim = Simulator()
        caught = []

        def proc():
            try:
                yield Timer(sim).after(10.0)
            except Interrupt as exc:
                caught.append(exc.cause)
            yield Timer(sim).after(1.0)
            return "done"

        p = sim.spawn(proc())
        sim.call_after(2.0, lambda: p.interrupt("stop"))
        sim.run()
        assert caught == ["stop"]
        # The process survived the interrupt and finished normally.
        assert p.finished.is_set
        assert p.finished.value == "done"
        assert sim.now == pytest.approx(3.0)

    def test_uncaught_interrupt_kills_quietly(self):
        sim = Simulator()

        def proc():
            yield Timer(sim).after(10.0)

        p = sim.spawn(proc())
        sim.call_after(1.0, lambda: p.interrupt())
        sim.run()
        assert not p.alive
        assert p.finished.value is None

    def test_interrupt_detaches_pending_timer(self):
        """Interrupting a sleeper reclaims its heap entry immediately."""
        sim = Simulator()

        def proc():
            yield Timer(sim).after(1000.0)

        p = sim.spawn(proc())
        sim.run(until=0.5)
        before = sim.pending_events
        p.interrupt()
        assert sim.pending_events == before  # timer freed, interrupt queued
        assert sim.run() < 1000.0

    def test_interrupt_after_finish_is_noop(self):
        sim = Simulator()

        def proc():
            yield Timer(sim).after(1.0)
            return 42

        p = sim.spawn(proc())
        sim.run()
        assert p.finished.value == 42
        p.interrupt("late")  # must not raise or re-enter the generator
        sim.run()
        assert p.finished.value == 42

    def test_double_interrupt_delivers_once(self):
        sim = Simulator()
        caught = []

        def proc():
            while True:
                try:
                    yield Timer(sim).after(10.0)
                except Interrupt as exc:
                    caught.append(exc.cause)

        p = sim.spawn(proc())

        def both():
            p.interrupt("a")
            p.interrupt("b")

        sim.call_after(1.0, both)
        sim.run(until=5.0)
        assert caught == ["a", "b"]


# ---------------------------------------------------------------------------
# Deadline waits (Event.within): detach semantics
# ---------------------------------------------------------------------------


class TestAnyOfDetach:
    def test_losing_event_fire_after_race_does_not_double_resume(self):
        """An event set after its deadline wait timed out resumes nothing."""
        sim = Simulator()
        a = Event(sim)
        resumes = []

        def proc():
            resumes.append((yield a.within(1.0)))
            # Keep the process alive past the loser's firing.
            yield Timer(sim).after(10.0)

        sim.spawn(proc())
        sim.call_after(2.0, lambda: a.set("late"))
        sim.run()
        assert resumes == [(False, None)]

    def test_losing_timeout_is_reclaimed_from_heap(self):
        """A deadline that loses is cancelled, not left to fire."""
        sim = Simulator()
        done = Event(sim)

        def proc():
            yield done.within(1000.0)

        sim.spawn(proc())
        sim.call_after(1.0, lambda: done.set())
        sim.run(until=2.0)
        assert sim.pending_events == 0
        assert sim.run() == pytest.approx(2.0)

    def test_losing_timer_is_reclaimed_and_reusable(self):
        """The process's deadline handle re-arms for its next deadline wait."""
        sim = Simulator()
        done = Event(sim)
        winners = []

        def proc():
            fired, _ = yield done.within(1000.0)
            winners.append(fired)
            fired, _ = yield Event(sim).within(1.0)
            winners.append(fired)

        sim.spawn(proc())
        sim.call_after(1.0, lambda: done.set())
        sim.run()
        assert winners == [True, False]
        assert sim.now == pytest.approx(2.0)

    def test_detach_after_fire_is_safe(self):
        """Interrupting a process right as its event wins must not break."""
        sim = Simulator()
        a = Event(sim)
        resumes = []

        def proc():
            resumes.append((yield a.within(5.0)))

        p = sim.spawn(proc())

        def fire_then_interrupt():
            a.set("win")      # queues the resume
            p.interrupt()     # cancels the deadline and queues the throw

        sim.call_after(1.0, fire_then_interrupt)
        sim.run()
        assert not p.alive
        # The queued resume (FIFO-first) won; the late interrupt found a
        # finished process and was dropped -- exactly one resume, no crash.
        assert resumes == [(True, "win")]
        assert sim.pending_events == 0


class TestDeadlineWait:
    def test_interrupt_cancels_the_deadline(self):
        """An interrupted deadline wait leaves nothing armed: parked
        elsewhere, the process is not resumed at the old deadline."""
        sim = Simulator()
        raced, other = Event(sim), Event(sim)
        log = []

        def proc():
            try:
                yield raced.within(2.0)
            except Interrupt:
                log.append(("interrupted", sim.now))
            value = yield other
            log.append(("woken", sim.now, value))

        p = sim.spawn(proc())
        sim.run(until=0.5)
        assert sim.pending_events == 1  # the deadline
        sim.call_at(1.0, p.interrupt)
        sim.run(until=1.5)
        assert sim.pending_events == 0
        sim.run(until=3.0)
        assert log == [("interrupted", 1.0)]
        sim.call_at(4.0, lambda: other.set("other"))
        sim.run()
        assert log == [("interrupted", 1.0), ("woken", 4.0, "other")]
        assert raced._callbacks == []

    def test_already_set_event_resumes_at_once(self):
        sim = Simulator()
        ev = Event(sim)
        ev.set("ready")

        def proc():
            result = yield ev.within(1.0)
            return (sim.now, result)

        p = sim.spawn(proc())
        sim.run()
        assert p.finished.value == (0.0, (True, "ready"))
        assert sim.pending_events == 0

    def test_process_join_within(self):
        sim = Simulator()

        def child(delay):
            yield Timer(sim).after(delay)
            return delay

        def parent():
            quick = yield sim.spawn(child(1.0)).finished.within(2.0)
            slow = yield sim.spawn(child(5.0)).finished.within(2.0)
            return (sim.now, quick, slow)

        p = sim.spawn(parent())
        sim.run()
        assert p.finished.value == (3.0, (True, 1.0), (False, None))

    @pytest.mark.parametrize("how", ["timeout", "interrupt"])
    def test_abandoned_acquire_loses_no_unit(self, how):
        sim = Simulator()
        sem = Semaphore(sim, 0)
        got = []

        def racer():
            try:
                fired, _ = yield sem.acquire().within(1.0)
                got.append(("racer", fired, sim.now))
            except Interrupt:
                got.append(("racer", "interrupted", sim.now))

        def waiter():
            yield sem.acquire()
            got.append(("waiter", True, sim.now))

        p = sim.spawn(racer())
        sim.spawn(waiter())
        if how == "interrupt":
            sim.call_at(0.5, p.interrupt)
        sim.call_at(2.0, sem.release)
        sim.call_at(3.0, sem.release)
        sim.run()
        ended = 1.0 if how == "timeout" else 0.5
        racer_result = False if how == "timeout" else "interrupted"
        assert got == [("racer", racer_result, ended), ("waiter", True, 2.0)]
        assert (sem.value, sem.waiting, sim.pending_events) == (1, 0, 0)

    @pytest.mark.parametrize("how", ["timeout", "interrupt"])
    def test_abandoned_get_loses_no_item(self, how):
        sim = Simulator()
        q = Queue(sim)
        got = []

        def racer():
            try:
                got.append((yield q.get().within(1.0)))
            except Interrupt:
                got.append("interrupted")

        p = sim.spawn(racer())
        if how == "interrupt":
            sim.call_at(0.5, p.interrupt)
        sim.call_at(2.0, lambda: q.put_nowait("item"))
        sim.run()
        assert got == [(False, None) if how == "timeout" else "interrupted"]
        assert q.get_nowait() == "item"
        assert sim.pending_events == 0


# ---------------------------------------------------------------------------
# Event.set re-entrancy
# ---------------------------------------------------------------------------


class TestEventSetReentrancy:
    def test_waiter_setting_another_event_preserves_fifo(self):
        sim = Simulator()
        first, second = Event(sim), Event(sim)
        order = []

        def chain():
            yield first
            order.append("chain")
            second.set()

        def tail():
            yield second
            order.append("tail")

        sim.spawn(chain())
        sim.spawn(tail())
        sim.call_after(1.0, lambda: first.set())
        sim.run()
        assert order == ["chain", "tail"]

    def test_set_twice_raises_even_reentrantly(self):
        sim = Simulator()
        event = Event(sim)
        errors = []

        def proc():
            yield event
            try:
                event.set("again")
            except SimulationError:
                errors.append("caught")

        sim.spawn(proc())
        sim.call_soon(lambda: event.set("once"))
        sim.run()
        assert errors == ["caught"]

    def test_new_waiter_during_set_drain_resumes_with_value(self):
        sim = Simulator()
        event = Event(sim)
        values = []

        def late_waiter():
            values.append((yield event))

        def early_waiter():
            values.append((yield event))
            sim.spawn(late_waiter())

        sim.spawn(early_waiter())
        sim.call_after(1.0, lambda: event.set("v"))
        sim.run()
        assert values == ["v", "v"]


# ---------------------------------------------------------------------------
# Same-time FIFO determinism across reschedules
# ---------------------------------------------------------------------------


class TestRescheduleOrdering:
    def test_same_time_fifo_for_fresh_schedules(self):
        sim = Simulator()
        order = []
        for name in "abc":
            sim.call_at(1.0, lambda n=name: order.append(n))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_reschedule_to_same_instant_requeues_behind(self):
        """Re-arming for time t after others were scheduled at t means
        firing after them: documented, deterministic semantics."""
        sim = Simulator()
        order = []
        first = sim.call_at(1.0, lambda: order.append("first"))
        sim.call_at(1.0, lambda: order.append("second"))
        first.reschedule(1.0)
        sim.run()
        assert order == ["second", "first"]

    def test_reschedule_preserves_single_firing(self):
        sim = Simulator()
        fired = []
        handle = sim.call_at(1.0, lambda: fired.append(sim.now))
        handle.reschedule(2.0)
        handle.reschedule(3.0)
        sim.run()
        assert fired == [3.0]
        assert sim.pending_events == 0

    def test_timer_rearm_same_time_is_fifo_with_contemporaries(self):
        sim = Simulator()
        order = []
        pace = Timer(sim)

        def proc():
            yield pace.after(1.0)
            order.append("timer")

        sim.spawn(proc())
        sim.call_at(1.0, lambda: order.append("plain"))
        sim.run()
        # The plain call was enqueued at spawn time; the timer armed when
        # the process first ran (same instant, later seq) -- FIFO holds.
        assert order == ["plain", "timer"]


# ---------------------------------------------------------------------------
# pending_events and lazy compaction
# ---------------------------------------------------------------------------


class TestPendingEventsAndCompaction:
    def test_pending_events_tracks_cancel_and_supersede(self):
        sim = Simulator()
        handles = [sim.call_after(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending_events == 10
        handles[0].cancel()
        handles[1].cancel()
        assert sim.pending_events == 8
        handles[2].reschedule(100.0)  # supersede: still one pending firing
        assert sim.pending_events == 8

    def test_mass_cancel_compacts_heap(self):
        sim = Simulator()
        handles = [sim.call_after(1000.0, lambda: None) for _ in range(512)]
        for handle in handles[:-1]:
            handle.cancel()
        # >50% of the heap is dead, so the sweep must have run.
        assert len(sim._heap) < 512
        assert sim.pending_events == 1

    def test_compaction_during_run_keeps_draining(self):
        """Regression: run() holds an alias of the heap list; a sweep
        triggered by a callback must not strand later events."""
        sim = Simulator()
        ballast = [sim.call_after(1000.0, lambda: None) for _ in range(400)]
        fired = []

        def cancel_ballast():
            for handle in ballast:
                handle.cancel()

        sim.call_after(1.0, cancel_ballast)
        sim.call_after(2.0, lambda: fired.append("late"))
        sim.run(until=10.0)
        assert fired == ["late"]
        assert sim.pending_events == 0

    def test_step_skips_dead_entries(self):
        sim = Simulator()
        fired = []
        dead = sim.call_after(1.0, lambda: fired.append("dead"))
        sim.call_after(2.0, lambda: fired.append("live"))
        dead.cancel()
        assert sim.step() is True
        assert fired == ["live"]
        assert sim.step() is False


# ---------------------------------------------------------------------------
# Reusable timers
# ---------------------------------------------------------------------------


class TestReusableTimers:
    def test_timer_requires_arming(self):
        sim = Simulator()
        idle = Timer(sim)

        def proc():
            yield idle

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_timer_rejects_second_waiter(self):
        sim = Simulator()
        shared = Timer(sim)

        def waiter():
            yield shared.after(5.0)

        sim.spawn(waiter())
        sim.spawn(waiter())
        with pytest.raises(SimulationError):
            sim.run()

    def test_periodic_timer_exact_boundaries(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 0.1, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until=1.05)
        assert len(ticks) == 10
        # Boundaries accumulate exactly: start + k * period, no drift.
        assert ticks == pytest.approx([0.1 * k for k in range(1, 11)])

    def test_periodic_timer_stop_from_callback(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 0.1, lambda: (ticks.append(sim.now),
                                                 timer.stop())[0])
        timer.start()
        sim.run(until=5.0)
        assert ticks == [pytest.approx(0.1)]
        assert not timer.running
        assert sim.pending_events == 0

    def test_periodic_timer_restart_after_stop(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 0.1, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until=0.25)
        timer.stop()
        sim.run(until=1.0)
        assert len(ticks) == 2
        timer.start()
        sim.run(until=1.35)
        assert len(ticks) == 5


# ---------------------------------------------------------------------------
# Heap reentrancy (the compaction-reentrancy contract)
# ---------------------------------------------------------------------------


class TestWheelReentrancy:
    """Callbacks may schedule/cancel/reschedule mid-dispatch -- including
    operations that trigger a sweep -- without ever observing a
    half-swept heap.  These pin the contract for both heaps: the near
    heap the dispatch loop pops (and aliases) and the far heap that
    refills it once it drains.  (The class name predates the heaps.)
    """

    def test_wheel_sweep_triggered_by_callback_mid_dispatch(self):
        """A callback mass-cancelling near-heap entries (forcing the
        near sweep under the dispatch loop) must not strand later
        events."""
        sim = Simulator()
        # Fill the near heap past the sweep threshold.
        doomed = [sim.call_after(1.0 + i * 1e-3, lambda: None)
                  for i in range(300)]
        fired = []

        def cancel_all():
            for handle in doomed:
                handle.cancel()

        sim.call_after(0.5, cancel_all)
        sim.call_after(2.5, lambda: fired.append(sim.now))
        sim.run(until=3.0)
        assert fired == [2.5]
        assert sim.pending_events == 0

    def test_cancel_current_bucket_entries_from_callback(self):
        """Cancelling not-yet-fired events just ahead of the near head:
        the dispatch loop skips them as dead, fires the rest."""
        sim = Simulator()
        fired = []
        later = [sim.call_at(0.5 + i * 1e-5, lambda i=i: fired.append(i))
                 for i in range(1, 6)]

        def killer():
            fired.append(0)
            later[1].cancel()  # event 2
            later[3].cancel()  # event 4

        sim.call_at(0.5, killer)
        sim.run(until=1.0)
        assert fired == [0, 1, 3, 5]
        assert sim.pending_events == 0

    def test_schedule_into_current_bucket_from_callback(self):
        """A same-instant (and near) schedule from a callback fires in
        (when, priority, seq) order relative to the entries still
        pending."""
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.call_soon(lambda: fired.append("soon"))
            sim.call_at(sim.now + 5e-5, lambda: fired.append("mid"))

        sim.call_at(0.5, first)
        sim.call_at(0.5 + 1e-4, lambda: fired.append("last"))
        sim.run(until=1.0)
        assert fired == ["first", "soon", "mid", "last"]

    def test_reschedule_out_of_current_bucket_from_callback(self):
        """Rescheduling a pending near event to a later time supersedes
        exactly once."""
        sim = Simulator()
        fired = []
        victim = sim.call_at(0.5 + 1e-5, lambda: fired.append("victim"))

        def mover():
            fired.append("mover")
            victim.reschedule(2.0)

        sim.call_at(0.5, mover)
        sim.run(until=1.0)
        assert fired == ["mover"]
        sim.run(until=3.0)
        assert fired == ["mover", "victim"]

    def test_overflow_compaction_from_callback_keeps_migration_sound(self):
        """A far-heap sweep fired from a callback must not break the
        later refill of surviving far-future events."""
        sim = Simulator()
        fired = []
        far = [sim.call_after(100.0 + i * 1e-3, lambda: None)
               for i in range(300)]
        survivor = sim.call_after(100.5, lambda: fired.append(sim.now))

        def cancel_far():
            for handle in far:
                handle.cancel()

        sim.call_after(1.0, cancel_far)
        sim.run(until=200.0)
        assert fired == [100.5]
        assert survivor.when == 100.5
        assert sim.pending_events == 0
