"""Tests for the discrete-event kernel."""

import pytest

from repro.orchestration.llo import _Join
from repro.sim.scheduler import (
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    Timer,
)


class TestEventLoop:
    def test_initial_time_is_zero(self):
        assert Simulator().now == 0.0

    def test_call_after_fires_at_right_time(self, sim):
        seen = []
        sim.call_after(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_call_at_absolute(self, sim):
        seen = []
        sim.call_at(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.0]

    def test_call_in_past_rejected(self, sim):
        sim.call_after(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_after(-0.1, lambda: None)

    @pytest.mark.parametrize("when", [float("inf"), float("nan"), 1e300])
    def test_time_the_heaps_cannot_order_rejected(self, sim, when):
        # The far heap could never move the horizon past such a time,
        # so accepting it would stall run() or break the order.
        with pytest.raises(SimulationError):
            sim.call_at(when, lambda: None)
        assert sim.pending_events == 0
        assert sim.run() == 0.0

    def test_same_time_fifo_order(self, sim):
        seen = []
        for i in range(5):
            sim.call_at(1.0, lambda i=i: seen.append(i))
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_priority_orders_simultaneous_events(self, sim):
        seen = []
        sim.call_at(1.0, lambda: seen.append("low"), priority=1)
        sim.call_at(1.0, lambda: seen.append("high"), priority=0)
        sim.run()
        assert seen == ["high", "low"]

    def test_cancel_prevents_execution(self, sim):
        seen = []
        handle = sim.call_after(1.0, lambda: seen.append("x"))
        handle.cancel()
        sim.run()
        assert seen == []
        assert handle.cancelled

    def test_run_until_stops_clock_exactly(self, sim):
        sim.call_after(10.0, lambda: None)
        assert sim.run(until=3.0) == 3.0
        assert sim.now == 3.0
        sim.run()
        assert sim.now == 10.0

    def test_run_until_advances_even_without_events(self, sim):
        assert sim.run(until=5.0) == 5.0

    def test_step_executes_single_event(self, sim):
        seen = []
        sim.call_after(1.0, lambda: seen.append(1))
        sim.call_after(2.0, lambda: seen.append(2))
        assert sim.step()
        assert seen == [1]
        assert sim.step()
        assert not sim.step()

    def test_pending_events_excludes_cancelled(self, sim):
        h1 = sim.call_after(1.0, lambda: None)
        sim.call_after(2.0, lambda: None)
        h1.cancel()
        assert sim.pending_events == 1

    def test_reentrant_run_rejected(self, sim):
        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.call_after(1.0, nested)
        sim.run()


class TestProcesses:
    def test_process_returns_value(self, sim):
        def coro():
            yield Timer(sim).after(1.0)
            return 42

        proc = sim.spawn(coro())
        sim.run()
        assert proc.finished.value == 42
        assert not proc.alive

    def test_timeout_resumes_at_right_time(self, sim):
        times = []

        def coro():
            yield Timer(sim).after(0.5)
            times.append(sim.now)
            yield Timer(sim).after(0.25)
            times.append(sim.now)

        sim.spawn(coro())
        sim.run()
        assert times == [0.5, 0.75]

    def test_event_passes_value(self, sim):
        ev = Event(sim)

        def coro():
            value = yield ev
            return value

        proc = sim.spawn(coro())
        sim.call_after(1.0, lambda: ev.set("payload"))
        sim.run()
        assert proc.finished.value == "payload"

    def test_event_set_twice_rejected(self, sim):
        ev = Event(sim)
        ev.set(1)
        with pytest.raises(SimulationError):
            ev.set(2)

    def test_late_waiter_gets_value_immediately(self, sim):
        ev = Event(sim)
        ev.set("early")

        def coro():
            value = yield ev
            return (sim.now, value)

        proc = sim.spawn(coro())
        sim.run()
        assert proc.finished.value == (0.0, "early")

    def test_event_value_before_set_raises(self, sim):
        ev = Event(sim)
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_yielding_process_waits_for_completion(self, sim):
        def child():
            yield Timer(sim).after(2.0)
            return "done"

        def parent():
            value = yield sim.spawn(child())
            return (sim.now, value)

        proc = sim.spawn(parent())
        sim.run()
        assert proc.finished.value == (2.0, "done")

    def test_yield_non_waitable_raises(self, sim):
        def coro():
            yield 42

        sim.spawn(coro())
        with pytest.raises(SimulationError):
            sim.run()

    def test_anyof_returns_first_winner(self, sim):
        """A deadline wait resumes when the event is set first."""
        ev = Event(sim)

        def coro():
            fired, value = yield ev.within(5.0)
            return (sim.now, fired, value)

        proc = sim.spawn(coro())
        sim.call_after(1.0, lambda: ev.set("fast"))
        sim.run()
        assert proc.finished.value == (1.0, True, "fast")

    def test_anyof_loser_does_not_resume_again(self, sim):
        """The side of a deadline wait that loses never resumes it."""
        early, late = Event(sim), Event(sim)
        resumed = []

        def coro():
            resumed.append((yield early.within(2.0)))
            resumed.append((yield late.within(1.0)))
            yield Timer(sim).after(5.0)

        sim.spawn(coro())
        sim.call_after(1.0, lambda: early.set("early"))
        sim.call_after(3.0, lambda: late.set("late"))
        sim.run()
        assert resumed == [(True, "early"), (False, None)]
        assert sim.now == 7.0

    def test_anyof_empty_rejected(self, sim):
        """A deadline wait rejects a negative deadline."""
        with pytest.raises(SimulationError):
            Event(sim).within(-1.0)

    def test_allof_collects_all_values(self, sim):
        """Legs joined by one Event resume the joiner once, at the last
        leg's finish, with every result in leg order."""
        join = _Join(sim, 2)
        resumes = []

        def leg(delay, value):
            yield Timer(sim).after(delay)
            return value

        def coro():
            values = yield join.done
            resumes.append((sim.now, values))

        sim.spawn(join.leg(0, leg(2.0, "a")))
        sim.spawn(join.leg(1, leg(1.0, "b")))
        sim.spawn(coro())
        sim.run()
        assert resumes == [(2.0, ["a", "b"])]

    def test_allof_empty_fires_immediately(self, sim):
        """A join of no legs resumes the joiner at once."""

        def coro():
            values = yield _Join(sim, 0).done
            return (sim.now, values)

        proc = sim.spawn(coro())
        sim.run()
        assert proc.finished.value == (0.0, [])

    def test_interrupt_raises_in_process(self, sim):
        caught = []

        def coro():
            try:
                yield Timer(sim).after(100.0)
            except Interrupt as exc:
                caught.append(exc.cause)

        proc = sim.spawn(coro())
        sim.call_after(1.0, lambda: proc.interrupt("reason"))
        sim.run()
        assert caught == ["reason"]

    def test_unhandled_interrupt_kills_quietly(self, sim):
        def coro():
            yield Timer(sim).after(100.0)

        proc = sim.spawn(coro())
        sim.call_after(1.0, lambda: proc.interrupt())
        sim.run()
        assert not proc.alive
        assert proc.finished.is_set

    def test_interrupt_dead_process_is_noop(self, sim):
        def coro():
            yield Timer(sim).after(1.0)

        proc = sim.spawn(coro())
        sim.run()
        proc.interrupt()
        sim.run()
        assert proc.finished.is_set

    def test_process_count_increments(self, sim):
        before = sim.process_count

        def coro():
            yield Timer(sim).after(0.1)

        sim.spawn(coro())
        sim.spawn(coro())
        assert sim.process_count == before + 2
