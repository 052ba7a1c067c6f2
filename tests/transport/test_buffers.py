"""Tests for the shared circular buffers and the gated receive buffer."""

import pytest

from repro.sim.clock import NodeClock
from repro.sim.scheduler import Interrupt, SimulationError, Timer
from repro.transport.buffers import (
    GatedReceiveBuffer,
    MeterSchedule,
    ROLE_APPLICATION,
    ROLE_PROTOCOL,
    SharedCircularBuffer,
)
from repro.transport.osdu import OPDU, OSDU


def osdu(seq, size=100):
    return OSDU(size_bytes=size, payload=seq, opdu=OPDU(seq))


def run_interval(sim, buf, n_due, length):
    """Grant ``buf`` an interval of ``n_due`` ticks over ``length``
    seconds from now, on an exact clock (tick ``k`` falls at ``now +
    length * k / n_due``), and run the interval's process, which hands
    the last tick's grant over as the LLO's does."""
    delivered = buf.last_delivered_seq
    start_seq = -1 if delivered is None else delivered
    schedule = MeterSchedule(buf, NodeClock(sim), start_seq, n_due, length,
                             max_drop=0, request_drop=None)
    buf.grant(schedule)
    sim.spawn(schedule.run())


class TestSharedCircularBuffer:
    def test_put_get_fifo(self, sim):
        buf = SharedCircularBuffer(sim, 4)
        got = []

        def producer():
            for i in range(3):
                yield from buf.put(osdu(i))

        def consumer():
            for _ in range(3):
                item = yield from buf.get()
                got.append(item.seq)

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert got == [0, 1, 2]

    def test_put_blocks_when_full_and_records_time(self, sim):
        buf = SharedCircularBuffer(sim, 1)

        def producer():
            yield from buf.put(osdu(0))
            yield from buf.put(osdu(1))
            return sim.now

        def consumer():
            yield Timer(sim).after(3.0)
            yield from buf.get()

        proc = sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert proc.finished.value == pytest.approx(3.0)
        assert buf.blocked_time(ROLE_APPLICATION) == pytest.approx(3.0)
        assert buf.blocked_time(ROLE_PROTOCOL) == 0.0

    def test_get_blocks_when_empty_and_records_time(self, sim):
        buf = SharedCircularBuffer(sim, 2)

        def consumer():
            item = yield from buf.get()
            return (sim.now, item.seq)

        def producer():
            yield Timer(sim).after(2.0)
            yield from buf.put(osdu(7))

        proc = sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert proc.finished.value == (pytest.approx(2.0), 7)
        assert buf.blocked_time(ROLE_PROTOCOL) == pytest.approx(2.0)

    def test_try_put_try_get(self, sim):
        buf = SharedCircularBuffer(sim, 1)
        assert buf.try_put(osdu(0))
        assert not buf.try_put(osdu(1))
        assert buf.try_get().seq == 0
        assert buf.try_get() is None

    def test_drop_oldest_unsent(self, sim):
        buf = SharedCircularBuffer(sim, 4)
        for i in range(3):
            buf.try_put(osdu(i))
        dropped = buf.drop_oldest_unsent()
        assert dropped.seq == 0
        assert buf.dropped_at_source == 1
        assert buf.try_get().seq == 1

    def test_drop_on_empty_returns_none(self, sim):
        buf = SharedCircularBuffer(sim, 2)
        assert buf.drop_oldest_unsent() is None

    def test_drop_frees_slot_for_immediate_overwrite(self, sim):
        buf = SharedCircularBuffer(sim, 1)
        buf.try_put(osdu(0))
        assert buf.drop_oldest_unsent() is not None
        assert buf.try_put(osdu(1))

    def test_flush_does_not_count_as_regulation_drops(self, sim):
        buf = SharedCircularBuffer(sim, 4)
        for i in range(3):
            buf.try_put(osdu(i))
        assert buf.flush() == 3
        assert buf.dropped_at_source == 0
        assert len(buf) == 0

    def test_reset_blocking_stats(self, sim):
        buf = SharedCircularBuffer(sim, 1)

        def consumer():
            yield from buf.get()

        sim.spawn(consumer())
        sim.call_after(1.0, lambda: buf.try_put(osdu(0)))
        sim.run()
        buf.reset_blocking_stats()
        assert buf.blocked_time(ROLE_PROTOCOL) == 0.0

    def test_zero_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            SharedCircularBuffer(sim, 0)


class TestGatedReceiveBuffer:
    def test_open_gate_delivers_immediately(self, sim):
        buf = GatedReceiveBuffer(sim, 4)
        buf.deposit(osdu(0))

        def taker():
            item = yield from buf.take()
            return (sim.now, item.seq)

        proc = sim.spawn(taker())
        sim.run()
        assert proc.finished.value == (0.0, 0)

    def test_closed_gate_blocks_even_with_data(self, sim):
        buf = GatedReceiveBuffer(sim, 4)
        buf.close_gate()
        buf.deposit(osdu(0))

        def taker():
            item = yield from buf.take()
            return sim.now

        proc = sim.spawn(taker())
        sim.run(until=5.0)
        assert not proc.finished.is_set
        buf.open_gate()
        sim.run()
        assert proc.finished.is_set

    def test_gate_close_does_not_leak_parked_taker(self, sim):
        """Regression: a taker parked before the gate closed must not
        consume the first deposit."""
        buf = GatedReceiveBuffer(sim, 4)
        taken = []

        def taker():
            while True:
                item = yield from buf.take()
                taken.append((sim.now, item.seq))

        sim.spawn(taker())
        sim.run(until=1.0)     # taker parks on the (empty, open) buffer
        buf.close_gate()
        buf.deposit(osdu(0))
        sim.run(until=5.0)
        assert taken == []
        buf.open_gate()
        sim.run(until=6.0)
        assert [seq for _t, seq in taken] == [0]

    def test_interrupted_taker_does_not_swallow_a_credit(self, sim):
        """Regression: a taker interrupted while parked behind a closed
        gate must leave it, so the first grant made afterwards goes to
        the next taker -- and the interrupted wait stops accruing."""
        buf = GatedReceiveBuffer(sim, 4)
        buf.close_gate()
        buf.deposit(osdu(0))
        taken = []

        def taker(name):
            try:
                item = yield from buf.take()
            except Interrupt:
                return
            taken.append((name, sim.now, item.seq))

        def meter_one_tick():
            buf.meter()
            run_interval(sim, buf, 1, 0.5)  # its one tick at 3.0

        first = sim.spawn(taker("first"))
        sim.call_at(1.0, first.interrupt)
        sim.call_at(2.0, lambda: sim.spawn(taker("second")))
        sim.call_at(2.5, meter_one_tick)
        sim.run(until=5.0)
        assert taken == [("second", 3.0, 0)]
        # first waited 0 -> 1, second 2 -> 3; nothing accrues afterwards.
        assert buf.blocked_time(ROLE_APPLICATION) == 2.0

    def test_a_second_reader_waiting_at_the_gate_is_an_error(self, sim):
        """The gate parks one reader; a second one that would wait
        there beside it is refused, and the first keeps its place."""
        buf = GatedReceiveBuffer(sim, 4)
        buf.close_gate()
        buf.deposit(osdu(0))
        outcome = []

        def taker(name):
            try:
                item = yield from buf.take()
            except SimulationError:
                outcome.append((name, "refused"))
                return
            outcome.append((name, sim.now, item.seq))

        sim.spawn(taker("first"))
        sim.call_at(1.0, lambda: sim.spawn(taker("second")))
        sim.call_at(2.0, buf.open_gate)
        sim.run(until=3.0)
        assert outcome == [("second", "refused"), ("first", 2.0, 0)]
        assert buf.blocked_time(ROLE_APPLICATION) == 2.0

    def test_metered_gate_paces_delivery(self, sim):
        buf = GatedReceiveBuffer(sim, 8)
        buf.meter()
        for i in range(4):
            buf.deposit(osdu(i))
        run_interval(sim, buf, 4, 4.0)
        taken = []

        def taker():
            while True:
                item = yield from buf.take()
                taken.append((sim.now, item.seq))

        sim.spawn(taker())
        sim.run()
        assert taken == [(1.0, 0), (2.0, 1), (3.0, 2), (4.0, 3)]

    def test_a_tick_the_sink_has_reached_grants_nothing(self, sim):
        """Tick k grants unless the delivered sequence is already at
        start_seq + k: a sequence gap (a source drop) puts the reader
        ahead of pace until the ticks catch up."""
        buf = GatedReceiveBuffer(sim, 8)
        buf.meter()
        for seq in (0, 2, 3):
            buf.deposit(osdu(seq))
        run_interval(sim, buf, 4, 4.0)
        taken = []

        def taker():
            while True:
                item = yield from buf.take()
                taken.append((sim.now, item.seq))

        sim.spawn(taker())
        sim.run()
        # After seq 0 at tick 1 and seq 2 at tick 2, tick 3 finds the
        # sink at start_seq + 3 already; seq 3 waits for tick 4.
        assert taken == [(1.0, 0), (2.0, 2), (4.0, 3)]

    def test_grant_on_non_metered_gate_is_ignored(self, sim):
        buf = GatedReceiveBuffer(sim, 4)
        buf.close_gate()
        run_interval(sim, buf, 5, 1.0)  # must not raise, must not leak
        buf.deposit(osdu(0))

        def taker():
            item = yield from buf.take()
            return item

        proc = sim.spawn(taker())
        sim.run(until=2.0)
        assert not proc.finished.is_set

    def test_meter_drains_stale_credits(self, sim):
        buf = GatedReceiveBuffer(sim, 4)
        buf.meter()
        run_interval(sim, buf, 3, 0.3)
        sim.run(until=1.0)  # all three ticks granted, none taken
        buf.meter()  # re-meter: the stale grants are gone
        run_interval(sim, buf, 0, 0.3)
        buf.deposit(osdu(0))

        def taker():
            item = yield from buf.take()
            return item.seq

        proc = sim.spawn(taker())
        sim.run(until=2.0)
        assert not proc.finished.is_set

    def test_overflow_drops_counted(self, sim):
        buf = GatedReceiveBuffer(sim, 2)
        assert buf.deposit(osdu(0))
        assert buf.deposit(osdu(1))
        assert not buf.deposit(osdu(2))
        assert buf.overflow_drops == 1

    def test_when_full_fires(self, sim):
        buf = GatedReceiveBuffer(sim, 2)

        def waiter():
            yield buf.when_full()
            return sim.now

        proc = sim.spawn(waiter())
        sim.call_after(1.0, lambda: buf.deposit(osdu(0)))
        sim.call_after(2.0, lambda: buf.deposit(osdu(1)))
        sim.run()
        assert proc.finished.value == pytest.approx(2.0)

    def test_when_full_immediate_if_already_full(self, sim):
        buf = GatedReceiveBuffer(sim, 1)
        buf.deposit(osdu(0))

        def waiter():
            yield buf.when_full()
            return sim.now

        proc = sim.spawn(waiter())
        sim.run()
        assert proc.finished.value == 0.0

    def test_flush_discards_and_unfulls(self, sim):
        buf = GatedReceiveBuffer(sim, 2)
        buf.deposit(osdu(0))
        buf.deposit(osdu(1))
        assert buf.flush() == 2
        assert len(buf) == 0
        assert not buf.full

    def test_full_time_accumulates(self, sim):
        buf = GatedReceiveBuffer(sim, 1)
        sim.call_at(1.0, lambda: buf.deposit(osdu(0)))
        sim.call_at(4.0, buf.flush)
        sim.run()
        sim.run(until=10.0)
        assert buf.full_time() == pytest.approx(3.0)

    def test_last_delivered_seq_tracked(self, sim):
        buf = GatedReceiveBuffer(sim, 4)
        buf.deposit(osdu(5))

        def taker():
            yield from buf.take()

        sim.spawn(taker())
        sim.run()
        assert buf.last_delivered_seq == 5

    def test_on_take_callback(self, sim):
        buf = GatedReceiveBuffer(sim, 4)
        calls = []
        buf.on_take = lambda: calls.append(sim.now)
        buf.deposit(osdu(0))

        def taker():
            yield from buf.take()

        sim.spawn(taker())
        sim.run()
        assert len(calls) == 1

    def test_try_take_honours_gate(self, sim):
        buf = GatedReceiveBuffer(sim, 4)
        buf.deposit(osdu(0))
        buf.close_gate()
        assert buf.try_take() is None
        buf.open_gate()
        assert buf.try_take().seq == 0
        assert buf.try_take() is None
