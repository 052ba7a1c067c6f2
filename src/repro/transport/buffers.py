"""Shared circular buffers for continuous-media data transfer.

Paper section 3.7 rejects per-unit ``send()``/``recv()`` calls in
favour of "shared circular buffers with access contention between
separate application and protocol threads controlled by semaphores",
because:

- data location is implicit in the buffer pointers and no copying is
  involved;
- with compatible rates, no explicit producer/consumer synchronisation
  takes place (the semaphores never block);
- the blocking time of both the application and the transport entity
  can be measured by monitoring the semaphores -- statistics consumed
  by the orchestration service (section 6.3.1.2).

:class:`SharedCircularBuffer` is the source-side buffer.  It supports
the source-side *drop* used by ``Orch.Regulate``: "all such discards
are performed at the source by incrementing the source shared buffer
pointer" (section 6.3.1.1) -- :meth:`drop_oldest_unsent`.

:class:`GatedReceiveBuffer` is the sink-side buffer.  Delivery to the
application passes through a gate so the LLO can hold back data while
priming, stop it instantly, and pace it toward a regulation target by a
per-interval :class:`MeterSchedule` (sections 6.2 and 6.3).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from repro.obs.registry import SpanAccumulator
from repro.sim.scheduler import (
    Event,
    SimulationError,
    Simulator,
    Timer,
    TimerHandle,
    Waitable,
)
from repro.sim.sync import TimedSemaphore
from repro.transport.osdu import OSDU

#: Conventional role labels for the blocking-time statistics.
ROLE_APPLICATION = "application"
ROLE_PROTOCOL = "protocol"

_NEVER = float("inf")


class SharedCircularBuffer:
    """Source-side circular buffer between application and protocol.

    The application *puts* OSDUs (blocking while full); the protocol
    sender *gets* them (blocking while empty).  Both directions use
    :class:`~repro.sim.sync.TimedSemaphore` so blocked time per role is
    accounted.
    """

    def __init__(self, sim: Simulator, capacity: int):
        if capacity <= 0:
            raise SimulationError(f"buffer capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._slots: Deque[OSDU] = deque()
        self._space = TimedSemaphore(sim, capacity)
        self._items = TimedSemaphore(sim, 0)
        self.put_count = 0
        self.get_count = 0
        self.dropped_at_source = 0
        self.overwrites = 0

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._slots)

    def put(self, osdu: OSDU, role: str = ROLE_APPLICATION) -> Generator:
        """Coroutine: write one OSDU, blocking while the buffer is full."""
        yield self._space.acquire(role)
        self._commit_put(osdu)

    def try_put(self, osdu: OSDU) -> bool:
        """Non-blocking write; False when the buffer is full."""
        if not self._space.try_acquire():
            return False
        self._commit_put(osdu)
        return True

    def _commit_put(self, osdu: OSDU) -> None:
        self._slots.append(osdu)
        self.put_count += 1
        self._items.release()

    def get(self, role: str = ROLE_PROTOCOL) -> Generator:
        """Coroutine: read the oldest OSDU, blocking while empty."""
        yield self._items.acquire(role)
        osdu = self._slots.popleft()
        self.get_count += 1
        self._space.release()
        return osdu

    def try_get(self) -> Optional[OSDU]:
        if not self._items.try_acquire():
            return None
        osdu = self._slots.popleft()
        self.get_count += 1
        self._space.release()
        return osdu

    def drop_oldest_unsent(self) -> Optional[OSDU]:
        """Discard the oldest queued OSDU (Orch.Regulate source drop).

        Frees a slot immediately, so "the source application thread
        [may] immediately insert another OSDU".  Returns the discarded
        OSDU, or None when nothing was queued.
        """
        if not self._items.try_acquire():
            return None
        osdu = self._slots.popleft()
        self.dropped_at_source += 1
        self._space.release()
        return osdu

    def flush(self) -> int:
        """Discard everything queued (Orch.Prime buffer clean-out)."""
        flushed = 0
        while self.drop_oldest_unsent() is not None:
            flushed += 1
        # Flushes are administrative, not regulation drops.
        self.dropped_at_source -= flushed
        self.overwrites += flushed
        return flushed

    def retract(self, osdu: OSDU) -> bool:
        """Remove a specific just-committed OSDU (stale-write retraction).

        Used when a writer that was blocked in :meth:`put` across a
        flush commits a unit from before the flush.  Fails (False) when
        the unit is gone or its item grant has already been handed to a
        waiting consumer.
        """
        if osdu not in self._slots:
            return False
        if not self._items.try_acquire():
            return False
        self._slots.remove(osdu)
        self.overwrites += 1
        self._space.release()
        return True

    def blocked_time(self, role: str) -> float:
        """Seconds ``role`` has spent blocked on this buffer."""
        return self._space.blocked_time(role) + self._items.blocked_time(role)

    def reset_blocking_stats(self) -> None:
        self._space.reset_stats()
        self._items.reset_stats()


class MeterSchedule:
    """One regulation interval at the sink (section 6.3.1.1).

    The paper fixes an interval's target, its ``max_drop`` budget and
    its end report; how delivery is paced inside it is ours.  The
    interval runs ``length`` seconds of the sink's *local* clock from
    ``start_local``, the clock's reading when the schedule is made.
    Tick ``k`` (1..``n_due``) falls at local ``start_local + length *
    k / n_due``.  The sink is behind at tick ``k`` unless the
    ``buffer``'s delivered sequence has reached ``start_seq + k``
    (:meth:`reached`).  A tick the sink is behind at grants one
    delivery -- the gate replays that rule when it next looks,
    :meth:`GatedReceiveBuffer.replay` -- and, when the buffer is empty
    and budget is left, spends one unit of the drop budget at the
    source (``request_drop``), checked here at the tick's instant.

    ``times[k]`` is tick ``k``'s simulator instant (``times[0]`` the
    start), each derived from the one before exactly as a process
    sleeping tick to tick on the clock would compute it
    (:meth:`~repro.sim.clock.NodeClock.tick_times`).  A clock step or
    rate change recomputes, in place, every instant such a sleeper
    would not yet have computed, and re-arms every wake-up.  A change
    in a tick's own instant comes before that tick unless the tick has
    been acted on (see :meth:`GatedReceiveBuffer.replay`).

    The schedule is live once made: it follows the clock and arms its
    drop check at once, ahead of the reader's wake-ups.  :meth:`run`
    is the interval's process.
    """

    __slots__ = ("clock", "buffer", "start_seq", "n_due", "length",
                 "start_local", "times", "max_drop", "request_drop", "drops",
                 "_checked", "_check", "_pace", "_wake")

    def __init__(self, buffer: "GatedReceiveBuffer", clock, start_seq: int,
                 n_due: int, length: float, max_drop: int,
                 request_drop: Optional[Callable[[], None]]):
        self.clock = clock
        self.buffer = buffer
        self.start_seq = start_seq
        self.n_due = n_due
        self.length = length
        self.start_local = clock.now()
        now = clock.sim.now
        self.times = array("d", (now,))
        self.times += clock.tick_times(now, self.start_local, length, n_due)
        self.max_drop = max_drop
        self.request_drop = request_drop
        self.drops = 0
        self._checked = 0  # ticks whose drop check is settled
        self._check: Optional[TimerHandle] = None  # made when first needed
        self._pace = Timer(clock.sim)
        # The process wakes at tick n_due - 1 to arm tick n_due, as a
        # tick-to-tick sleeper would: at an instant several intervals
        # share, the ends then run in the order such sleepers' would.
        self._wake = max(n_due - 1, 1)
        if n_due:
            self._arm_check()
            self._pace.at(self.times[self._wake])
            clock.watch(self._clock_changed)

    def reached(self) -> int:
        """How many of the ticks the delivered sequence has reached."""
        delivered = self.buffer.last_delivered_seq
        return (-1 if delivered is None else delivered) - self.start_seq

    def run(self) -> Generator:
        """Coroutine: the interval's process.

        It wakes at the last two ticks, and at the last one hands that
        tick's grant to the gate itself, so intervals that end in the
        same instant wake their readers in the same order as
        tick-to-tick sleepers did.  Then it sleeps to the interval end.
        """
        n_due = self.n_due
        times = self.times
        pace = self._pace
        while self._wake <= n_due:
            yield pace
            self._check_ticks()
            if self._checked == n_due:
                self.buffer.replay()
            check = self._check
            if check is not None and check.scheduled:
                self._arm_check()
            # Ticks due by now are done; none of them is slept for again.
            self._wake = max(self._wake, self._checked) + 1
            if self._wake <= n_due:
                pace.at(times[self._wake])
        if n_due:
            if self._check is not None:
                self._check.cancel()
            # Every instant is final by now.
            self.clock.unwatch(self._clock_changed)
        remaining_local = self.start_local + self.length - self.clock.now()
        if remaining_local > 0:
            yield pace.after(self.clock.sim_duration(remaining_local))

    def _clock_changed(self) -> None:
        times = self.times
        now = self.clock.sim.now
        # A sleeper past tick j has derived times[j + 1].  It is past the
        # start, every tick before now, and a tick in this very instant
        # only once that tick has been acted on: a change in a tick's
        # own instant otherwise comes first, as a change scheduled
        # before the tick's wake-up was armed would.
        j = self._checked
        if self.buffer._schedule is self:
            j = max(j, self.buffer._ticked)
        while j + 1 < len(times) and times[j + 1] < now:
            j += 1
        k = j + 2
        if k < len(times):
            times[k:] = self.clock.tick_times(
                times[k - 1], self.start_local, self.length, self.n_due, k)
        self._arm_check()
        if times[self._wake] != self._pace.when:
            self._pace.at(times[self._wake])
        if self.buffer._schedule is self:
            self.buffer._schedule_moved()

    # -- the drop check ------------------------------------------------------

    def _check_ticks(self) -> None:
        """Run the drop check of every tick due by now, in order."""
        buffer = self.buffer
        times = self.times
        n_due = self.n_due
        now = self.clock.sim.now
        k = self._checked
        if self.drops >= self.max_drop or len(buffer):
            # Nothing can fire: settle every tick due by now at once.
            self._checked = max(k, bisect_right(times, now, k, n_due + 1) - 1)
            return
        while k < n_due and times[k + 1] <= now:
            k += 1
            if (self.drops < self.max_drop and not len(buffer)
                    and self.reached() < k):
                # Behind target with nothing to deliver.
                self.drops += 1
                self.request_drop()
        self._checked = k

    def _arm_check(self) -> None:
        """Arm the drop check at the first tick the sink would be
        behind at, while the buffer stays empty and budget is left."""
        if self.drops < self.max_drop and not len(self.buffer):
            k = max(self._checked, self.reached()) + 1
            if k <= self.n_due:
                check = self._check
                if check is None:
                    check = self._check = TimerHandle(
                        self.clock.sim, self._on_check)
                if not check.scheduled or check.when != self.times[k]:
                    check.reschedule(self.times[k])
                return
        if self._check is not None:
            self._check.cancel()

    def _on_check(self) -> None:
        self._check_ticks()
        self._arm_check()

    def _drained(self) -> None:
        """A take or flush emptied the buffer; the ticks due so far
        found it not yet empty."""
        checked = self._checked
        if checked == self.n_due:
            return
        self._checked = max(checked, bisect_right(
            self.times, self.clock.sim.now, checked, self.n_due + 1) - 1)
        self._arm_check()


class _Gate(Timer):
    """Where a :class:`GatedReceiveBuffer`'s reader parks on its gate.

    Armed at the schedule's next tick while metered, at once when the
    gate opens, and not at all while no tick can grant; the last tick's
    grant is handed over by the schedule's process
    (:meth:`MeterSchedule.run`).  One reader at a time: a second reader
    parking here while the first waits is an error.  An interrupted
    reader leaves through :meth:`_discard`.
    """

    __slots__ = ("_buffer",)

    def __init__(self, buffer: "GatedReceiveBuffer"):
        super().__init__(buffer.sim)
        self._buffer = buffer

    def arm(self, when: float) -> None:
        """Arm for ``when``, keeping a pending firing already there."""
        handle = self._handle
        if not handle._live or handle.when != when:
            handle.reschedule(when)

    def _park(self, process) -> None:
        self._waiter = process  # armed or not

    def _discard(self, process) -> None:
        super()._discard(process)
        self._buffer._reader_left()


class GatedReceiveBuffer:
    """Sink-side buffer with an LLO-controlled delivery gate.

    The protocol *deposits* arriving OSDUs (never blocking -- overflow
    is dropped and counted, since a CM receiver cannot push back on the
    wire instantaneously).  The application *takes* OSDUs, which blocks
    while the buffer is empty **or the gate withholds delivery**.

    Gate states:

    - *open* (default): delivery is immediate.
    - *closed*: no delivery at all (``Orch.Prime`` filling phase,
      ``Orch.Stop``).
    - *metered*: delivery is paced toward a regulation target by the
      :class:`MeterSchedule` the LLO grants once per interval.

    A metered reader works out how many grants the schedule has made
    by now, replaying each elapsed tick's rule against the delivered
    sequence as it stood then.  That is exact because only a take moves
    the sequence, and every take replays first.  Grants not yet taken
    are credit; re-metering or closing the gate drains it.  Only a
    reader that is ahead of pace parks, on one timer at the next tick.
    """

    def __init__(self, sim: Simulator, capacity: int):
        if capacity <= 0:
            raise SimulationError(f"buffer capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._slots: Deque[OSDU] = deque()
        self._items = TimedSemaphore(sim, 0)
        self._metered = False
        self._open = True
        # Metering state: the interval's schedule, how many of its ticks
        # have been replayed, the grants not yet taken, and whether one
        # went straight to the parked reader (draining cannot take it).
        self._schedule: Optional[MeterSchedule] = None
        self._ticked = 0
        self._due = _NEVER  # the instant of the next tick to replay
        self._credit = 0
        self._handed = False
        # A taker with credit passes through this set Event: one
        # zero-delay hop, as an acquire of a free semaphore unit.
        self._passed = Event(sim)
        self._passed.set(None)
        self._gate = _Gate(self)
        # The reader's time parked on the gate, per role; the token of
        # the open span is None while nobody waits there.
        self._gate_waits = SpanAccumulator("recvbuf.gate", sim._clock)
        self._gate_token: Optional[int] = None
        self.deposited = 0
        self.overflow_drops = 0
        self.delivered = 0
        # Full/congested occupancy accounting: open-interval spans in a
        # windowed accumulator (repro.obs), so in-progress intervals are
        # included when the orchestrator samples mid-interval.
        self._occupancy = SpanAccumulator("recvbuf.occupancy", sim._clock)
        self._full_token: Optional[int] = None
        self._congested_token: Optional[int] = None
        self.last_delivered_seq: Optional[int] = None
        self._full_event: Optional[Event] = None
        #: Invoked after every successful application take; the receive
        #: VC uses it to return flow-control credits to the source.
        self.on_take: Optional[Any] = None

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._slots)

    @property
    def full(self) -> bool:
        return len(self._slots) >= self.capacity

    @property
    def congested(self) -> bool:
        """Effectively full: within one slot of capacity."""
        return len(self._slots) >= max(self.capacity - 1, 1)

    # -- protocol side ---------------------------------------------------

    def deposit(self, osdu: OSDU) -> bool:
        """Protocol-side insert; False (and a drop) on overflow."""
        if self.full:
            self.overflow_drops += 1
            return False
        self._slots.append(osdu)
        self.deposited += 1
        self._items.release()
        if self.congested and self._congested_token is None:
            self._congested_token = self._occupancy.begin("congested")
        if self.full:
            if self._full_token is None:
                self._full_token = self._occupancy.begin("full")
            if self._full_event is not None and not self._full_event.is_set:
                self._full_event.set(None)
        return True

    def when_full(self) -> Waitable:
        """Waitable that fires when the buffer reaches capacity.

        Used by the LLO's priming logic: "the sink LLOs allow the
        receiver's communications buffers to fill ... When the receive
        buffers are eventually full, each sink LLO notifies the LLO"
        (section 6.2.1).
        """
        ev = Event(self.sim)
        if self.full:
            ev.set(None)
        else:
            self._full_event = ev
        return ev

    # -- gate control (LLO) ------------------------------------------------

    def close_gate(self) -> None:
        """Withhold all delivery (prime / stop)."""
        self.replay(through_now=False)
        self._open = False
        self._metered = False
        self._credit = 0
        self._arm_gate()

    def open_gate(self) -> None:
        """Unrestricted delivery."""
        self.replay(through_now=False)
        self._open = True
        self._metered = False
        self._credit = 0
        if self._gate_token is not None:
            self._handed = True
            self._gate.arm(self.sim.now)

    def meter(self) -> None:
        """Switch to scheduled pacing (regulation); drains stale credit."""
        self.replay(through_now=False)
        self._open = False
        self._metered = True
        self._credit = 0
        self._arm_gate()

    def grant(self, schedule: MeterSchedule) -> None:
        """Pace delivery by ``schedule`` while metered.

        A schedule handed to a gate that is not metered is ignored.
        Closing or re-opening the gate later stops the schedule's
        grants; re-metering drains what it granted, and the grants of
        its remaining ticks count again.
        """
        if not self._metered:
            return
        self.replay(through_now=False)
        self._schedule = schedule
        self._ticked = 0
        self._schedule_moved()

    @property
    def gate_state(self) -> str:
        if self._open:
            return "open"
        return "metered" if self._metered else "closed"

    def _schedule_moved(self) -> None:
        """The schedule is new, or a clock change moved its ticks."""
        schedule = self._schedule
        k = self._ticked
        self._due = schedule.times[k + 1] if k < schedule.n_due else _NEVER
        self._arm_gate()

    def replay(self, through_now: bool = True) -> None:
        """Apply the rule of every tick due by now, in order.

        Tick ``k`` grants unless the delivered sequence has reached
        ``start_seq + k``; grants count only while metered.  The first
        grant while a reader is parked is handed to it, and wakes it
        (with its own timer, if that is already due now).

        The reader and the schedule act after a tick in its own instant.
        A gate change or a poll comes before it (``through_now=False``),
        as one scheduled before the tick's wake-up was armed would,
        unless something has acted on that tick already.
        """
        now = self.sim._now
        due = self._due
        if due > now or (due == now and not through_now):
            return
        schedule = self._schedule
        times = schedule.times
        n_due = schedule.n_due
        line = schedule.reached()
        k = self._ticked
        while k < n_due and (times[k + 1] < now
                             or (through_now and times[k + 1] == now)):
            k += 1
            if self._metered and line < k:
                if self._gate._waiter is not None and not self._handed:
                    self._handed = True
                    self._gate.arm(now)
                else:
                    self._credit += 1
        self._ticked = k
        self._due = times[k + 1] if k < n_due else _NEVER

    def _arm_gate(self) -> None:
        """Set the parked reader's wake-up: the next tick that may grant."""
        if self._gate_token is None or self._handed:
            return
        schedule = self._schedule
        if self._metered and schedule is not None:
            # Parked, the reader moves the delivered sequence no more:
            # the ticks it has already reached grant nothing.  The last
            # tick's grant comes from the schedule's process.
            k = max(self._ticked, schedule.reached()) + 1
            if k < schedule.n_due:
                self._gate.arm(schedule.times[k])
                return
        self._gate.cancel()

    def _reader_left(self) -> None:
        """An interrupted reader left the gate: close its wait, and keep
        a grant handed to it."""
        self._end_gate_wait()
        if self._handed:
            self._handed = False
            self._credit += 1

    # -- application side --------------------------------------------------

    def take(self, role: str = ROLE_APPLICATION) -> Generator:
        """Coroutine: deliver the next OSDU to the application.

        Blocks while no item is available or the gate withholds
        delivery.  The gate is passed *before* the item wait so that a
        closed gate blocks even when data is sitting in the buffer:
        with credit, through one zero-delay hop (as a semaphore with a
        free unit); without, parked until a tick grants or the gate
        opens.  When the gate is open no grant is needed -- but if the
        gate closes while the taker is parked on the item semaphore,
        the item is handed back and the taker re-queues through the
        gate (otherwise one delivery would leak past every gate
        closure).  One reader waits at the gate at a time (the sink's
        one application thread, section 3.7): a second one that would
        wait beside it gets :class:`SimulationError`.
        """
        sim = self.sim
        while True:
            if not self._open:
                if self._due <= sim._now:
                    self.replay()
                if self._credit:
                    self._credit -= 1
                    yield self._passed
                else:
                    if self._gate_token is not None:
                        raise SimulationError(
                            "a reader is already waiting at this gate")
                    self._gate_token = self._gate_waits.begin(role)
                    while True:
                        self._arm_gate()
                        yield self._gate
                        if self._due <= sim._now:
                            self.replay()
                        if self._handed:
                            self._handed = False
                            break
                        if self._credit:
                            self._credit -= 1
                            break
                    self._end_gate_wait()
                yield self._items.acquire(role)
                break
            yield self._items.acquire(role)
            if self._open:
                break
            self._items.release()
        return self._deliver()

    def _end_gate_wait(self) -> None:
        self._gate_waits.end(self._gate_token)
        self._gate_token = None

    def try_take(self) -> Optional[OSDU]:
        """Non-blocking take, honouring the gate."""
        if not self._open:
            self.replay(through_now=False)
            if not self._credit or not self._items.try_acquire():
                return None
            self._credit -= 1
        elif not self._items.try_acquire():
            return None
        return self._deliver()

    def _deliver(self) -> OSDU:
        osdu = self._slots.popleft()
        self._note_not_full()
        self.delivered += 1
        if osdu.opdu is not None:
            # The delivered sequence moves: replay the ticks due so far
            # against where it stood.
            if self._due <= self.sim._now:
                self.replay()
            self.last_delivered_seq = osdu.opdu.osdu_seq
        if self.on_take is not None:
            self.on_take()
        if not self._slots:
            self._drained()
        return osdu

    def flush(self) -> int:
        """Discard buffered OSDUs (seek: "without old data being left
        in the communications buffers", section 3.6)."""
        flushed = 0
        while self._items.try_acquire():
            self._slots.popleft()
            flushed += 1
        self._note_not_full()
        self._full_event = None
        if not self._slots:
            self._drained()
        return flushed

    def _drained(self) -> None:
        if self._schedule is not None:
            self._schedule._drained()

    def _note_not_full(self) -> None:
        if self._full_token is not None and not self.full:
            self._occupancy.end(self._full_token)
            self._full_token = None
        if self._congested_token is not None and not self.congested:
            self._occupancy.end(self._congested_token)
            self._congested_token = None

    def full_time(self) -> float:
        """Cumulative seconds the buffer has been completely full.

        Used as the sink-side *protocol* blocking statistic: a full
        receive buffer means the protocol could not hand data onward
        because the application was slow to consume (section 6.3.1.2).
        Includes a still-open full interval up to now.
        """
        return self._occupancy.total("full")

    def congested_time(self) -> float:
        """Cumulative seconds the buffer sat effectively full.

        The sink-side congestion statistic: a persistently near-full
        receive buffer means the application is the bottleneck.
        Includes a still-open congested interval up to now.
        """
        return self._occupancy.total("congested")

    def blocked_time(self, role: str) -> float:
        return self._items.blocked_time(role) + self._gate_waits.total(role)

    def reset_blocking_stats(self) -> None:
        self._items.reset_stats()
        self._gate_waits.reset()
