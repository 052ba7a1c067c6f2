"""Event scheduler and process model for the virtual-time kernel.

The core is a pair of binary heaps driven through cancellable,
reschedulable handles, with generator coroutines on top -- written
from scratch so the reproduction has no runtime dependencies beyond
the standard library.

Every entry is one ``(when, priority, seq, gen, handle)`` tuple, and
the kernel's one contract is that entries fire in ``(when, priority,
seq)`` order.  Entries live in one of two ``heapq`` lists, split at a
moving virtual instant, the *horizon*:

- the **near heap** (``_heap``) holds every entry before the horizon.
  Dispatch pops its head; the serialisation, propagation, pacing and
  NACK timers continuous-media traffic is made of land here.
- the **far heap** (``_far``) holds the rest: retry ladders, session
  deadlines, benchmark ballast.  Keeping it apart keeps the near heap
  shallow, so a near push or pop does not climb through thousands of
  far-future entries.

When the near heap drains, the horizon moves to ``_FAR`` seconds past
the far heap's head, and every far entry before it moves across.
Entries leave the far heap in order, so moving them is an append that
keeps the near heap a heap.  Every near entry precedes every far entry,
so the near heap's head is the next event overall: the order
dispatched is exactly the one a single heap over the same tuples gives.

A :class:`Process` wraps a generator.  The generator ``yield``\\ s
*waitables*; the process resumes when the waitable fires and receives the
waitable's value as the result of the ``yield`` expression::

    def sender(sim):
        pace = Timer(sim)
        yield pace.after(0.02)                   # sleep 20 ms of virtual time
        value = yield some_event                 # wait for an Event
        fired, value = yield reply.within(0.5)   # ... for at most 0.5 s
        result = yield child                     # join another Process

The kernel's timers are reusable, so hot paths (per-OSDU pacing, NACK
deadlines, sample periods) allocate nothing per event:

- :class:`Timer` -- a re-armable one-shot waitable.  A protocol loop
  owns one and yields ``timer.after(delay)`` each iteration; the single
  underlying :class:`TimerHandle` is rescheduled in place.
- :class:`PeriodicTimer` -- fires a callback every ``period`` seconds,
  re-arming one handle per tick.

Waking a process allocates nothing either: a :class:`Process` parks
itself on an :class:`Event` or :class:`Timer` and is woken by re-arming
its own handle at the current instant, priority 0 -- the entry
``call_soon`` would make, so the dispatch order is the same.  A
deadline wait (:meth:`Event.within`) parks the same way and arms a
second handle the process owns at the deadline; whichever fires first
cancels the other.

Every scheduling call returns a :class:`TimerHandle` with O(1)
``cancel()`` and O(log n) ``reschedule()``.  Cancelled or superseded
entries are reclaimed lazily: they are dropped when they surface, and
each heap is swept in one pass whenever more than half of it is dead.

Reentrancy contract: callbacks run from ``run()``/``step()`` may
schedule, cancel and reschedule freely -- including operations that
trigger a sweep -- and never observe a half-swept heap.  Both heaps
are only ever mutated in place (a sweep filters by slice assignment),
so the dispatch loop's alias of the near heap stays valid across any
callback, and a sweep runs only from a scheduling call, never while
the dispatch loop is between reading a head and popping it.

Time is a float in **seconds** throughout the code base.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Generator, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


#: Heap size below which dead entries are never swept: rebuilding a
#: tiny heap costs more than skipping its corpses on pop.
_COMPACT_MIN_HEAP = 128

#: How far past the far heap's head the horizon moves when the near heap
#: drains (seconds).  It covers the serialisation, propagation, pacing,
#: recovery and sample-period timers, so those stay in the near heap.
#: A batching knob, not a correctness knob: any positive width gives
#: the same dispatch order.
_FAR = 4.0

_INF = float("inf")


def _sweep(heap: list) -> None:
    """Drop every dead entry from ``heap`` in one O(n) pass, in place."""
    heap[:] = [
        entry for entry in heap
        if entry[4]._live and entry[3] == entry[4]._gen
    ]
    heapify(heap)


class TimerHandle:
    """Cancellable, reschedulable handle for one scheduled callback.

    A handle owns its callback for life and can be re-armed any number
    of times (:meth:`reschedule`), which is what makes zero-allocation
    periodic work possible.  Heap entries carry the generation counter
    at push time; cancelling or rescheduling bumps the live generation,
    so superseded entries are recognised and discarded when they
    surface at the top of the heap.
    """

    __slots__ = ("sim", "priority", "when", "_fn", "_gen", "_live", "_cancelled")

    def __init__(self, sim: "Simulator", fn: Callable[[], None], priority: int = 0):
        self.sim = sim
        self.priority = priority
        #: Absolute virtual time of the pending (or most recent) firing.
        self.when: Optional[float] = None
        self._fn = fn
        self._gen = 0
        self._live = False
        self._cancelled = False

    @property
    def scheduled(self) -> bool:
        """True while a firing is pending on the heap."""
        return self._live

    @property
    def cancelled(self) -> bool:
        """True after :meth:`cancel` (cleared by a later reschedule)."""
        return self._cancelled

    def cancel(self) -> None:
        """Retract the pending firing, if any.  O(1); idempotent."""
        self._cancelled = True
        if self._live:
            self._live = False
            self.sim._note_dead(self.when)

    def reschedule(self, when: float) -> "TimerHandle":
        """(Re-)arm the handle at absolute time ``when``.  O(log n).

        Works on idle, pending, cancelled and already-fired handles; a
        pending firing is superseded in place.
        """
        self.sim._push(self, when)
        return self

    def reschedule_after(self, delay: float) -> "TimerHandle":
        """(Re-)arm the handle ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.reschedule(self.sim._now + delay)


class Simulator:
    """A discrete-event simulator with a virtual clock.

    Events are ``(time, priority, seq, gen, handle)`` tuples; the
    ``seq`` counter makes ordering of simultaneous events deterministic
    (FIFO within equal time and priority, including reschedules:
    re-arming for the same instant re-enqueues behind its
    contemporaries).  Storage is a near and a far heap split at
    ``_horizon`` (see the module docstring); the total order dispatched
    is exactly the one a single global heap over the same tuples would
    produce.
    """

    def __init__(self) -> None:
        #: Near heap: every entry before ``_horizon``; dispatch pops it.
        self._heap: list[tuple[float, int, int, int, TimerHandle]] = []
        #: Far heap: every entry at or after ``_horizon``.
        self._far: list[tuple[float, int, int, int, TimerHandle]] = []
        self._horizon = _FAR
        # Dead (cancelled or superseded) entries still in each heap:
        # ``pending_events`` subtracts them, and each drives its heap's
        # sweep.
        self._dead = 0
        self._far_dead = 0
        self._seq = itertools.count()
        # Bound method of the seq counter: _push runs for every event,
        # and the global next() lookup is measurable there.
        self._next_seq = self._seq.__next__
        self._now = 0.0
        self._running = False
        self.process_count = 0
        #: Observability hooks.  ``trace`` is the no-op tracer until a
        #: runtime installs a real one (see ``Runtime.enable_tracing``);
        #: instrumented call sites throughout the stack guard with
        #: ``if sim.trace.enabled:`` so the disabled path costs one
        #: attribute load and branch.  The metrics registry is always
        #: live (counters are plain attribute adds).
        self.trace = NULL_TRACER
        self.metrics = MetricsRegistry(self._clock)
        #: QoS conformance auditor; None until a runtime installs one
        #: (see ``Runtime.enable_audit``).  Call sites guard with
        #: ``if sim.auditor is not None:`` -- the auditor, like the
        #: tracer, only records in memory and never schedules events.
        self.auditor = None
        #: Wall-clock span profiler; None until a runtime installs one
        #: (see ``Runtime.enable_profiling``).  Guarded the same way at
        #: each instrumented site, so disabled it costs one attribute
        #: load and a branch -- never an extra Python call.
        self.profile = None

    def _clock(self) -> float:
        return self._now

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- scheduling --------------------------------------------------------

    def call_at(
        self, when: float, fn: Callable[[], None], priority: int = 0
    ) -> TimerHandle:
        """Schedule ``fn()`` at absolute virtual time ``when``."""
        handle = TimerHandle(self, fn, priority)
        self._push(handle, when)
        return handle

    def call_after(
        self, delay: float, fn: Callable[[], None], priority: int = 0
    ) -> TimerHandle:
        """Schedule ``fn()`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, fn, priority)

    def call_soon(self, fn: Callable[[], None], priority: int = 0) -> TimerHandle:
        """Schedule ``fn()`` at the current time (after pending events)."""
        return self.call_at(self._now, fn, priority)

    def _push(self, handle: TimerHandle, when: float) -> None:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when:.9f}, now is {self._now:.9f}"
            )
        if handle._live:
            # Supersede the pending entry in place.
            handle._live = False
            self._note_dead(handle.when)
        handle._gen += 1
        handle._live = True
        handle._cancelled = False
        handle.when = when
        entry = (when, handle.priority, self._next_seq(), handle._gen, handle)
        if when < self._horizon:
            _heappush(self._heap, entry)
        elif when + _FAR > when:
            _heappush(self._far, entry)
        else:
            # NaN, infinity, or so large that the horizon could never
            # move past it.
            handle._live = False
            raise SimulationError(f"cannot schedule at {when!r}")

    # -- dead-entry reclamation --------------------------------------------

    def _note_dead(self, when: float) -> None:
        """Account one cancelled/superseded entry scheduled at ``when``.

        ``when`` says which heap holds the entry: before the horizon
        the near heap, otherwise the far one.  A heap more than half
        dead is swept.
        """
        if when < self._horizon:
            self._dead += 1
            if self._dead * 2 > len(self._heap) >= _COMPACT_MIN_HEAP:
                _sweep(self._heap)
                self._dead = 0
        else:
            self._far_dead += 1
            if self._far_dead * 2 > len(self._far) >= _COMPACT_MIN_HEAP:
                _sweep(self._far)
                self._far_dead = 0

    def _refill(self) -> bool:
        """Refill the drained near heap from the far heap.

        Moves the horizon ``_FAR`` past the far head and every live far
        entry before it across, and repeats while all it met were dead.
        Returns False when nothing is left to run.  Runs no user code.
        """
        far = self._far
        heap = self._heap
        while far and not heap:
            self._horizon = horizon = far[0][0] + _FAR
            while far and far[0][0] < horizon:
                entry = _heappop(far)
                handle = entry[4]
                if handle._live and entry[3] == handle._gen:
                    heap.append(entry)  # popped in order: still a heap
                else:
                    self._far_dead -= 1
        return bool(heap)

    # -- execution ---------------------------------------------------------

    def spawn(
        self, gen: Generator[Any, Any, Any], name: Optional[str] = None
    ) -> "Process":
        """Start a new process running generator ``gen``."""
        return Process(self, gen, name=name)

    def run(self, until: Optional[float] = None) -> float:
        """Run events until none remain or ``until`` is reached.

        Returns the virtual time at which the run stopped.  When ``until``
        is given the clock is advanced to exactly ``until`` even if the
        last event fires earlier, so repeated ``run(until=...)`` calls
        observe a monotonic clock.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        # ``heap`` stays valid across callbacks: sweeps and refills
        # mutate the list in place, never rebind self._heap.
        heap = self._heap
        stop = _INF if until is None else until
        # Hoisted: enabling profiling mid-run takes effect on the next
        # run() call; the unprofiled loop stays branch-identical.
        prof = self.profile
        try:
            while heap or self._refill():
                entry = heap[0]
                when = entry[0]
                if when > stop:
                    break
                _heappop(heap)
                handle = entry[4]
                if handle._live and entry[3] == handle._gen:
                    self._now = when
                    handle._live = False
                    if prof is None:
                        handle._fn()
                    else:
                        _t0 = prof.clock()
                        handle._fn()
                        prof.add("scheduler.dispatch", _t0, prof.clock())
                else:
                    self._dead -= 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
        return self._now

    def step(self) -> bool:
        """Execute a single event.  Returns False when none remain."""
        heap = self._heap
        while heap or self._refill():
            when, _prio, _seq, gen, handle = _heappop(heap)
            if handle._live and gen == handle._gen:
                self._now = when
                handle._live = False
                handle._fn()
                return True
            self._dead -= 1
        return False

    @property
    def pending_events(self) -> int:
        """Number of scheduled (non-cancelled) events.  O(1)."""
        return (len(self._heap) + len(self._far)
                - self._dead - self._far_dead)

    def next_event_time(self) -> Optional[float]:
        """The exact fire time of the next live event, or ``None``.

        Drops dead heads and refills the near heap as dispatch would,
        which changes no order, so it is safe to call between
        ``run(until=...)`` windows (the shard coordinator uses it to
        pick the next synchronization horizon).
        """
        heap = self._heap
        while heap or self._refill():
            entry = heap[0]
            handle = entry[4]
            if handle._live and entry[3] == handle._gen:
                return entry[0]
            _heappop(heap)
            self._dead -= 1
        return None


class Waitable:
    """Base class for things a process generator may ``yield``."""

    __slots__ = ()


class Timer(Waitable):
    """A reusable one-shot timer waitable for hot loops.

    Allocate one per protocol machine and re-arm it per event::

        pace = Timer(sim)
        while True:
            yield pace.after(slot_delay)      # no allocation per slot

    At most one process may wait on it at a time.  An interrupt
    detaches the waiter and cancels the underlying handle, so no
    orphaned firing stays on the heap.
    """

    __slots__ = ("sim", "value", "_handle", "_waiter")

    def __init__(self, sim: Simulator, priority: int = 0):
        self.sim = sim
        self.value: Any = None
        self._waiter: Optional[Process] = None
        self._handle = TimerHandle(sim, self._fire, priority)

    @property
    def scheduled(self) -> bool:
        return self._handle.scheduled

    @property
    def when(self) -> Optional[float]:
        """The instant the timer is (or was last) armed for."""
        return self._handle.when

    def after(self, delay: float, value: Any = None) -> "Timer":
        """Arm (or re-arm) to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative timer delay {delay}")
        return self.at(self.sim.now + delay, value)

    def at(self, when: float, value: Any = None) -> "Timer":
        """Arm (or re-arm) to fire at absolute time ``when``."""
        self.value = value
        self._handle.reschedule(when)
        return self

    def cancel(self) -> None:
        self._handle.cancel()

    def _fire(self) -> None:
        waiter, self._waiter = self._waiter, None
        if waiter is not None:
            waiter._resume(self.value)

    def _park(self, process: "Process") -> None:
        if self._waiter is not None:
            raise SimulationError("Timer already has a waiter")
        if not self._handle._live:
            raise SimulationError("Timer must be armed (after/at) before waiting")
        self._waiter = process

    def _discard(self, process: "Process") -> None:
        self._waiter = None
        self._handle.cancel()


class PeriodicTimer:
    """Calls ``fn`` every ``period`` seconds without per-tick allocation.

    The workhorse for rate pacing, QoS sample periods and regulation
    intervals: one :class:`TimerHandle` is re-armed per tick, so a tick
    allocates nothing.  Tick times accumulate
    exactly (``start + k * period``), so boundaries do not drift.

    ``fn`` runs after the next tick is armed and may call :meth:`stop`.
    """

    __slots__ = ("sim", "_period", "_fn", "_handle", "_next", "_running")

    def __init__(
        self,
        sim: Simulator,
        period: float,
        fn: Callable[[], None],
        priority: int = 0,
    ):
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        self.sim = sim
        self._period = period
        self._fn = fn
        self._handle = TimerHandle(sim, self._tick, priority)
        self._next: Optional[float] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    @property
    def period(self) -> float:
        return self._period

    def start(self, first_delay: Optional[float] = None) -> "PeriodicTimer":
        """Begin ticking; the first tick is ``first_delay`` (default:
        one period) from now.  No-op when already running."""
        if self._running:
            return self
        delay = self._period if first_delay is None else first_delay
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._running = True
        self._next = self.sim.now + delay
        self._handle.reschedule(self._next)
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self._handle.cancel()

    def _tick(self) -> None:
        # Re-arm before running fn (so fn may stop()); goes straight to
        # the simulator's push to keep the per-tick call chain short.
        sim = self.sim
        when = self._next = self._next + self._period
        now = sim._now
        sim._push(self._handle, when if when > now else now)
        self._fn()


class Event(Waitable):
    """A one-shot level-triggered event carrying a value.

    Once :meth:`set` is called the event stays set; late waiters resume
    with the same value.  Every waiter is a :class:`Process`, woken by
    one zero-delay event: re-arming its own handle.
    """

    __slots__ = ("sim", "_value", "_is_set", "_callbacks")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._value: Any = None
        self._is_set = False
        self._callbacks: list[Process] = []

    @property
    def is_set(self) -> bool:
        return self._is_set

    @property
    def value(self) -> Any:
        if not self._is_set:
            raise SimulationError("event value read before set")
        return self._value

    def set(self, value: Any = None) -> None:
        if self._is_set:
            raise SimulationError("event set twice")
        self._is_set = True
        self._value = value
        sim = self.sim
        callbacks = self._callbacks  # waking runs no user code: stable
        for process in callbacks:
            process._wake_value = value
            sim._push(process._wake, sim._now)
        callbacks.clear()

    def within(self, seconds: float) -> "_Within":
        """Wait for this event for at most ``seconds`` of virtual time.

        ``fired, value = yield event.within(seconds)`` gives ``(True,
        value)`` if the event is set first and ``(False, None)`` if the
        deadline, armed when the process parks, fires first.  A waiter
        that times out or is interrupted leaves the event, so a blocked
        acquire, get or put withdraws (see :class:`repro.sim.sync._Grant`).
        """
        if seconds < 0:
            raise SimulationError(f"negative deadline {seconds}")
        return _Within(self, seconds)

    def _discard(self, process: "Process") -> None:
        try:
            self._callbacks.remove(process)
        except ValueError:
            pass

    def _refund(self) -> None:
        """A deadline beat the wake-up this event's set() queued.

        A plain event stays set, so nothing is lost; a
        :class:`repro.sim.sync._Grant` hands its unit or item back.
        """


class _Within(Waitable):
    """What :meth:`Event.within` returns: an event and a deadline."""

    __slots__ = ("event", "seconds")

    def __init__(self, event: Event, seconds: float):
        self.event = event
        self.seconds = seconds


class Process(Waitable):
    """A cooperative process driving a generator of waitables.

    A process is itself a waitable: yielding a process waits for its
    completion (its ``finished`` :class:`Event`) and resumes with the
    generator's return value.

    A wake-up re-arms the process's own handle ``_wake`` to send
    ``_wake_value``.  ``_detach`` is the Event or Timer it is parked
    on.  While a :meth:`Event.within` wait is pending (``_racing``) its
    deadline is armed on a second handle, ``_deadline``, made on the
    process's first deadline wait.  Resumption always goes through
    :meth:`_resume` / :meth:`_throw`, looked up at call time.
    """

    def __init__(
        self, sim: Simulator, gen: Generator[Any, Any, Any], name: Optional[str] = None
    ):
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.finished = Event(sim)
        self._detach: Any = None
        self._alive = True
        self._advances = 0  # generator steps taken (see interrupt())
        self._wake: Optional[TimerHandle] = TimerHandle(sim, self._wake_up)
        self._wake_value: Any = None
        self._deadline: Optional[TimerHandle] = None
        self._racing = False
        sim.process_count += 1
        if sim.trace.enabled:
            sim.trace.instant(
                f"spawn:{self.name}", track="sim", cat="process"
            )
        sim._push(self._wake, sim._now)

    @property
    def alive(self) -> bool:
        return self._alive

    def _wake_up(self) -> None:
        value, self._wake_value = self._wake_value, None
        if self._racing:  # the event beat its deadline
            self._racing = False
            self._deadline.cancel()
            value = (True, value)
        self._resume(value)

    def _time_out(self) -> None:
        # The deadline beat the event.  A set() in this same instant
        # queued its wake-up behind the deadline: that wake-up loses,
        # and what the set handed over goes back to its owner.
        self._racing = False
        if self._wake._live:
            self._wake.cancel()
            self._wake_value = None
            self._detach._refund()
        else:
            self._detach._discard(self)
        self._resume((False, None))

    def _resume(self, value: Any) -> None:
        if not self._alive:
            return
        self._detach = None
        self._advances += 1
        try:
            waitable = self.gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._wait_on(waitable)

    def _throw(self, exc: BaseException) -> None:
        if not self._alive:
            return
        self._racing = False  # interrupt() cancelled the deadline
        self._advances += 1
        try:
            waitable = self.gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupt:
            # Process chose not to handle the interrupt: it dies quietly.
            self._finish(None)
            return
        self._wait_on(waitable)

    def _wait_on(self, waitable: Any) -> None:
        if isinstance(waitable, Event):
            if waitable._is_set:
                self._wake_value = waitable._value
                self.sim._push(self._wake, self.sim._now)
            else:
                waitable._callbacks.append(self)
                self._detach = waitable
        elif isinstance(waitable, Timer):
            waitable._park(self)
            self._detach = waitable
        elif isinstance(waitable, _Within):
            sim = self.sim
            if self._deadline is None:
                self._deadline = TimerHandle(sim, self._time_out)
            sim._push(self._deadline, sim._now + waitable.seconds)
            self._racing = True
            self._wait_on(waitable.event)
            self._detach = waitable.event  # also when already set
        elif isinstance(waitable, Process):
            self._wait_on(waitable.finished)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded non-waitable {waitable!r}"
            )

    def _finish(self, value: Any) -> None:
        self._alive = False
        # No cycle through the handles: refcounting frees the process.
        self._wake = self._deadline = None
        if self.sim.trace.enabled:
            self.sim.trace.instant(
                f"finish:{self.name}", track="sim", cat="process"
            )
        self.finished.set(value)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point."""
        if not self._alive:
            return
        detach, self._detach = self._detach, None
        if detach is not None:
            detach._discard(self)
        if self._racing:
            self._deadline.cancel()
        advances = self._advances
        # Resumed and parked again meanwhile: interrupt it there, behind any
        # wake-up it already queued (a semaphore unit, a queue item).
        self.sim.call_soon(
            lambda: self._throw(Interrupt(cause))
            if self._advances == advances else self.interrupt(cause)
        )
