"""Process synchronisation primitives with blocking-time accounting.

The paper's data-transfer interface (section 3.7) is built on shared
circular buffers guarded by semaphores, and makes a point of the fact
that *"the time spent blocking by both the application and the transport
entity can be measured by monitoring the state of the synchronisation
semaphores"*; those statistics feed the Orch.Regulate.indication report
(section 6.3.1.2).  :class:`TimedSemaphore` implements exactly that:
every acquire is tagged with a role label and the total time each role
spent blocked is accumulated.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.obs.registry import SpanAccumulator
from repro.sim.scheduler import Event, SimulationError, Simulator, Waitable


class _Grant(Event):
    """The waitable of one acquire, get or put, made by its owner.

    The owner (a semaphore or a :class:`Queue`) sets it to resume the
    waiter -- one scheduler event.  When its last waiter leaves while it
    is still queued (an interrupt, or a deadline that beat it in a
    :meth:`~repro.sim.scheduler.Event.within` wait) it withdraws, so no
    unit or item goes to nobody and no put lands.  When the deadline
    fires in the very instant of the set, ahead of the wake-up it
    queued, the unit or item goes back to the owner (:meth:`_refund`).
    A blocked put admitted in that instant has landed: the putter is
    told it timed out, but its item stays queued.
    """

    __slots__ = ("_owner", "_data")

    def __init__(self, owner, data: Any = None):
        super().__init__(owner.sim)
        self._owner = owner
        #: A TimedSemaphore's blocked-time span, or a blocked put's item.
        self._data = data

    def _discard(self, process) -> None:
        super()._discard(process)
        if not self._is_set and not self._callbacks:
            self._owner._withdraw(self)

    def _refund(self) -> None:
        self._owner._refund(self)


class Semaphore:
    """A counting semaphore for simulation processes.

    ``yield sem.acquire()`` blocks until a unit is available;
    :meth:`release` wakes the longest-waiting acquirer (FIFO).  A grant
    is one scheduler event: the acquirer always resumes through the
    scheduler, never inline, whether or not it had to wait.
    """

    def __init__(self, sim: Simulator, value: int = 1):
        if value < 0:
            raise SimulationError(f"negative semaphore value {value}")
        self.sim = sim
        self._value = value
        self._waiters: Deque[_Grant] = deque()
        # What every acquire that finds a unit free returns.  A set
        # Event never changes again, so one is shared: the "semaphores
        # never block" case (paper section 3.7) allocates nothing.
        self._granted = _Grant(self)
        self._granted.set(None)

    @property
    def value(self) -> int:
        return self._value

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Waitable:
        """Return a waitable that fires when a unit has been granted."""
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return self._granted
        grant = _Grant(self)
        self._waiters.append(grant)
        return grant

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True when a unit was taken."""
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return True
        return False

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().set(None)
        else:
            self._value += 1

    def _withdraw(self, grant: _Grant) -> None:
        """Forget an abandoned waiter (see :class:`_Grant`)."""
        try:
            self._waiters.remove(grant)
        except ValueError:
            pass

    def _refund(self, grant: _Grant) -> None:
        """Take back a unit granted to a waiter that timed out."""
        self.release()


class TimedSemaphore(Semaphore):
    """Semaphore that accumulates per-role blocking time.

    The orchestration service reads :meth:`blocked_time` to attribute
    regulation failures to the application or the protocol (paper
    section 6.3.1.2).  Roles are arbitrary strings, conventionally
    ``"application"`` and ``"protocol"``.
    """

    def __init__(self, sim: Simulator, value: int = 1):
        super().__init__(sim, value)
        # All per-role accounting lives in one windowed accumulator
        # (repro.obs): open waits are re-based by reset_stats() and
        # in-progress time is included in blocked_time(), exactly the
        # sampling semantics section 6.3.1.2 needs.
        self._waits = SpanAccumulator("semaphore.blocked", sim._clock)

    def acquire(self, role: str = "unknown") -> Waitable:  # type: ignore[override]
        if self._value > 0 and not self._waiters:
            # Never blocked: counted, but no span is opened.
            self._value -= 1
            self._waits.instant(role)
            return self._granted
        grant = _Grant(self, self._waits.begin(role))
        self._waiters.append(grant)
        return grant

    def release(self) -> None:
        if self._waiters:
            grant = self._waiters.popleft()
            self._waits.end(grant._data)
            grant.set(None)
        else:
            self._value += 1

    def _withdraw(self, grant: _Grant) -> None:
        super()._withdraw(grant)
        self._waits.end(grant._data)

    def blocked_time(self, role: str) -> float:
        """Total virtual seconds ``role`` has spent blocked so far.

        Includes waits still in progress -- the orchestrator samples at
        interval boundaries while threads may be parked.
        """
        return self._waits.total(role)

    def acquire_count(self, role: str) -> int:
        return self._waits.count(role)

    def reset_stats(self) -> None:
        """Zero the accumulated statistics (used at interval boundaries).

        In-progress waits restart their accounting from now.
        """
        self._waits.reset()


#: The data of a get's grant (a put's grant carries its item).
_GET = object()


class QueueFull(Exception):
    """Raised by :meth:`Queue.put_nowait` on a full bounded queue."""


class Queue:
    """A FIFO queue between simulation processes.

    ``capacity=None`` makes the queue unbounded.  ``yield q.get()``
    blocks until an item is available; ``yield q.put(item)`` blocks while
    the queue is full.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"queue capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[_Grant] = deque()
        self._putters: Deque[_Grant] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Waitable:
        """Waitable put; fires once the item is enqueued."""
        if self.full:
            ev = _Grant(self, item)
            self._putters.append(ev)
        else:
            ev = Event(self.sim)
            self._enqueue(item)
            ev.set(None)
        return ev

    def put_nowait(self, item: Any) -> None:
        if self.full:
            raise QueueFull()
        self._enqueue(item)

    def _enqueue(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().set(item)
        else:
            self._items.append(item)

    def get(self) -> Waitable:
        """Waitable get; fires with the dequeued item."""
        ev = _Grant(self, _GET)
        if not self._items:
            self._getters.append(ev)
        else:
            item = self._items.popleft()
            self._admit_putter()
            ev.set(item)
        return ev

    def get_nowait(self) -> Any:
        if not self._items:
            raise IndexError("get_nowait on empty queue")
        item = self._items.popleft()
        self._admit_putter()
        return item

    def _admit_putter(self) -> None:
        if self._putters and not self.full:
            grant = self._putters.popleft()
            self._enqueue(grant._data)
            grant.set(None)

    def _withdraw(self, grant: _Grant) -> None:
        """Forget an abandoned get or put (see :class:`_Grant`)."""
        for waiters in (self._getters, self._putters):
            if grant in waiters:
                waiters.remove(grant)

    def _refund(self, grant: _Grant) -> None:
        """Take back the item of a get that timed out: to the next
        getter, or to the queue's front.  A full bounded queue keeps
        its capacity: its newest item then waits first in line, as a
        put already made."""
        if grant._data is not _GET:
            return  # an admitted put: its item is already queued
        if self._getters:
            self._getters.popleft().set(grant._value)
            return
        self._items.appendleft(grant._value)
        if self.capacity is not None and len(self._items) > self.capacity:
            self._putters.appendleft(_Grant(self, self._items.pop()))

    def clear(self) -> int:
        """Discard all queued items; returns how many were dropped."""
        dropped = len(self._items)
        self._items.clear()
        while self._putters and not self.full:
            self._admit_putter()
        return dropped
