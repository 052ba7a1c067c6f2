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
application passes through a credit gate so the LLO can hold back data
while priming, stop it instantly, and pace it toward a regulation
target (sections 6.2 and 6.3).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from repro.obs.registry import SpanAccumulator
from repro.sim.scheduler import Event, SimulationError, Simulator, Waitable
from repro.sim.sync import TimedSemaphore
from repro.transport.osdu import OSDU

#: Conventional role labels for the blocking-time statistics.
ROLE_APPLICATION = "application"
ROLE_PROTOCOL = "protocol"


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


class GatedReceiveBuffer:
    """Sink-side buffer with an LLO-controlled delivery gate.

    The protocol *deposits* arriving OSDUs (never blocking -- overflow
    is dropped and counted, since a CM receiver cannot push back on the
    wire instantaneously).  The application *takes* OSDUs, which blocks
    while the buffer is empty **or the gate withholds credit**.

    Gate states:

    - *open* (default): credits are infinite; delivery is immediate.
    - *closed*: no delivery at all (``Orch.Prime`` filling phase,
      ``Orch.Stop``).
    - *metered*: the LLO grants explicit per-OSDU credits to pace
      delivery toward a regulation target.
    """

    def __init__(self, sim: Simulator, capacity: int):
        if capacity <= 0:
            raise SimulationError(f"buffer capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._slots: Deque[OSDU] = deque()
        self._items = TimedSemaphore(sim, 0)
        self._credits = TimedSemaphore(sim, 0)
        self._metered = False
        self._open = True
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
        self._open = False
        self._metered = False
        self._drain_credits()

    def open_gate(self) -> None:
        """Unrestricted delivery."""
        self._open = True
        self._metered = False
        self._drain_credits()
        self._wake_credit_waiters()

    def meter(self) -> None:
        """Switch to explicit credit pacing (regulation)."""
        self._open = False
        self._metered = True
        self._drain_credits()

    def grant(self, n: int = 1) -> None:
        """Grant ``n`` delivery credits while metered.

        Grants against a non-metered gate are ignored: a regulation
        interval may still be draining when Orch.Stop closes the gate,
        and its late grants must not leak through.
        """
        if not self._metered:
            return
        for _ in range(n):
            self._credits.release()

    @property
    def gate_state(self) -> str:
        if self._open:
            return "open"
        return "metered" if self._metered else "closed"

    def _drain_credits(self) -> None:
        while self._credits.try_acquire():
            pass

    def _wake_credit_waiters(self) -> None:
        # Waiters parked on the credit semaphore while the gate was
        # closed/metered must be released when it opens.
        while self._credits.waiting > 0:
            self._credits.release()

    # -- application side --------------------------------------------------

    def take(self, role: str = ROLE_APPLICATION) -> Generator:
        """Coroutine: deliver the next OSDU to the application.

        Blocks while no item is available or the gate withholds credit.
        Credit is consumed *before* the item wait so that a closed gate
        blocks even when data is sitting in the buffer.  When the gate
        is open no credit is needed -- but if the gate closes while the
        taker is parked on the item semaphore, the item is handed back
        and the taker re-queues through the credit path (otherwise one
        delivery would leak past every gate closure).
        """
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
        self._note_not_full()
        self.delivered += 1
        if osdu.opdu is not None:
            self.last_delivered_seq = osdu.opdu.osdu_seq
        if self.on_take is not None:
            self.on_take()
        return osdu

    def try_take(self) -> Optional[OSDU]:
        """Non-blocking take, honouring the gate."""
        if not self._open:
            if not self._credits.try_acquire():
                return None
        if not self._items.try_acquire():
            if not self._open:
                self._credits.release()
            return None
        osdu = self._slots.popleft()
        self._note_not_full()
        self.delivered += 1
        if osdu.opdu is not None:
            self.last_delivered_seq = osdu.opdu.osdu_seq
        if self.on_take is not None:
            self.on_take()
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
        return flushed

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
        return self._items.blocked_time(role) + self._credits.blocked_time(role)

    def reset_blocking_stats(self) -> None:
        self._items.reset_stats()
        self._credits.reset_stats()
