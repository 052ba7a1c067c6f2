"""Two-heap vs one-list equivalence: the firing order is *identical*.

The kernel keeps its entries in a near heap (before the horizon) and a
far heap (the rest); when the near heap drains, the horizon moves
``_FAR`` seconds past the far head and the far entries before it move
across.  Its one contract is a total ``(when, priority, seq)`` dispatch
order.  These tests drive randomized schedule/cancel/reschedule
programs through the real kernel and through a reference model (one
list, same key), and assert the firing sequences match element for
element.

Each program runs as a series of ``run(until=...)`` slices, with a
chunk of its operations applied before each slice.  Between slices,
``next_event_time()`` must equal the model's earliest live entry --
exactly, not a lower bound -- and ``pending_events`` its live count.
Delays straddle the horizon (just under and just over ``_FAR`` past
it), and a mass cancel of a far batch forces a far-heap sweep, so the
refill and both sweeps are crossed.

The reference model implements the documented semantics:

- events fire in ``(when, priority, seq)`` order;
- ``cancel()`` is exact: a cancelled handle never fires;
- ``reschedule()`` supersedes: only the latest arming of a handle
  fires, with a fresh seq drawn at reschedule time;
- callbacks may schedule/cancel/reschedule during dispatch, including
  at the current instant.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.scheduler import _FAR, Simulator, TimerHandle

#: Handles the random ops address, and the far batch mass-cancelled.
_HANDLES = 40
_BATCH = 200


class _RefKernel:
    """Reference scheduler: one list, (when, priority, seq) key."""

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._entries = []  # (when, priority, seq, token, ref-handle)

    def push(self, handle, when):
        # Every arming gets a fresh generation, so any older entry for
        # this handle -- cancelled *or* superseded -- can never fire.
        handle.gen += 1
        handle.live = True
        handle.when = when
        self._seq += 1
        self._entries.append((when, handle.priority, self._seq, handle.gen, handle))

    def make(self, fn, priority):
        return _RefHandle(fn, priority)

    def cancel(self, handle):
        handle.live = False

    def _live(self):
        return [e for e in self._entries if e[4].live and e[3] == e[4].gen]

    @property
    def pending_events(self):
        return len(self._live())

    def next_event_time(self):
        live = self._live()
        return min(live)[0] if live else None

    def run(self, until):
        while True:
            live = self._live()
            if not live:
                break
            entry = min(live)
            if entry[0] > until:
                break
            self._entries.remove(entry)
            self.now = entry[0]
            entry[4].live = False
            entry[4].fn()
        self.now = max(self.now, until)


class _RefHandle:
    __slots__ = ("fn", "priority", "live", "gen", "when")

    def __init__(self, fn, priority=0):
        self.fn = fn
        self.priority = priority
        self.live = False
        self.gen = 0
        self.when = 0.0


class _Real:
    """The kernel under test behind the reference model's interface."""

    def __init__(self):
        self.sim = Simulator()

    @property
    def now(self):
        return self.sim.now

    def make(self, fn, priority):
        return TimerHandle(self.sim, fn, priority)

    def push(self, handle, when):
        self.sim._push(handle, when)

    def cancel(self, handle):
        handle.cancel()

    def run(self, until):
        self.sim.run(until=until)

    @property
    def pending_events(self):
        return self.sim.pending_events

    def next_event_time(self):
        return self.sim.next_event_time()


def _random_program(seed: int, n_ops: int = 400, n_slices: int = 10):
    """A deterministic program: ``(ops, slice_length)`` per slice.

    Each op is ``(op, handle_index, delay, priority)``; delays are
    relative to the clock when the slice's ops are applied.
    """
    rng = random.Random(seed)
    program = []
    for _ in range(n_slices):
        ops = []
        for _ in range(n_ops // n_slices):
            op = rng.choice(
                ["schedule", "schedule", "schedule", "cancel", "reschedule"]
            )
            handle_index = rng.randrange(_HANDLES)
            # Same-instant, near, across the horizon's first window,
            # straddling the horizon, and far-future delays.
            delay = rng.choice([
                0.0,
                rng.uniform(0.0, 1e-4),
                rng.uniform(0.0, 0.01),
                rng.uniform(0.0, 3.9),
                _FAR - rng.uniform(0.0, 1e-3),    # just under the horizon
                _FAR + rng.uniform(0.0, 1e-3),    # just over it
                rng.uniform(4.0, 50.0),           # the far heap
            ])
            priority = rng.randrange(3)
            ops.append((op, handle_index, delay, priority))
        if rng.random() < 0.3:
            # A far batch, then its mass cancel: the far-heap sweep.
            ops.append(("far_batch", 0, rng.uniform(5.0, 40.0), 0))
            ops.append(("cancel_batch", 0, 0.0, 0))
        program.append((ops, rng.uniform(0.2, 2 * _FAR)))
    return program


def _run(kernel, program):
    """Fired ``(index, time)`` log, plus each slice's ``(next, pending)``."""
    fired: list = []
    handles: dict = {}
    observed: list = []

    def make_fn(index):
        def fn():
            fired.append((index, round(kernel.now, 12)))
        return fn

    for ops, length in program:
        now = kernel.now
        for op, index, delay, priority in ops:
            handle = handles.get(index)
            if op == "schedule":
                if handle is None or handle.priority != priority:
                    handle = handles[index] = kernel.make(make_fn(index), priority)
                kernel.push(handle, now + delay)
            elif op == "cancel":
                if handle is not None:
                    kernel.cancel(handle)
            elif op == "reschedule":
                if handle is not None:
                    kernel.push(handle, now + delay)
            elif op == "far_batch":
                for i in range(_HANDLES, _HANDLES + _BATCH):
                    handles[i] = kernel.make(make_fn(i), 0)
                    kernel.push(handles[i], now + delay + i * 1e-3)
            else:  # cancel_batch
                for i in range(_HANDLES, _HANDLES + _BATCH):
                    kernel.cancel(handles[i])
        kernel.run(now + length)
        observed.append((kernel.next_event_time(), kernel.pending_events))
    kernel.run(kernel.now + 60.0)
    observed.append((kernel.next_event_time(), kernel.pending_events))
    return fired, observed


@pytest.mark.parametrize("seed", range(12))
def test_random_program_identical_firing_order(seed):
    program = _random_program(seed)
    real_fired, real_observed = _run(_Real(), program)
    ref_fired, ref_observed = _run(_RefKernel(), program)
    assert real_fired == ref_fired
    assert real_observed == ref_observed


@pytest.mark.parametrize("seed", range(12, 18))
def test_random_program_with_reentrant_callbacks(seed):
    """Callbacks that schedule/cancel during dispatch stay identical."""
    rng = random.Random(seed)
    n = 120

    def drive(kernel):
        fired = []
        handles = []
        budget = [5] * n  # bound re-scheduling cascades (0-delay cycles)

        def make_fn(index):
            def fn():
                fired.append((index, round(kernel.now, 12)))
                if budget[index] <= 0:
                    return
                budget[index] -= 1
                # Reentrant operations pre-drawn once (below), so real
                # and reference kernels perform the same ops.
                for op, target, delay in plans[index]:
                    if op == "s":
                        kernel.push(handles[target], kernel.now + delay)
                    else:
                        kernel.cancel(handles[target])
            return fn

        for i in range(n):
            handles.append(kernel.make(make_fn(i), i % 3))
        for i in range(n):
            kernel.push(handles[i], arm_times[i])
        observed = []
        for until in slices:
            kernel.run(until)
            observed.append((kernel.next_event_time(), kernel.pending_events))
        return fired, observed

    # Pre-draw every random decision once so both kernels see the
    # exact same program.
    arm_times = [rng.uniform(0.0, 8.0) for _ in range(n)]
    plans = []
    for _ in range(n):
        plan = []
        for _ in range(rng.randrange(3)):
            plan.append((
                rng.choice(["s", "c"]),
                rng.randrange(n),
                rng.choice([0.0, 1e-5, 0.02, 5.0, _FAR - 1e-4, _FAR + 1e-4]),
            ))
        plans.append(plan)
    slices = sorted(rng.uniform(0.0, 100.0) for _ in range(12)) + [100.0]

    assert drive(_Real()) == drive(_RefKernel())


def test_mid_bucket_stop_and_resume():
    """run(until) stopping between close instants resumes without loss."""
    sim = Simulator()
    fired = []
    # Several events within 1 ms, distinct instants.
    for i in range(10):
        sim.call_after(1e-4 * i, lambda i=i: fired.append(i))
    sim.run(until=4.5e-4)
    assert fired == [0, 1, 2, 3, 4]
    assert sim.next_event_time() == pytest.approx(5e-4)
    sim.run(until=1.0)
    assert fired == list(range(10))


def test_same_instant_batch_priority_and_fifo_order():
    sim = Simulator()
    fired = []
    sim.call_at(0.5, lambda: fired.append("b0"), priority=1)
    sim.call_at(0.5, lambda: fired.append("a0"), priority=0)
    sim.call_at(0.5, lambda: fired.append("a1"), priority=0)
    sim.call_at(0.5, lambda: fired.append("b1"), priority=1)
    sim.run(until=1.0)
    assert fired == ["a0", "a1", "b0", "b1"]
