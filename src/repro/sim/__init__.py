"""Discrete-event simulation kernel.

The paper's system ran on transputer hardware with hard real-time
guarantees; CPython cannot provide isochronous deadlines, so the entire
reproduction runs in *virtual time* on this kernel.  All timing behaviour
(delay, jitter, clock drift, interval-based regulation) is expressed as
relative event ordering on the simulator clock, which makes every
experiment deterministic and seedable.

Public surface:

- :class:`Simulator` -- the event loop and virtual clock.
- :class:`Process` -- generator-based cooperative processes.
- Waitables yielded from process generators: :class:`Event` (and its
  deadline wait, ``fired, value = yield event.within(seconds)``),
  :class:`Timer` (``yield Timer(sim).after(delay)`` sleeps) and
  :class:`Process` (a join).
- :class:`Semaphore`, :class:`TimedSemaphore`, :class:`Queue` -- process
  synchronisation; the timed variants record blocking time, which the
  orchestration service uses for fault attribution (paper section 3.7).
- :class:`NodeClock` -- per-node clock with rate skew and offset, used to
  model the inter-machine clock drift that motivates continuous
  orchestration (paper section 3.6).
- :class:`RandomStreams` -- named, independently seeded random streams.
- :mod:`repro.sim.shard` -- parallel per-process virtual-time domains
  synchronized with conservative lookahead (``docs/SCALING.md``).
"""

from repro.sim.scheduler import (
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timer,
)
from repro.sim.sync import Queue, QueueFull, Semaphore, TimedSemaphore
from repro.sim.clock import NodeClock
from repro.sim.random import RandomStreams

__all__ = [
    "Event",
    "Interrupt",
    "NodeClock",
    "Process",
    "Queue",
    "QueueFull",
    "RandomStreams",
    "Semaphore",
    "SimulationError",
    "Simulator",
    "TimedSemaphore",
    "Timer",
]
