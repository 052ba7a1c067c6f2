"""Per-node clocks with rate skew and offset.

Section 3.6 of the paper argues that orchestrated connections *"will
eventually drift out of synchronisation ... due to the inevitable
discrepancies between remote clock rates"*.  Reproducing that argument
needs node clocks that genuinely diverge from the (omniscient) simulator
clock.  :class:`NodeClock` maps virtual time to a node-local time with a
constant rate error expressed in parts per million, matching the quartz
oscillator tolerances of real workstations (typically 1-100 ppm).
"""

from __future__ import annotations

from array import array
from typing import Callable, List

from repro.sim.scheduler import SimulationError, Simulator


class NodeClock:
    """A drifting local clock for one end-system.

    ``local_time = offset + (1 + skew_ppm * 1e-6) * sim_time``

    The orchestrating node's clock is the datum for continuous
    synchronisation (paper section 5, footnote); other nodes read their
    own drifting clocks, so targets expressed in the datum's timescale
    accumulate error exactly as the paper describes.
    """

    def __init__(self, sim: Simulator, skew_ppm: float = 0.0, offset: float = 0.0):
        self.sim = sim
        self.skew_ppm = skew_ppm
        self.offset = offset
        self._watchers: List[Callable[[], None]] = []

    @property
    def rate(self) -> float:
        """Local seconds per simulator second."""
        return 1.0 + self.skew_ppm * 1e-6

    def now(self) -> float:
        """Current node-local time."""
        return self.offset + self.rate * self.sim.now

    def to_local(self, sim_time: float) -> float:
        """Convert a simulator timestamp to this node's local time."""
        return self.offset + self.rate * sim_time

    def to_sim(self, local_time: float) -> float:
        """Convert a node-local timestamp to simulator time."""
        return (local_time - self.offset) / self.rate

    def local_duration(self, sim_duration: float) -> float:
        """How long ``sim_duration`` real seconds appear on this clock."""
        return self.rate * sim_duration

    def sim_duration(self, local_duration: float) -> float:
        """Real (simulator) seconds for a local-clock duration."""
        return local_duration / self.rate

    def tick_times(self, sim_time: float, start_local: float, length: float,
                   n: int, first: int = 1) -> "array[float]":
        """Simulator instants at which a process sleeping on this clock
        wakes for local ticks ``start_local + length * k / n``, ``k`` from
        ``first`` to ``n``, in turn.

        The process starts at ``sim_time``; for each tick it sleeps
        ``sim_duration(tick - now())`` when that is positive and not at
        all otherwise.  The arithmetic is that sleep's, so the instants
        are bit-identical to it -- provided the clock is not changed
        meanwhile (see :meth:`watch`).  Returned as unboxed doubles: an
        interval's schedule keeps them all.
        """
        offset, rate = self.offset, self.rate
        times = array("d")
        append = times.append
        for k in range(first, n + 1):
            remaining = start_local + length * k / n - (offset + rate * sim_time)
            if remaining > 0:
                sim_time = sim_time + remaining / rate
            append(sim_time)
        return times

    def watch(self, fn: Callable[[], None]) -> None:
        """Call ``fn()`` after every :meth:`adjust` and :meth:`set_skew_ppm`."""
        self._watchers.append(fn)

    def unwatch(self, fn: Callable[[], None]) -> None:
        self._watchers.remove(fn)

    def _changed(self) -> None:
        for fn in list(self._watchers):
            fn()

    def adjust(self, offset_delta: float) -> None:
        """Step the clock by ``offset_delta`` local seconds.

        Used by the clock-synchronisation protocols to slew a slave clock
        toward the orchestrating node's datum.
        """
        self.offset += offset_delta
        self._changed()

    def set_skew_ppm(self, skew_ppm: float) -> None:
        """Change the rate error, preserving continuity of local time.

        The offset is recomputed so ``now()`` is unchanged at the instant
        of adjustment; only the future rate differs.
        """
        current_local = self.now()
        self.skew_ppm = skew_ppm
        self.offset = current_local - self.rate * self.sim.now
        self._changed()

    def offset_from(self, other: "NodeClock") -> float:
        """Instantaneous difference ``self.now() - other.now()``."""
        if other.sim is not self.sim:
            raise SimulationError("clocks belong to different simulators")
        return self.now() - other.now()
