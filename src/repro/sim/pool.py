"""Object freelists for the per-event hot path.

A 30 Mbit/s continuous-media session pushes thousands of packets and
TPDUs per simulated second; allocating (and garbage-collecting) a fresh
dataclass instance for each one costs more than scheduling it, which
is one push onto a shallow heap.  A :class:`Freelist`
recycles instances instead: ``get()`` pops a previously released object
(or returns None, telling the caller to construct one), ``put()``
parks an object for reuse.

Lifecycle discipline (see DESIGN.md for the full rules):

- Only the *owner* of an object may release it, and only once it can
  prove no other component retains a reference.  For packets that point
  is the destination :class:`~repro.netsim.node.Host` after the payload
  handler returns; for TPDUs it is the receiving transport entity after
  the protocol machine consumed the fields it keeps (never the TPDU
  object itself).
- Objects that *are* retained -- a DataTPDU parked in the sender's
  retransmit cache, a multicast copy -- are simply never pooled; their
  ``_pooled`` flag stays False and every release point ignores them.
- ``put()`` drops objects beyond ``capacity`` on the floor (the garbage
  collector handles bursts), so a freelist can never become a leak.
"""

from __future__ import annotations

from typing import Any, List

#: Default freelist depth: deep enough for every in-flight object of a
#: busy multi-VC run, small enough to be irrelevant memory-wise.
DEFAULT_CAPACITY = 4096


class Freelist:
    """A bounded LIFO free list of recyclable objects."""

    __slots__ = ("_free", "capacity")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self._free: List[Any] = []
        self.capacity = capacity

    def get(self) -> Any:
        """Pop a recycled object, or None when the list is empty."""
        free = self._free
        return free.pop() if free else None

    def put(self, obj: Any) -> bool:
        """Park ``obj`` for reuse; False when dropped (list full)."""
        free = self._free
        if len(free) >= self.capacity:
            return False
        free.append(obj)
        return True

    def clear(self) -> None:
        """Discard every parked object."""
        self._free.clear()

    def __len__(self) -> int:
        return len(self._free)
