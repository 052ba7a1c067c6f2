"""Worker side of a sharded run: outbox, process state, window loop.

A worker process owns one shard: a simulator, the shard's slice of the
topology, and an :class:`Outbox` that boundary links fill with departing
cross-shard packets.  The coordinator drives it through a tiny message
protocol over a ``multiprocessing`` pipe (one round trip per
synchronization window):

========================  =============================================
coordinator → worker       worker → coordinator
========================  =============================================
``("advance", t_end,       ``("window", shard, outbox_items, peek,
msgs)``                    delta)`` after running virtual time up to
                           ``t_end``
``("finish",)``            ``("results", shard, payload)`` and exit
========================  =============================================

plus an initial ``("ready", shard, peek)`` after the scenario factory
builds, and ``("error", shard, traceback)`` on any crash.  ``peek`` is
:meth:`~repro.sim.scheduler.Simulator.next_event_time` -- the exact
time of the shard's next live event, which the coordinator uses to
jump idle stretches.

The *scenario factory* is any picklable callable
``factory(shard_index, *args, **kwargs)`` returning a shard context:
an object with a ``sim`` attribute (the shard's simulator), an
``outbox`` attribute (an :class:`Outbox`), an
``inject(dst_node, arrival, packet)`` method scheduling a cross-shard
arrival, and a ``collect()`` method returning the shard's picklable
results (snapshots, counters) once the run finishes.

``delta`` streams telemetry: a context exposing a ``delta_stream``
attribute (a :class:`repro.obs.stream.DeltaEncoder`) ships what changed
since its previous delta inside the window message the worker sends
anyway -- zero extra round trips -- and ``None`` when idle, between the
encoder's periods, or when the context doesn't stream.  A *final* delta travels inside the
``collect()`` payload, not in a window message (the soak fleet puts
one under ``"delta"`` whether or not it streamed).
"""

from __future__ import annotations

import itertools
import traceback
from typing import Any, List, Tuple

#: One exported cross-shard departure:
#: ``(arrival_time, seq, dst_shard, dst_node, packet)``.
OutboxItem = Tuple[float, int, int, str, Any]

#: One delivery handed to a worker:
#: ``(arrival_time, src_shard, seq, dst_node, packet)``.
InboundItem = Tuple[float, int, int, str, Any]


class Outbox:
    """Collects cross-shard departures during one window.

    Boundary links call :meth:`export` at *serialization-completion*
    time (wire exit), stamping each packet with its future arrival time
    at the far node; the worker drains the buffer at the window barrier
    and ships it to the coordinator.  The per-export sequence number
    keeps same-instant arrivals in wire order after the network hop.
    """

    def __init__(self) -> None:
        self._items: List[OutboxItem] = []
        self._seq = itertools.count(1)
        #: Lifetime export count (kept across drains, for stats).
        self.exported = 0

    def export(self, dst_shard: int, dst_node: str, arrival: float,
               packet: Any) -> None:
        """Buffer one departing packet for delivery on ``dst_shard``."""
        self.exported += 1
        self._items.append(
            (arrival, next(self._seq), dst_shard, dst_node, packet)
        )

    def drain(self) -> List[OutboxItem]:
        """Take and clear everything buffered this window."""
        items = self._items
        self._items = []
        return items


def reset_process_state() -> None:
    """Reset process-global simulation state to a pristine start.

    Id counters (packets, anonymous orchestration sessions,
    reservations, ANSA interfaces) and slab freelists are module-level
    state shared by every simulator in a process.  Spawned shard
    workers start clean, but the in-process baseline a sharded run is
    compared against (and any run following another in one test
    process) would see leaked ids and warm pools.  Calling this first
    makes every generated id -- packet ids appear in audit drill-downs,
    session ids in orchestration group audits -- and pool hit patterns
    identical to a fresh process, which is what the bit-identity
    guarantee is stated over.  (VC ids need no reset: they are numbered
    per transport entity, a pure function of the host name.)
    """
    import repro.ansa.interface as interface_mod
    import repro.netsim.packet as packet_mod
    import repro.netsim.reservation as reservation_mod
    import repro.orchestration.hlo as hlo_mod
    from repro.transport import tpdu

    packet_mod._packet_ids = itertools.count(1)
    hlo_mod._session_ids = itertools.count(1)
    reservation_mod._reservation_ids = itertools.count(1)
    interface_mod._interface_ids = itertools.count(1)
    packet_mod.Packet._POOL.clear()
    tpdu.DataTPDU._POOL.clear()
    tpdu.CreditTPDU._POOL.clear()
    tpdu.AckTPDU._POOL.clear()


def _inbound_key(item: InboundItem) -> Tuple[float, int, int]:
    """Deterministic delivery order: arrival, then source shard, seq."""
    return (item[0], item[1], item[2])


def shard_worker(conn, factory, shard_index: int,
                 factory_args: tuple, factory_kwargs: dict) -> None:
    """Worker-process entry point: build the shard, serve windows.

    Runs until a ``("finish",)`` message, then sends the context's
    ``collect()`` payload back.  Any exception (including during the
    build) is reported as ``("error", shard, traceback_text)`` so the
    coordinator can fail fast instead of deadlocking on a closed pipe.
    """
    try:
        reset_process_state()
        ctx = factory(shard_index, *factory_args, **factory_kwargs)
        sim = ctx.sim
        outbox = ctx.outbox
        stream = getattr(ctx, "delta_stream", None)
        conn.send(("ready", shard_index, sim.next_event_time()))
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "advance":
                _, t_end, inbound = msg
                if inbound:
                    inbound.sort(key=_inbound_key)
                    for arrival, _src, _seq, dst_node, packet in inbound:
                        ctx.inject(dst_node, arrival, packet)
                sim.run(until=t_end)
                conn.send((
                    "window", shard_index, outbox.drain(),
                    sim.next_event_time(),
                    stream.delta() if stream is not None else None,
                ))
            elif kind == "finish":
                conn.send(("results", shard_index, ctx.collect()))
                return
            else:  # pragma: no cover - protocol misuse guard
                raise RuntimeError(f"unknown coordinator message {kind!r}")
    except BaseException:
        try:
            conn.send(("error", shard_index, traceback.format_exc()))
        except OSError:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()
