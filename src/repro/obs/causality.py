"""Causal linking over trace events: primitive -> TPDU -> packet -> fate.

The tracer records flat events; this module recovers the causal chain
a violated QoS period needs for its post-mortem.  The link is the
netsim packet id, threaded through the instrumentation:

- ``tpdu.tx`` instants (transport ``vc``/``entity``) carry the packet
  id, the VC, the sequence number and the TPDU kind at the moment a
  TPDU is handed to the network -- the *parent* end of the chain.
- link-layer events (serialisation spans, ``loss``, ``drop:down``,
  ``drop:buffer``, and the bounded ``lost_packet_ids`` list on
  ``link.down``) carry the same packet id mid-flight.
- host ``rx:*`` instants carry it at delivery -- the *child* end.

:class:`ChainIndex` ingests Chrome-trace events (timestamps in
microseconds, as recorded) and answers second-denominated queries:
which packets a VC sent inside a period, what happened to each, and
which fault episodes overlapped.  It is a pure in-memory index -- safe
to build from a live flight-recorder ring at violation time.

The index is incremental: :meth:`ChainIndex.extend` (dicts) and
:meth:`ChainIndex.extend_records` (a tracer's own records) file new
events behind those already indexed, so a consumer that keeps one index
next to an append-only tracer pays for each event once.  Chains hold
references to the records they were given, never copies or dicts;
dicts are built for the events a query returns.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.trace import (
    CAT, DUR, KEYS, NAME, TS, Record, event_of, record_arg, record_args,
    record_of,
)

__all__ = ["ChainIndex"]

_US = 1e6

#: Event names that mark a packet as lost, mapped to a human cause.
_LOSS_CAUSES = {
    "loss": "corrupted-on-wire",
    "drop:buffer": "buffer-overflow",
    "drop:down": "link-down",
    "link.down": "lost-in-flight",
}

_DELIVERY_PREFIX = "rx:"

_timestamp = itemgetter(TS)


def _seconds(record: Record) -> float:
    return record[TS] / _US


class ChainIndex:
    """Index of trace events by packet id, VC and fault episode."""

    def __init__(self, events: Iterable[Dict[str, Any]] = ()):
        #: packet id -> records mentioning it, in time order
        self._by_packet: Dict[int, List[Record]] = {}
        #: vc id -> tpdu.tx records, in time order
        self._tx_by_vc: Dict[str, List[Record]] = {}
        self._faults: List[Record] = []
        self.extend(events)

    # -- ingestion ---------------------------------------------------------

    def extend(self, events: Iterable[Dict[str, Any]]) -> None:
        """Index more Chrome-trace dicts (metadata events are skipped)."""
        self.extend_records(
            [record_of(event) for event in events if event.get("ph") != "M"]
        )

    def extend_records(self, records: Iterable[Record]) -> None:
        """Index more tracer records, keeping every chain in time order.

        Equal to rebuilding over everything seen so far: a chain is
        re-sorted (stably, so equal timestamps keep recording order)
        only when one of the new records is older than the chain's
        last -- an "X" span, which is recorded when it ends.
        """
        unsorted = {}

        def file(chain: List[Record], record: Record) -> None:
            if chain and record[TS] < chain[-1][TS]:
                unsorted[id(chain)] = chain
            chain.append(record)

        by_packet, tx_by_vc = self._by_packet, self._tx_by_vc
        for record in records:
            if record[KEYS]:
                packet_id = record_arg(record, "packet_id")
                if packet_id is not None:
                    file(by_packet.setdefault(packet_id, []), record)
                for lost_id in record_arg(record, "lost_packet_ids") or ():
                    file(by_packet.setdefault(lost_id, []), record)
                if record[NAME] == "tpdu.tx":
                    vc = record_arg(record, "vc")
                    if vc is not None:
                        file(tx_by_vc.setdefault(str(vc), []), record)
            if record[CAT] == "fault":
                file(self._faults, record)
        for chain in unsorted.values():
            chain.sort(key=_timestamp)

    def forget_packets(self) -> None:
        """Drop the packet and per-VC chains; keep the fault episodes.

        For a consumer that will ask only about VCs whose sends are all
        still to come (connections registered from now on): their
        packets are indexed from here, while a fault episode indexed
        already can overlap one of their periods' look-back.
        """
        self._by_packet = {}
        self._tx_by_vc = {}

    # -- raw lookups -------------------------------------------------------

    def events_for_packet(self, packet_id: int) -> List[Dict[str, Any]]:
        """Every indexed event mentioning ``packet_id``, in time order."""
        return [event_of(r) for r in self._by_packet.get(packet_id, ())]

    def packet_fate(self, packet_id: int) -> Dict[str, Any]:
        """Summarise one packet's life: sent / delivered / lost where."""
        fate: Dict[str, Any] = {
            "packet_id": packet_id, "status": "in-flight",
            "sent_at": None, "resolved_at": None, "cause": None,
            "where": None,
        }
        for record in self._by_packet.get(packet_id, ()):
            name = record[NAME]
            ts_s = _seconds(record)
            if name == "tpdu.tx" and fate["sent_at"] is None:
                fate["sent_at"] = ts_s
                args = record_args(record)
                fate["vc"] = args.get("vc")
                fate["seq"] = args.get("seq")
                fate["kind"] = args.get("kind")
            elif name.startswith(_DELIVERY_PREFIX):
                fate["status"] = "delivered"
                fate["resolved_at"] = ts_s
            elif name in _LOSS_CAUSES and fate["status"] != "delivered":
                fate["status"] = "lost"
                fate["cause"] = _LOSS_CAUSES[name]
                fate["resolved_at"] = ts_s
                # pid -> track name needs the metadata events we
                # skipped; fall back to the link recorded in args.
                args = record_args(record)
                fate["where"] = args.get("link") or args.get("track")
        return fate

    # -- per-VC / per-window queries --------------------------------------

    def packets_for_vc(self, vc_id: str, t0: Optional[float] = None,
                       t1: Optional[float] = None) -> List[Dict[str, Any]]:
        """Fates of packets ``vc_id`` sent inside ``[t0, t1]`` seconds."""
        sends = self._tx_by_vc.get(str(vc_id), ())
        lo = 0 if t0 is None else bisect_left(sends, t0, key=_seconds)
        hi = (len(sends) if t1 is None
              else bisect_right(sends, t1, key=_seconds))
        fates = []
        for record in sends[lo:hi]:
            packet_id = record_arg(record, "packet_id")
            if packet_id is not None:
                fates.append(self.packet_fate(packet_id))
        return fates

    def lost_packets(self, vc_id: str, t0: Optional[float] = None,
                     t1: Optional[float] = None) -> List[Dict[str, Any]]:
        """The subset of :meth:`packets_for_vc` that was lost."""
        return [
            fate for fate in self.packets_for_vc(vc_id, t0, t1)
            if fate["status"] == "lost"
        ]

    def fault_episodes(self, t0: float, t1: float) -> List[Dict[str, Any]]:
        """Fault-category events overlapping ``[t0, t1]`` seconds."""
        episodes = []
        for record in self._faults:
            start_s = _seconds(record)
            end_s = start_s + (record[DUR] or 0.0) / _US
            if end_s < t0 or start_s > t1:
                continue
            episodes.append({
                "name": record[NAME],
                "start": start_s,
                "end": end_s,
                "args": record_args(record),
            })
        return episodes

    def explain_period(self, vc_id: str, t0: float, t1: float,
                       fault_lookback: Optional[float] = None) -> Dict[str, Any]:
        """Drill one sample period down to its packets and faults.

        Faults are searched over ``[t0 - fault_lookback, t1]`` (default
        lookback: two period lengths) because the episode that starves
        a period often begins in an earlier one.
        """
        if fault_lookback is None:
            fault_lookback = 2.0 * max(t1 - t0, 0.0)
        fates = self.packets_for_vc(vc_id, t0, t1)
        lost = [f for f in fates if f["status"] == "lost"]
        delivered = [f for f in fates if f["status"] == "delivered"]
        return {
            "vc": str(vc_id),
            "t0": t0,
            "t1": t1,
            "sent": len(fates),
            "delivered": len(delivered),
            "lost": lost,
            "faults": self.fault_episodes(t0 - fault_lookback, t1),
        }
