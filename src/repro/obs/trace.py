"""Sim-time tracing with Chrome-trace/Perfetto JSON export.

A :class:`Tracer` records *spans* (connect handshakes, Orch.Prime /
Orch.Start legs, regulation intervals, per-packet link occupancy) and
*instant events* (NACKs, recoveries, gate transitions, QoS period
reports) against the virtual clock, and serialises them in the Chrome
trace-event format, so a run can be dropped straight into
``chrome://tracing`` or https://ui.perfetto.dev.

Tracks
    Events land on named tracks ("vc:hostA-vc0", "link:src->dst",
    "node:ws", ...).  Each track becomes one Chrome-trace *process*
    (named via metadata events); spans on one track are emitted as
    complete ("X") events and are expected to nest or not overlap --
    the instrumentation keeps per-VC and per-link tracks serial by
    construction.

Zero cost when disabled
    :data:`NULL_TRACER` is installed on every simulator; every call
    site guards with ``if trace.enabled:`` (or ``trace.packets`` for
    per-packet verbosity), so the disabled path is a single attribute
    load and branch -- nothing is allocated and no simulator events are
    scheduled.  The tracer itself never schedules anything either: it
    only appends to an in-memory list at call time.

Records, not dicts
    What is appended is one flat tuple per event -- ``(name, ph, ts,
    dur, pid, cat, arg_keys, *arg_values)``: the keys of ``args`` as
    one tuple shared by every event with the same keys (``None``
    without ``args``), its values inline behind it.  The Chrome-trace
    dict is built by :func:`event_of` only when something reads it:
    :attr:`Tracer.events`, :meth:`Tracer.to_dict` and
    :meth:`Tracer.export` are views over the records.  A record whose
    argument values are atoms is a tuple of atoms (and one tuple of
    strings), which the cyclic garbage collector stops tracking after
    its first pass: a long trace costs one collector-visible allocation
    per event and slows no later collection down.

This module stays a leaf: it imports the JSON writer of
:mod:`repro.obs.export` and nothing else of the package, and the tracer
takes a ``clock`` callable (seconds of virtual time) rather than
importing the simulator.
"""

from __future__ import annotations

from enum import IntEnum
from itertools import chain
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.export import write_json_document

Clock = Callable[[], float]

#: ``(name, ph, ts, dur, pid, cat, arg_keys, *arg_values)``; ``ts`` and
#: ``dur`` in microseconds, ``dur`` set on "X" and ``cat`` unset on "C".
Record = Tuple[Any, ...]
#: Positions of a record's fixed fields; argument values start at ARGS.
NAME, PH, TS, DUR, PID, CAT, KEYS, ARGS = range(8)

#: Virtual seconds -> Chrome-trace microseconds.
_US = 1e6


class TraceLevel(IntEnum):
    """Verbosity of the instrumentation call sites."""

    OFF = 0
    #: Control-plane events: connects, prime/start/stop, regulation
    #: intervals, NACK/recovery cycles, QoS sample periods.
    LIFECYCLE = 1
    #: Additionally every packet's link occupancy (serialisation span)
    #: and host receive events -- large traces, full wire visibility.
    PACKET = 2


class Span:
    """An open span; close it with :meth:`end` (or via the tracer)."""

    __slots__ = ("_tracer", "name", "track", "cat", "start", "args")

    def __init__(self, tracer: "Tracer", name: str, track: str, cat: str,
                 start: float, args: Optional[Dict[str, Any]]):
        self._tracer = tracer
        self.name = name
        self.track = track
        self.cat = cat
        self.start = start
        self.args = args

    def end(self, **extra_args: Any) -> None:
        """Close the span at the current virtual time."""
        if extra_args:
            merged = dict(self.args or {})
            merged.update(extra_args)
            self.args = merged
        self._tracer.complete(
            self.name, self.start, self._tracer.now, track=self.track,
            cat=self.cat, args=self.args,
        )


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``enabled``/``packets`` are plain class attributes (not properties)
    so the guard at instrumentation sites compiles to one attribute
    load; span-returning methods return ``None`` so callers hold no
    object at all while tracing is off.
    """

    enabled = False
    packets = False

    def instant(self, name: str, track: str = "sim", cat: str = "event",
                args: Optional[Dict[str, Any]] = None) -> None:
        return None

    def span(self, name: str, track: str = "sim", cat: str = "span",
             args: Optional[Dict[str, Any]] = None) -> None:
        return None

    def complete(self, name: str, start: float, end: float,
                 track: str = "sim", cat: str = "span",
                 args: Optional[Dict[str, Any]] = None) -> None:
        return None

    def counter(self, name: str, values: Dict[str, float],
                track: str = "sim") -> None:
        return None


#: Shared process-wide no-op tracer (stateless, safe to share).
NULL_TRACER = NullTracer()


def event_of(record: Record) -> Dict[str, Any]:
    """The Chrome-trace dict of one record (a fresh dict every call)."""
    name, ph, ts, dur, pid, cat, keys = record[:ARGS]
    if ph == "i":
        event = {"name": name, "ph": "i", "s": "t", "ts": ts,
                 "pid": pid, "tid": 0, "cat": cat}
    elif ph == "X":
        event = {"name": name, "ph": "X", "ts": ts, "dur": dur,
                 "pid": pid, "tid": 0, "cat": cat}
    else:
        event = {"name": name, "ph": ph, "ts": ts, "pid": pid, "tid": 0}
    if keys is not None:
        event["args"] = dict(zip(keys, record[ARGS:]))
    return event


def record_of(event: Dict[str, Any]) -> Record:
    """The record of a Chrome-trace dict (inverse of :func:`event_of`
    for events a tracer wrote; other keys are not kept)."""
    args = event.get("args")
    head = (event.get("name", ""), event.get("ph"), event.get("ts", 0.0),
            event.get("dur"), event.get("pid"), event.get("cat"))
    if args is None:
        return head + (None,)
    return head + (tuple(args), *args.values())


def record_args(record: Record) -> Dict[str, Any]:
    """The ``args`` of a record as a dict (empty without ``args``)."""
    keys = record[KEYS]
    return dict(zip(keys, record[ARGS:])) if keys else {}


def record_arg(record: Record, key: str) -> Any:
    """One argument of a record, ``None`` when it has no such key."""
    keys = record[KEYS]
    if keys and key in keys:
        return record[ARGS + keys.index(key)]
    return None


class Tracer:
    """Records trace events against a virtual clock.

    Args:
        clock: callable returning virtual time in seconds.
        level: verbosity; call sites consult :attr:`enabled` (LIFECYCLE
            and up) and :attr:`packets` (PACKET and up), both plain
            attributes fixed at construction.
    """

    def __init__(self, clock: Clock, level: TraceLevel = TraceLevel.LIFECYCLE):
        self._clock = clock
        self.level = TraceLevel(level)
        self.enabled = self.level >= TraceLevel.LIFECYCLE
        self.packets = self.level >= TraceLevel.PACKET
        self._pids: Dict[str, int] = {}
        #: Every distinct ``tuple(args)`` seen, mapped to itself.
        self._arg_keys: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self._store([])

    def _store(self, records) -> None:
        """Install the record container (a list here, a ring below)."""
        self._records = records
        self._append = records.append

    # -- state -------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._clock()

    def __len__(self) -> int:
        return len(self._records)

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The recorded events (metadata events excluded)."""
        return [event_of(record) for record in self._records]

    def records(self, start: int = 0) -> List[Record]:
        """The retained records from position ``start`` on, oldest first."""
        return self._records[start:]

    # -- recording ---------------------------------------------------------

    def _pid(self, track: str) -> int:
        try:
            return self._pids[track]
        except KeyError:
            pid = self._pids[track] = len(self._pids) + 1
            return pid

    def _keys(self, args: Dict[str, Any]) -> Tuple[str, ...]:
        """The keys of ``args``, as the one tuple kept per key set."""
        keys = tuple(args)
        try:
            return self._arg_keys[keys]
        except KeyError:
            self._arg_keys[keys] = keys
            return keys

    def instant(self, name: str, track: str = "sim", cat: str = "event",
                args: Optional[Dict[str, Any]] = None) -> None:
        """Record a point-in-time event ("i" phase, thread scope)."""
        if args:
            self._append((name, "i", self._clock() * _US, None,
                          self._pid(track), cat,
                          self._keys(args), *args.values()))
        else:
            self._append((name, "i", self._clock() * _US, None,
                          self._pid(track), cat, None))

    def span(self, name: str, track: str = "sim", cat: str = "span",
             args: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span starting now; close it with ``span.end()``."""
        return Span(self, name, track, cat, self._clock(), args)

    def complete(self, name: str, start: float, end: float,
                 track: str = "sim", cat: str = "span",
                 args: Optional[Dict[str, Any]] = None) -> None:
        """Record a closed span ("X" complete event) from start to end."""
        dur = max(end - start, 0.0) * _US
        if args:
            self._append((name, "X", start * _US, dur, self._pid(track), cat,
                          self._keys(args), *args.values()))
        else:
            self._append((name, "X", start * _US, dur, self._pid(track), cat,
                          None))

    def counter(self, name: str, values: Dict[str, float],
                track: str = "sim") -> None:
        """Record a counter sample ("C" event, stacked in the viewer)."""
        self._append((name, "C", self._clock() * _US, None,
                      self._pid(track), None,
                      self._keys(values), *values.values()))

    # -- export ------------------------------------------------------------

    def _metadata(self) -> List[Dict[str, Any]]:
        return [
            {
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": track},
            }
            for track, pid in sorted(self._pids.items(), key=lambda kv: kv[1])
        ]

    def _document(self, events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_dict(self) -> Dict[str, Any]:
        """The full trace as a Chrome-trace JSON object."""
        return self._document(self._metadata() + self.events)

    def export(self, path: str) -> str:
        """Write the trace as Chrome-trace JSON; returns ``path``.

        The same bytes as ``json.dump(self.to_dict(), handle)``, but
        events are materialised and encoded a bounded chunk at a time.
        """
        return write_json_document(path, self._document(
            chain(self._metadata(), map(event_of, self._records))))


def merge_traces(
    traces: List[Dict[str, Any]],
    labels: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Fold several exported traces into one Chrome-trace document.

    Each input is a :meth:`Tracer.to_dict` object (or anything with a
    ``traceEvents`` list).  Per-trace pids are sequential small ints, so
    two shards' traces reuse the same pid space for *different* tracks;
    merging rebuilds one pid namespace keyed by track name.  With
    ``labels`` given (one per trace -- shard names, typically) every
    track is prefixed ``"<label>/"`` so same-named tracks from
    different shards stay distinct lanes; without labels, same-named
    tracks merge into a single lane (correct when track names are
    already globally unique, as namespaced fleet host names are).

    Event payloads are not copied deeply -- callers must not mutate the
    inputs afterwards.  Events keep per-trace recording order,
    concatenated; Chrome-trace consumers sort by timestamp themselves.
    """
    if labels is not None and len(labels) != len(traces):
        raise ValueError(
            f"got {len(labels)} labels for {len(traces)} traces"
        )
    pids: Dict[str, int] = {}
    merged: List[Dict[str, Any]] = []
    for index, trace in enumerate(traces):
        events = trace["traceEvents"] if isinstance(trace, dict) else trace
        # Recover this trace's pid -> track mapping from its metadata.
        tracks: Dict[int, str] = {}
        for event in events:
            if event.get("ph") == "M" and event.get("name") == "process_name":
                tracks[event["pid"]] = event["args"]["name"]
        prefix = f"{labels[index]}/" if labels is not None else ""
        remap: Dict[int, int] = {}
        for old_pid, track in tracks.items():
            name = prefix + track
            pid = pids.get(name)
            if pid is None:
                pid = pids[name] = len(pids) + 1
            remap[old_pid] = pid
        for event in events:
            if event.get("ph") == "M":
                continue
            out = dict(event)
            out["pid"] = remap.get(event.get("pid"), event.get("pid"))
            merged.append(out)
    metadata = [
        {
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": track},
        }
        for track, pid in sorted(pids.items(), key=lambda kv: kv[1])
    ]
    return {
        "traceEvents": metadata + merged,
        "displayTimeUnit": "ms",
    }
