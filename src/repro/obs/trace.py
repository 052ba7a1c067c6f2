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
    only appends to in-memory columns at call time.

Columns, not records
    An event is filed into columns, not kept as an object of its own.
    Its *head* -- ``(name, ph, pid, cat, arg_keys)``, the keys of
    ``args`` as a tuple (``None`` without ``args``) -- is one tuple
    shared by every event with the same head; its ``ts`` and ``dur``
    go into two ``array('d')`` columns and its argument values onto the
    end of one flat list.  A PACKET-level event so costs a head
    pointer, two unboxed doubles and a pointer per argument value, and
    no object the cyclic garbage collector has to track: however long
    the trace, the collector sees the same few containers.  The
    Chrome-trace dicts are built from the columns when something reads
    them (:attr:`Tracer.events`, :meth:`Tracer.to_dict`,
    :meth:`Tracer.export`), and :meth:`Tracer.records` rebuilds the
    flat record tuples ``(name, ph, ts, dur, pid, cat, arg_keys,
    *arg_values)`` that :mod:`repro.obs.causality` indexes.  The
    bounded :class:`~repro.obs.audit.FlightRecorder` ring keeps those
    tuples instead, behind the same recording entry point.

This module stays a leaf: it imports the JSON writer of
:mod:`repro.obs.export` and nothing else of the package, and the tracer
takes a ``clock`` callable (seconds of virtual time) rather than
importing the simulator.
"""

from __future__ import annotations

import json
from array import array
from enum import IntEnum
from itertools import islice
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
    Tuple,
)

Clock = Callable[[], float]

#: ``(name, ph, ts, dur, pid, cat, arg_keys, *arg_values)``; ``ts`` and
#: ``dur`` in microseconds, ``dur`` set on "X" and ``cat`` unset on "C".
Record = Tuple[Any, ...]
#: Positions of a record's fixed fields; argument values start at ARGS.
NAME, PH, TS, DUR, PID, CAT, KEYS, ARGS = range(8)
#: ``(name, ph, pid, cat, arg_keys, width)``: what every event with that
#: name, phase, track, category and key set shares; ``width`` is the
#: number of argument values each of them files.
Head = Tuple[Any, ...]
WIDTH = 5

#: Virtual seconds -> Chrome-trace microseconds.
_US = 1e6

#: Events joined into one string per write by :meth:`Tracer.export`:
#: enough that the per-write cost vanishes, few enough that an export's
#: memory does not grow with the trace.
_EVENTS_PER_WRITE = 512
#: Entries an export's text caches (argument strings, durations) hold
#: at most; a full cache is emptied, so unique values cannot grow it.
_CACHE_LIMIT = 4096

_encode = json.JSONEncoder().encode
_float_repr = float.__repr__
_int_repr = int.__repr__


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


def assemble(head: Head, ts: float, dur: float,
             values: Iterable[Any]) -> Record:
    """The record of one event, from its head, times and argument values."""
    name, ph, pid, cat, keys, _ = head
    return (name, ph, ts, dur if ph == "X" else None, pid, cat, keys,
            *values)


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
        #: ``(name, ph, track, cat, *arg_keys)`` -> the head it names.
        self._heads_by: Dict[Tuple[Any, ...], Head] = {}
        self._store()

    def _store(self) -> None:
        """Install the event store (columns here, a ring of records in
        :class:`~repro.obs.audit.FlightRecorder`)."""
        #: Per event: its head, ``ts``, ``dur`` (0.0 unless "X"); the
        #: argument values of all events, back to back.
        self._heads: List[Head] = []
        self._ts = array("d")
        self._dur = array("d")
        self._values: List[Any] = []
        #: ``(event, value)`` positions where the last read ended.
        self._cursor = (0, 0)

    def _record(self, head: Head, ts: float, dur: float,
                args: Optional[Dict[str, Any]]) -> None:
        """File one event: the entry point every recording call ends in."""
        self._heads.append(head)
        self._ts.append(ts)
        self._dur.append(dur)
        if args:
            self._values.extend(args.values())

    # -- state -------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._clock()

    def __len__(self) -> int:
        return len(self._heads)

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The recorded events (metadata events excluded)."""
        return list(self._events())

    def records(self, start: int = 0) -> List[Record]:
        """The retained records from position ``start`` on, oldest first.

        Rebuilt from the columns.  Reading on from where the previous
        call ended, as the auditor's drill-downs do, costs only the
        records filed since; any other ``start`` first walks the heads
        before it.
        """
        heads = self._heads
        start = range(len(heads))[start:].start
        at, offset = self._cursor
        if start < at:
            at = offset = 0
        offset += sum(map(itemgetter(WIDTH), heads[at:start]))
        values = iter(self._values[offset:])
        records = [
            assemble(head, ts, dur, islice(values, head[WIDTH]))
            for head, ts, dur in zip(heads[start:], self._ts[start:],
                                     self._dur[start:])
        ]
        self._cursor = (len(heads), len(self._values))
        return records

    def _events(self) -> Iterator[Dict[str, Any]]:
        """The Chrome-trace dicts, built straight from the columns."""
        # zip() stops at the keys, so each event takes its own values.
        values = iter(self._values)
        for (name, ph, pid, cat, keys, _), ts, dur in zip(
                self._heads, self._ts, self._dur):
            if ph == "i":
                event = {"name": name, "ph": "i", "s": "t", "ts": ts,
                         "pid": pid, "tid": 0, "cat": cat}
            elif ph == "X":
                event = {"name": name, "ph": "X", "ts": ts, "dur": dur,
                         "pid": pid, "tid": 0, "cat": cat}
            else:
                event = {"name": name, "ph": ph, "ts": ts, "pid": pid,
                         "tid": 0}
            if keys is not None:
                event["args"] = dict(zip(keys, values))
            yield event

    # -- recording ---------------------------------------------------------

    def _head(self, name: str, ph: str, track: str, cat: Optional[str],
              args: Optional[Dict[str, Any]]) -> Head:
        """The one head kept per ``(name, ph, track, cat, arg keys)``."""
        key = (name, ph, track, cat, *args) if args else (name, ph, track, cat)
        try:
            return self._heads_by[key]
        except KeyError:
            pass
        # A counter always has args, if maybe empty ones.
        keys = key[4:] if args or ph == "C" else None
        if keys and not all(type(k) is str for k in keys):
            # True, 1 and 1.0 are one dict key but three JSON keys: a
            # head with such keys is filed under their types and reprs.
            key = (key, tuple((type(k), repr(k)) for k in keys))
            head = self._heads_by.get(key)
            if head is not None:
                return head
        pid = self._pids.setdefault(track, len(self._pids) + 1)
        head = self._heads_by[key] = (name, ph, pid, cat, keys,
                                      len(keys) if keys else 0)
        return head

    def instant(self, name: str, track: str = "sim", cat: str = "event",
                args: Optional[Dict[str, Any]] = None) -> None:
        """Record a point-in-time event ("i" phase, thread scope)."""
        self._record(self._head(name, "i", track, cat, args),
                     self._clock() * _US, 0.0, args)

    def span(self, name: str, track: str = "sim", cat: str = "span",
             args: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span starting now; close it with ``span.end()``."""
        return Span(self, name, track, cat, self._clock(), args)

    def complete(self, name: str, start: float, end: float,
                 track: str = "sim", cat: str = "span",
                 args: Optional[Dict[str, Any]] = None) -> None:
        """Record a closed span ("X" complete event) from start to end."""
        self._record(self._head(name, "X", track, cat, args), start * _US,
                     max(end - start, 0.0) * _US, args)

    def counter(self, name: str, values: Dict[str, float],
                track: str = "sim") -> None:
        """Record a counter sample ("C" event, stacked in the viewer)."""
        self._record(self._head(name, "C", track, None, values),
                     self._clock() * _US, 0.0, values)

    # -- export ------------------------------------------------------------

    def _metadata(self) -> List[Dict[str, Any]]:
        return [
            {
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": track},
            }
            for track, pid in sorted(self._pids.items(), key=lambda kv: kv[1])
        ]

    def to_dict(self) -> Dict[str, Any]:
        """The full trace as a Chrome-trace JSON object."""
        return {"traceEvents": self._metadata() + self.events,
                "displayTimeUnit": "ms"}

    def _columns(self) -> Tuple[Sequence[Head], Sequence[float],
                                Sequence[float], Sequence[Any]]:
        """Per event its head, ``ts`` and ``dur``; then every event's
        argument values, back to back: what :meth:`export` writes."""
        return self._heads, self._ts, self._dur, self._values

    def export(self, path: str) -> str:
        """Write the trace as Chrome-trace JSON; returns ``path``.

        The same bytes as ``json.dump(self.to_dict(), handle)``, written
        from the columns through per-head templates, a bounded chunk of
        events at a time (see the module docstring).
        """
        metadata = _encode(self._metadata())[1:-1]
        with open(path, "w") as handle:
            write = handle.write
            write('{"traceEvents": [' + metadata)
            separator = ", " if metadata else ""
            for text in _event_texts(*self._columns()):
                write(separator + text)
                separator = ", "
            write('], "displayTimeUnit": "ms"}')
        return path


def _float_text(value: float) -> str:
    """A float as the C encoder writes it (``NaN``, ``Infinity``...)."""
    return _float_repr(value) if isfinite(value) else _encode(value)


def _template(head: Head) -> str:
    """The ``%``-template of every event under ``head``.

    Its constant text is what the C encoder writes for the event's dict
    (:func:`event_of`), with ``%`` doubled and a ``%s`` for ``ts``, for
    ``dur`` on "X" and for each argument value.
    """
    name, ph, pid, cat, keys, _ = head
    parts = ['{"name": ' + _encode(name) + ', "ph": ' + _encode(ph)
             + (', "s": "t"' if ph == "i" else "") + ', "ts": ']
    if ph == "X":
        parts.append(', "dur": ')
    tail = ', "pid": ' + _encode(pid) + ', "tid": 0'
    if ph in ("i", "X"):
        tail += ', "cat": ' + _encode(cat)
    if keys is None:
        parts.append(tail + "}")
    elif not keys:
        parts.append(tail + ', "args": {}}')
    else:
        for index, key in enumerate(keys):
            # The encoder's text for a dict key: str or not, as written.
            text = _encode({key: 0})[1:-4] + ": "
            parts.append((tail + ', "args": {' if index == 0 else ", ")
                         + text)
        parts.append("}}")
    return "%s".join(part.replace("%", "%%") for part in parts)


def _event_texts(heads: Sequence[Head], ts: Sequence[float],
                 dur: Sequence[float], values: Sequence[Any]) -> Iterator[str]:
    """The JSON of every event, ``_EVENTS_PER_WRITE`` events per string.

    Templates are keyed by the head object: two heads whose key tuples
    are equal under ``==`` (``(True,)`` and ``(1,)``) stay apart.
    """
    templates: Dict[int, Tuple[str, bool, int]] = {}
    strings: Dict[str, str] = {}
    durations: Dict[float, str] = {}

    def cache(table: Dict[Any, str], key: Any, text: str) -> str:
        if len(table) >= _CACHE_LIMIT:
            table.clear()
        table[key] = text
        return text

    offset = 0
    for start in range(0, len(heads), _EVENTS_PER_WRITE):
        stop = start + _EVENTS_PER_WRITE
        chunk = heads[start:stop]
        width = sum(map(itemgetter(WIDTH), chunk))
        texts = [
            _int_repr(value) if type(value) is int
            else strings.get(value)
            or cache(strings, value, encode_basestring_ascii(value))
            if type(value) is str
            else _encode(value)
            for value in values[offset:offset + width]
        ]
        offset += width
        times = ts[start:stop]
        # A NaN or an infinity anywhere makes the sum non-finite.
        times = map(_float_repr if isfinite(sum(times)) else _float_text,
                    times)
        events = []
        at = 0
        for head, time, span in zip(chunk, times, dur[start:stop]):
            entry = templates.get(id(head))
            if entry is None:
                entry = templates[id(head)] = (
                    _template(head), head[1] == "X", head[WIDTH])
            template, is_span, count = entry
            if is_span:
                text = durations.get(span)
                if text is None:
                    text = _float_text(span)
                    # -0.0 finds 0.0's entry and NaN finds none: keep
                    # neither.
                    if span and span == span:
                        cache(durations, span, text)
                events.append(template % (time, text, *texts[at:at + count]))
            else:
                events.append(template % (time, *texts[at:at + count]))
            at += count
        yield ", ".join(events)


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
