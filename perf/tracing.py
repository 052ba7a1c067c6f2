"""Span tracing of the program's layer boundaries, from the outside.

Imported by traced runs only.  Nothing under ``src/`` is edited: a
:class:`SpanRecorder` is installed where the program already looks for
a wall-clock profiler (``sim.profile``), which yields the program's own
four spans (``scheduler.dispatch``, ``link.commit``,
``transport.deliver``, ``audit.evaluate``), and the public entry points
of each layer are wrapped at class level for the duration of one rep.

Every span has a name, start, end and parent.  A span's *self* time is
its duration minus the time its child spans cover, so self times add up
to the time under top-level spans without double counting.  Each
dispatched event is one top-level span, labelled with the module that
owns the callback (``cb:netsim.link``); each process resumption is a
span labelled with the module that owns the generator
(``proc:media.source``).
"""

from __future__ import annotations

import importlib
import inspect
import json
import pickle
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: (module, class, methods, span group).  The group is the per-layer
#: metric the span's self time is charged to.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.netsim.topology", "Network", ("send",), "netsim.node"),
    ("repro.netsim.node", "Router", ("receive",), "netsim.node"),
    ("repro.netsim.node", "Host", ("receive",), "netsim.node"),
    ("repro.transport.entity", "VCEndpoint", ("write", "try_write"),
     "transport.send"),
    ("repro.transport.vc", "SendVC", ("on_credit", "on_ack", "on_nack"),
     "transport.send"),
    ("repro.transport.entity", "VCEndpoint", ("read", "try_read"),
     "transport.recv"),
    ("repro.transport.vc", "RecvVC", ("on_data", "grant"), "transport.recv"),
    ("repro.transport.errorcontrol", "ReorderBuffer", ("on_arrival",),
     "transport.recv"),
    ("repro.transport.monitor", "QoSMonitor",
     ("record_delivery", "record_loss"), "transport.monitor"),
    ("repro.transport.entity", "TransportEntity", ("request",),
     "transport.entity"),
    ("repro.orchestration.llo", "LLOInstance",
     ("orch_request", "release", "group_command", "prime", "start", "stop",
      "add", "remove", "regulate_request", "nudge_request",
      "delayed_request", "event_register"), "orchestration.llo"),
    ("repro.obs.audit", "QoSAuditor", ("record_skew",), "obs.audit"),
    ("repro.obs.trace", "Tracer", ("instant", "complete", "counter", "span"),
     "obs.trace"),
)

#: The program's own profiler spans and the group each belongs to.
PROGRAM_SPANS = {
    "link.commit": "netsim.link",
    "transport.deliver": "transport.entity",
    "audit.evaluate": "obs.audit",
}

#: Owner module (under ``repro.``) -> group, most specific prefix first.
MODULE_GROUPS: Tuple[Tuple[str, str], ...] = (
    ("sim", "sim.process"),
    ("netsim.link", "netsim.link"),
    ("netsim", "netsim.node"),
    ("transport.flowcontrol", "transport.send"),
    ("transport.vc", "transport.send"),
    ("transport.errorcontrol", "transport.recv"),
    ("transport.buffers", "transport.recv"),
    ("transport.monitor", "transport.monitor"),
    ("transport", "transport.entity"),
    ("orchestration.llo", "orchestration.llo"),
    ("orchestration", "orchestration.agent"),
    ("media", "media"),
    ("obs", "obs.audit"),
    ("soak", "soak"),
)
#: Spans owned by code outside the layers (the workload driver, ansa).
OTHER_GROUP = "other"

#: Spans kept in full for the Chrome trace; aggregates are unbounded.
MAX_SPANS = 100_000


def group_of(span_name: str) -> str:
    """The metric group a span name is charged to."""
    if span_name in PROGRAM_SPANS:
        return PROGRAM_SPANS[span_name]
    kind, _, rest = span_name.partition(":")
    if kind not in ("cb", "proc"):
        return kind  # entry-point spans are named "<group>:<Class.method>"
    for prefix, group in MODULE_GROUPS:
        if rest == prefix or rest.startswith(prefix + "."):
            return group
    return OTHER_GROUP


def _short_module(module: str) -> str:
    return module[len("repro."):] if module.startswith("repro.") else module


def _module_of_path(path: str) -> str:
    """``.../src/repro/media/source.py`` -> ``media.source``."""
    parts = path.replace("\\", "/").rsplit(".", 1)[0].split("/")
    for anchor in ("repro", "perf"):
        if anchor in parts:
            index = len(parts) - 1 - parts[::-1].index(anchor)
            tail = parts[index + 1:] if anchor == "repro" else parts[index:]
            return ".".join(tail)
    return parts[-1]


class SpanRecorder:
    """Records spans, their parents and self times.

    Quacks like :class:`repro.obs.profile.WallProfiler` (``clock`` and
    ``add``) so the program's instrumented sites feed it directly.
    Spans arrive *completed*, innermost first; a span's children are
    the already-completed spans that started after it did, which the
    ``_done`` stack keeps contiguous at its top.
    """

    def __init__(self) -> None:
        self.clock = perf_counter
        #: name -> [count, total_s, self_s]
        self.aggregate: Dict[str, List[float]] = {}
        #: [name, start_s, duration_s, parent index or -1]
        self.spans: List[List[Any]] = []
        self.dropped = 0
        self.cancels = 0
        #: Pickled size of every telemetry delta folded (never reset:
        #: folds happen in all three phases of a fleet rep).
        self.delta_bytes = 0
        #: Owner label of the callback being dispatched (set by the
        #: wrapper every armed callback runs through).
        self.owner = "cb:?"
        self._done: List[Tuple[float, float, int]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._owner_labels: Dict[str, str] = {}
        self._proc_labels: Dict[Any, str] = {}

    # -- recording ---------------------------------------------------------

    def add(self, key: str, started: float, ended: float) -> None:
        """File one completed span and claim its children."""
        top_level = key == "scheduler.dispatch"
        if top_level:
            key = self.owner
        duration = ended - started
        spans = self.spans
        if len(spans) < MAX_SPANS:
            index = len(spans)
            spans.append([key, started, duration, -1])
        else:
            index = -1
            self.dropped += 1
        children = 0.0
        done = self._done
        while done and done[-1][0] >= started:
            _start, child_duration, child_index = done.pop()
            children += child_duration
            if child_index >= 0:
                spans[child_index][3] = index
        if not top_level:
            done.append((started, duration, index))
        stats = self.aggregate.get(key)
        if stats is None:
            stats = self.aggregate[key] = [0, 0.0, 0.0]
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration - children

    def reset(self) -> None:
        """Forget everything recorded so far (timed phase starts)."""
        self.aggregate.clear()
        self.spans.clear()
        self._done.clear()
        self.dropped = 0
        self.cancels = 0

    def totals(self) -> Dict[str, List[float]]:
        """A copy of the per-name ``[count, total_s, self_s]`` table."""
        totals = {name: list(stats) for name, stats in self.aggregate.items()}
        totals["#cancels"] = [self.cancels, 0.0, 0.0]
        return totals

    def export_chrome_trace(self, path: str) -> str:
        """Write the retained spans as Chrome ``traceEvents`` JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {"ph": "X", "pid": 0, "tid": 0, "name": name, "cat": group_of(name),
             "ts": (start - origin) * 1e6, "dur": duration * 1e6,
             "args": {"id": index, "parent": parent}}
            for index, (name, start, duration, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "dropped_spans": self.dropped}, handle)
        return path

    # -- labels ------------------------------------------------------------

    def _owner_label(self, fn: Callable) -> str:
        fn = getattr(fn, "func", fn)  # functools.partial
        module = getattr(fn, "__module__", None) or type(fn).__module__
        label = self._owner_labels.get(module)
        if label is None:
            label = self._owner_labels[module] = "cb:" + _short_module(module)
        return label

    def _proc_label(self, process) -> str:
        code = getattr(process.gen, "gi_code", None)
        label = self._proc_labels.get(code)
        if label is None:
            module = (_module_of_path(code.co_filename) if code is not None
                      else type(process.gen).__module__)
            label = self._proc_labels[code] = "proc:" + module
        return label

    # -- class patches -----------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        clock, add = self.clock, self.add
        if inspect.isgeneratorfunction(fn):
            return _generator_span_wrapper(fn, name, clock, add)

        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                add(name, started, clock())

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "SpanRecorder":
        """Patch the layer boundaries; call before the stack is built
        (bound methods captured at build time must see the wrappers)."""
        from repro.obs.stream import DeltaFolder
        from repro.sim import scheduler

        for module_name, class_name, methods, group in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                self._patch(cls, method, self._span_wrapper(
                    cls.__dict__[method], f"{group}:{class_name}.{method}"))

        recorder = self
        clock, add = self.clock, self.add
        handle_init = scheduler.TimerHandle.__dict__["__init__"]
        periodic_init = scheduler.PeriodicTimer.__dict__["__init__"]
        resume = scheduler.Process.__dict__["_resume"]
        throw = scheduler.Process.__dict__["_throw"]
        note_dead = scheduler.Simulator.__dict__["_note_dead"]
        fold = DeltaFolder.__dict__["fold"]

        def labelled_init(handle, sim, fn, priority=0):
            label = recorder._owner_label(fn)

            def labelled() -> None:
                recorder.owner = label
                fn()

            handle_init(handle, sim, labelled, priority)

        def labelled_periodic_init(timer, sim, period, fn, priority=0):
            # The handle belongs to the timer (``cb:sim.scheduler``);
            # the tick's work belongs to whoever owns ``fn``.
            periodic_init(timer, sim, period, recorder._span_wrapper(
                fn, recorder._owner_label(fn)), priority)

        def traced_fold(folder, shard, delta):
            if delta is not None:
                recorder.delta_bytes += len(pickle.dumps(delta))
            started = clock()
            try:
                fold(folder, shard, delta)
            finally:
                add("obs.fold:DeltaFolder.fold", started, clock())

        def traced_resume(process, value):
            started = clock()
            try:
                resume(process, value)
            finally:
                add(recorder._proc_label(process), started, clock())

        def traced_throw(process, exc):
            started = clock()
            try:
                throw(process, exc)
            finally:
                add(recorder._proc_label(process), started, clock())

        def counted_note_dead(sim, when):
            recorder.cancels += 1
            note_dead(sim, when)

        self._patch(scheduler.TimerHandle, "__init__", labelled_init)
        self._patch(scheduler.PeriodicTimer, "__init__", labelled_periodic_init)
        self._patch(scheduler.Process, "_resume", traced_resume)
        self._patch(scheduler.Process, "_throw", traced_throw)
        self._patch(scheduler.Simulator, "_note_dead", counted_note_dead)
        self._patch(DeltaFolder, "fold", traced_fold)
        # Every simulator built from here on reports to this recorder.
        simulator_init = scheduler.Simulator.__dict__["__init__"]

        def profiled_init(sim) -> None:
            simulator_init(sim)
            sim.profile = recorder

        self._patch(scheduler.Simulator, "__init__", profiled_init)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _generator_span_wrapper(fn: Callable, name: str, clock, add) -> Callable:
    """Wrap a coroutine entry point: one span per resumption segment.

    A hand-rolled ``yield from`` (PEP 380): values sent and exceptions
    thrown into the wrapper are forwarded to the wrapped generator, so
    the process sees the same yields in the same order.
    """

    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        value = None
        pending = None
        while True:
            started = clock()
            try:
                if pending is None:
                    yielded = gen.send(value)
                else:
                    exc, pending = pending, None
                    yielded = gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                add(name, started, clock())
            try:
                value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded, never swallowed
                pending = exc

    wrapper.__wrapped__ = fn
    return wrapper


def self_seconds_by_group(totals: Dict[str, List[float]]) -> Dict[str, float]:
    """Fold a recorder's per-name table into self seconds per group."""
    groups: Dict[str, float] = {}
    for name, (_count, _total, self_s) in totals.items():
        if name.startswith("#"):
            continue
        group = group_of(name)
        groups[group] = groups.get(group, 0.0) + self_s
    return groups
