"""Every attribute ``perf/tracing.py`` patches exists where it looks.

A traced perf run (``perf/run.py --trace 1``) wraps the layers' entry
points and a few kernel internals at class level, reading each original
from the class ``__dict__``.  Renaming or moving one of them breaks
traced runs only, so this pins the contract in the tier-1 suite: every
name resolves, ``install()`` replaces each one and ``uninstall()`` puts
every original back.
"""

from __future__ import annotations

import importlib

from perf import tracing
from repro.obs.stream import DeltaFolder
from repro.sim import scheduler

#: The kernel attributes ``SpanRecorder.install`` reads besides
#: ``ENTRY_POINTS``.
KERNEL_ATTRIBUTES = [
    (scheduler.Process, "_resume"),
    (scheduler.Process, "_throw"),
    (scheduler.TimerHandle, "__init__"),
    (scheduler.PeriodicTimer, "__init__"),
    (scheduler.Simulator, "__init__"),
    (scheduler.Simulator, "_note_dead"),
    (DeltaFolder, "fold"),
]


def entry_points():
    """``(class, method)`` for every method named in ``ENTRY_POINTS``."""
    for module_name, class_name, methods, _group in tracing.ENTRY_POINTS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            yield cls, method


def test_every_entry_point_is_defined_on_its_class():
    missing = [f"{cls.__module__}.{cls.__qualname__}.{method}"
               for cls, method in entry_points() if method not in cls.__dict__]
    assert missing == []


def test_every_kernel_attribute_is_defined_on_its_class():
    missing = [f"{cls.__qualname__}.{attr}"
               for cls, attr in KERNEL_ATTRIBUTES if attr not in cls.__dict__]
    assert missing == []


def test_install_patches_and_uninstall_restores_every_attribute():
    targets = list(entry_points()) + KERNEL_ATTRIBUTES
    originals = [cls.__dict__[attr] for cls, attr in targets]
    recorder = tracing.SpanRecorder().install()
    try:
        untouched = [f"{cls.__qualname__}.{attr}"
                     for (cls, attr), original in zip(targets, originals)
                     if cls.__dict__[attr] is original]
    finally:
        recorder.uninstall()
    assert untouched == []
    assert [cls.__dict__[attr] for cls, attr in targets] == originals
