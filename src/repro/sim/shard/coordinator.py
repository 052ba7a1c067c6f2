"""Coordinator side of a sharded run: the conservative window protocol.

The coordinator owns wall-clock concerns only -- worker processes, pipes
and message routing; all virtual-time safety lives in one formula.  With
``W`` the lookahead (minimum cut-link propagation delay) and ``t_next``
the earliest pending event across the fleet (worker peeks plus buffered
cross-shard arrivals), the next barrier is::

    t_end = min(until, max(T + W, t_next + W))

Every packet exported during a window departs no earlier than the
window's start and arrives at least ``W`` later, so arrivals always land
at or beyond the *next* barrier -- injecting the previous window's
exports before running the next window can never deliver into a shard's
past.  ``W > 0`` is enforced at partition time, so every round advances
the clock and the protocol cannot deadlock; the ``t_next + W`` term
lets an idle fleet jump sparse stretches instead of spinning empty
windows.  With no cuts at all ``W = inf`` and the whole run is a single
window per shard, which is what makes 1-shard mode bit-identical to an
unsharded run.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.sim.shard.runner import shard_worker


class ShardError(RuntimeError):
    """A worker process failed; carries the remote traceback."""


@dataclass
class ShardedRun:
    """Outcome of :func:`run_sharded`.

    ``results[k]`` is shard ``k``'s ``collect()`` payload.  ``windows``
    counts synchronization barriers, ``messages`` cross-shard packets
    routed, ``wall_s`` the end-to-end wall-clock time including worker
    start-up and result collection.
    """

    shards: int
    until: float
    lookahead: float
    results: List[Any] = field(default_factory=list)
    windows: int = 0
    messages: int = 0
    wall_s: float = 0.0


def _recv(conn, proc, shard: int):
    """Receive one message, failing fast if the worker died (a killed
    worker's pipe reads end-of-file)."""
    try:
        while not conn.poll(0.2):
            if not proc.is_alive():
                raise EOFError
        return conn.recv()
    except EOFError:
        proc.join(timeout=5)
        raise ShardError(
            f"shard {shard} worker died without a message "
            f"(exit code {proc.exitcode})"
        ) from None


def _expect(msg, kind: str, shard: int):
    """Unwrap a worker message, surfacing remote errors."""
    if msg[0] == "error":
        raise ShardError(f"shard {msg[1]} failed:\n{msg[2]}")
    if msg[0] != kind:  # pragma: no cover - protocol guard
        raise ShardError(
            f"shard {shard}: expected {kind!r}, got {msg[0]!r}"
        )
    return msg


def run_sharded(
    factory: Callable,
    shards: int,
    *,
    until: float,
    lookahead: float,
    args: tuple = (),
    kwargs: Optional[dict] = None,
    window: Optional[float] = None,
    mp_context: str = "spawn",
    progress: Optional[Callable[[float, int], None]] = None,
    on_delta: Optional[Callable[[int, float, Any], None]] = None,
) -> ShardedRun:
    """Run ``factory(shard_index, *args, **kwargs)`` on every shard.

    ``factory`` must be picklable (a module-level callable) and return
    a shard context as described in :mod:`repro.sim.shard.runner`.
    ``lookahead`` is the partition's minimum cut latency (``inf`` when
    nothing crosses a boundary); ``window`` optionally caps the window
    width below the lookahead -- a smaller window is always safe and
    useful for exercising the protocol in tests.  ``progress``, when
    given, is called after every barrier with ``(t_end, windows)``.
    ``on_delta`` receives ``(shard, t_end, delta)`` for every non-empty
    telemetry delta a streaming context ships with its window message
    (before ``progress`` fires for the barrier); see
    :mod:`repro.obs.stream`.

    Raises :class:`ShardError` with the remote traceback if any worker
    fails, and :class:`ValueError` for a non-positive effective window.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    eff = lookahead if window is None else min(lookahead, window)
    if not eff > 0:  # also rejects NaN
        raise ValueError(f"effective window must be positive, got {eff}")

    started = time.perf_counter()
    ctx = mp.get_context(mp_context)
    conns = []
    procs = []
    run = ShardedRun(shards=shards, until=until, lookahead=lookahead)
    try:
        for k in range(shards):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=shard_worker,
                args=(child, factory, k, args, kwargs or {}),
                name=f"repro-shard-{k}",
            )
            proc.start()
            child.close()
            conns.append(parent)
            procs.append(proc)

        peeks: List[Optional[float]] = [None] * shards
        for k in range(shards):
            msg = _expect(_recv(conns[k], procs[k], k), "ready", k)
            peeks[k] = msg[2]

        pending: List[list] = [[] for _ in range(shards)]
        t = 0.0
        while t < until:
            bounds = [p for p in peeks if p is not None]
            bounds.extend(item[0] for batch in pending for item in batch)
            t_next = min(bounds) if bounds else None
            if math.isinf(eff) or t_next is None:
                t_end = until
            else:
                t_end = min(until, max(t + eff, t_next + eff))
            for k in range(shards):
                conns[k].send(("advance", t_end, pending[k]))
            pending = [[] for _ in range(shards)]
            for k in range(shards):
                msg = _expect(_recv(conns[k], procs[k], k), "window", k)
                _, _, outbound, peek, delta = msg
                peeks[k] = peek
                if on_delta is not None and delta is not None:
                    on_delta(k, t_end, delta)
                for arrival, seq, dst_shard, dst_node, packet in outbound:
                    pending[dst_shard].append(
                        (arrival, k, seq, dst_node, packet)
                    )
                    run.messages += 1
            t = t_end
            run.windows += 1
            if progress is not None:
                progress(t_end, run.windows)

        for k in range(shards):
            conns[k].send(("finish",))
        results: List[Any] = [None] * shards
        for k in range(shards):
            msg = _expect(_recv(conns[k], procs[k], k), "results", k)
            results[k] = msg[2]
        run.results = results
        for proc in procs:
            proc.join(timeout=30)
        run.wall_s = time.perf_counter() - started
        return run
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
