"""The conservative window protocol: safety, liveness, determinism.

These tests drive :func:`repro.sim.shard.run_sharded` with toy shard
contexts (no netsim topology) so the synchronization properties are
checked in isolation: arrivals never land in a shard's past, every
message is delivered exactly once in deterministic order, idle
stretches are jumped, no cuts means a single window, and worker
failures surface as :class:`ShardError` instead of deadlocks.
"""

import math
import multiprocessing
import os
import signal
import time

import pytest

from repro.sim.scheduler import Simulator
from repro.sim.shard import Outbox, run_sharded
from repro.sim.shard.coordinator import ShardError

#: Cross-shard latency used by the ping contexts (the lookahead).
DELAY = 0.05


class _PingCtx:
    """Toy shard context: echoes numbered messages around a ring.

    Shard 0 seeds ``count`` messages; every receipt below ``hops`` total
    hops is re-exported to the next shard after ``DELAY``.  Receipts are
    recorded as ``(now, arrival, value)`` so tests can assert both
    causal safety (``now == arrival``) and global delivery order.
    """

    def __init__(self, shard_index, shards, count, hops):
        self.sim = Simulator()
        self.outbox = Outbox()
        self.shard = shard_index
        self.shards = shards
        self.hops = hops
        self.received = []
        if shard_index == 0:
            for i in range(count):
                when = 0.01 * (i + 1)
                self.sim.call_at(
                    when, lambda i=i, w=when: self._emit(i, 1, w)
                )

    def _emit(self, value, hop, now):
        nxt = (self.shard + 1) % self.shards
        self.outbox.export(nxt, f"node{nxt}", now + DELAY, (value, hop))

    def inject(self, dst_node, arrival, payload):
        assert arrival >= self.sim.now, (
            f"arrival {arrival} in shard {self.shard}'s past "
            f"(now={self.sim.now})"
        )
        self.sim.call_at(arrival, lambda: self._receive(arrival, payload))

    def _receive(self, arrival, payload):
        value, hop = payload
        assert self.sim.now == arrival
        self.received.append((self.sim.now, value, hop))
        if hop < self.hops:
            self._emit(value, hop + 1, self.sim.now)

    def collect(self):
        return {"shard": self.shard, "received": self.received}


def _ping_factory(shard_index, shards, count, hops):
    """Module-level factory (spawn-picklable) for :class:`_PingCtx`."""
    return _PingCtx(shard_index, shards, count, hops)


class _IdleCtx:
    """A shard with one early event and then a long silence."""

    def __init__(self, shard_index):
        self.sim = Simulator()
        self.outbox = Outbox()
        self.fired = []
        self.sim.call_at(0.01, lambda: self.fired.append(self.sim.now))

    def inject(self, dst_node, arrival, payload):
        raise AssertionError("no cross-shard traffic expected")

    def collect(self):
        return {"fired": self.fired, "now": self.sim.now}


def _idle_factory(shard_index):
    """Factory for :class:`_IdleCtx`."""
    return _IdleCtx(shard_index)


def _boom_factory(shard_index):
    """Factory that fails during the build on shard 1."""
    if shard_index == 1:
        raise RuntimeError("boom during build")
    return _IdleCtx(shard_index)


def test_ring_delivers_every_message_in_order():
    run = run_sharded(
        _ping_factory, 2, until=2.0, lookahead=DELAY,
        args=(2, 5, 4),
    )
    assert run.shards == 2
    # 5 messages x 4 hops: each hop is one cross-shard delivery.
    total = [r["received"] for r in run.results]
    assert sum(len(r) for r in total) == 20
    assert run.messages == 20
    for result in run.results:
        times = [t for t, _v, _h in result["received"]]
        assert times == sorted(times)
    # Hop h of message i lands exactly at seed + h * DELAY.
    for r in run.results:
        for now, value, hop in r["received"]:
            assert now == pytest.approx(0.01 * (value + 1) + hop * DELAY)


def test_three_shard_ring_and_window_override():
    run = run_sharded(
        _ping_factory, 3, until=1.0, lookahead=DELAY,
        args=(3, 4, 6), window=DELAY / 2,
    )
    assert sum(len(r["received"]) for r in run.results) == 24
    # A narrower window is safe -- just more barriers across the
    # active span (~0.29 s of traffic at half-lookahead width; the
    # idle tail to t=1.0 is jumped, not spun through).
    assert run.windows >= 10


def test_idle_fleet_jumps_instead_of_spinning():
    run = run_sharded(
        _idle_factory, 2, until=100.0, lookahead=0.001,
    )
    # 100 s of silence after t=0.01 with a 1 ms lookahead would be
    # ~100k windows without the t_next jump; with it, a handful.
    assert run.windows <= 4
    for r in run.results:
        assert r["fired"] == [pytest.approx(0.01)]
        assert r["now"] == 100.0


def test_no_cuts_is_a_single_window():
    run = run_sharded(
        _idle_factory, 2, until=50.0, lookahead=math.inf,
    )
    assert run.windows == 1


def test_worker_failure_raises_shard_error():
    with pytest.raises(ShardError, match="boom during build"):
        run_sharded(_boom_factory, 2, until=1.0, lookahead=math.inf)


#: Virtual time at which :class:`_SelfKillCtx` kills its worker.
KILL_AT = 0.5


class _SelfKillCtx(_IdleCtx):
    """An idle shard whose worker SIGKILLs itself mid-run."""

    def __init__(self, shard_index):
        super().__init__(shard_index)
        self.sim.call_at(
            KILL_AT, lambda: os.kill(os.getpid(), signal.SIGKILL),
        )


def _kill_shard1_factory(shard_index):
    """Factory whose shard 1 dies by SIGKILL at ``KILL_AT``."""
    if shard_index == 1:
        return _SelfKillCtx(shard_index)
    return _IdleCtx(shard_index)


def test_killed_worker_raises_shard_error_boundedly_and_leaves_no_worker():
    started = time.perf_counter()
    with pytest.raises(ShardError, match="shard 1 worker died"):
        run_sharded(_kill_shard1_factory, 2, until=2.0, lookahead=0.05)
    # Spawning two interpreters dominates; the limit is generous on
    # purpose.
    assert time.perf_counter() - started < 60.0
    left = [proc.name for proc in multiprocessing.active_children()
            if proc.name.startswith("repro-shard-")]
    assert left == []


def test_rejects_bad_parameters():
    with pytest.raises(ValueError, match="at least one shard"):
        run_sharded(_idle_factory, 0, until=1.0, lookahead=1.0)
    with pytest.raises(ValueError, match="positive"):
        run_sharded(_idle_factory, 1, until=1.0, lookahead=0.0)
