"""A desired-state control plane over the High Level Orchestrator.

The paper's orchestration service (Tables 4-6) is a set of primitives:
T-Connect establishes a CM connection, Orch.Prime/Start/Stop drive a
group.  This module is the thing that *operates* them, in the mold of
production stream routers: a reconciler that consumes ``ready`` /
``unready`` hook events (at-least-once, out-of-order, duplicated --
see :mod:`repro.orchestration.events`) and continuously converges each
stream's **actual** state to its **desired** state.

Per stream, the reconcile loop:

1. acquires the stream's worker lease (at-most-one by construction,
   :mod:`repro.orchestration.lease`);
2. admits the session against :mod:`repro.netsim.reservation`'s link
   capacity accounting;
3. establishes the VC through the :class:`~repro.ansa.stream.StreamFactory`
   (T-Connect), builds the worker (media source + playout sink), and
   drives the Orch group lifecycle (orchestrate -> prime -> start);
4. on ``unready`` (or a superseding run id) tears the session down in
   reverse order and releases the lease;
5. on any failure, releases whatever was acquired, backs off with
   bounded exponential delay, and retries while the stream is still
   desired -- failures never leave the stream's own loop, so one sick
   stream cannot stall its neighbours.

Because desired state is the max-seq reduction of the event stream,
duplicate or reordered events never reach the lifecycle machinery at
all: the reconciler is kicked only by *applied* events, which is what
makes the no-flapping guarantee structural rather than statistical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim.scheduler import Simulator, Timer
from repro.orchestration.events import (
    APPLIED,
    DesiredTable,
    FlakyHookChannel,
    HookDeliveryConfig,
    HookEvent,
    StreamHookSource,
)
from repro.orchestration.lease import Lease, LeaseTable
from repro.orchestration.policy import OrchestrationPolicy


class ControlPlaneError(Exception):
    """Raised when a lifecycle step is refused by a lower layer."""


@dataclass(frozen=True)
class ControlPlanePolicy:
    """Reconciler tuning knobs.

    Attributes:
        backoff_base: first retry delay after a failed reconcile step.
        backoff_factor: multiplier per consecutive failure.
        backoff_cap: upper bound on the retry delay.
        reservation_buffer_bytes: per-hop buffer asked of the admission
            gate alongside the stream's throughput.
        regulate: start HLO regulation when a session starts.
    """

    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_cap: float = 4.0
    reservation_buffer_bytes: int = 0
    regulate: bool = True

    def backoff(self, failures: int) -> float:
        """Delay before retry number ``failures`` (1-based)."""
        if failures <= 0:
            return 0.0
        delay = self.backoff_base * self.backoff_factor ** (failures - 1)
        return min(delay, self.backoff_cap)


@dataclass
class StreamTemplate:
    """Everything needed to start a session for one registered stream.

    ``worker_factory`` (optional) is called as ``factory(controlplane,
    stream, template)`` after the VC exists and must return the
    application-thread object(s) answering the Orch handshake; when
    omitted the control plane builds the default stored-source +
    gated-playout-sink pair.
    """

    stream_id: str
    source: object               # TransportAddress
    sink: object                 # TransportAddress
    media_qos: object            # MediaQoS
    worker_factory: Optional[Callable] = None
    orch_policy: Optional[OrchestrationPolicy] = None


@dataclass
class _StreamState:
    """Mutable per-stream reconcile state (actual side)."""

    template: StreamTemplate
    loop_running: bool = False
    failures: int = 0
    last_error: Optional[str] = None
    # Active session pieces (all None when stopped).
    lease: Optional[Lease] = None
    stream: Optional[object] = None
    worker: Optional[object] = None
    session: Optional[object] = None
    run_id: Optional[str] = None
    outages: int = 0
    recoveries: int = 0
    starts: int = 0
    stops: int = 0


@dataclass
class DefaultWorker:
    """The default per-stream worker: stored source + gated sink."""

    name: str
    source: object
    sink: object


class PublisherHandle:
    """The publish side of one stream's hook contract.

    Returned by :meth:`ControlPlane.publisher`; ``ready()`` /
    ``unready()`` mint correctly-sequenced events and push them through
    the (possibly flaky) delivery channel.
    """

    def __init__(self, controlplane: "ControlPlane", source: StreamHookSource):
        self._cp = controlplane
        self._source = source

    @property
    def stream_id(self) -> str:
        return self._source.stream_id

    def ready(self) -> HookEvent:
        """Publish: the stream's media became available."""
        event = self._source.ready()
        self._cp.channel.publish(event)
        return event

    def unready(self) -> HookEvent:
        """Publish: the stream's media stopped."""
        event = self._source.unready()
        self._cp.channel.publish(event)
        return event

    @property
    def runs(self) -> int:
        """Stream sessions opened so far."""
        return self._source.runs


class ControlPlane:
    """Event-driven desired-state reconciler over the HLO.

    One instance supervises any number of registered streams; each
    stream reconciles in its own coroutine so failure and backoff are
    isolated per stream.
    """

    def __init__(
        self,
        sim: Simulator,
        hlo,
        factory,
        reservations,
        clock_of: Callable[[str], object],
        policy: Optional[ControlPlanePolicy] = None,
        delivery: Optional[HookDeliveryConfig] = None,
        rng=None,
    ):
        self.sim = sim
        self.hlo = hlo
        self.factory = factory
        self.reservations = reservations
        self.clock_of = clock_of
        self.policy = policy or ControlPlanePolicy()
        self.desired = DesiredTable()
        self.leases = LeaseTable(sim)
        self.channel = FlakyHookChannel(
            sim, self.handle_event, rng=rng, config=delivery
        )
        self._streams: Dict[str, _StreamState] = {}
        self._publishers: Dict[str, PublisherHandle] = {}

    # -- metrics helpers -------------------------------------------------

    def _count(self, name: str) -> None:
        self.sim.metrics.counter(f"controlplane.{name}").inc()

    def _set_gauges(self) -> None:
        running = sum(
            1 for s in self._streams.values() if s.session is not None
        )
        self.sim.metrics.gauge("controlplane.streams.registered").set(
            len(self._streams)
        )
        self.sim.metrics.gauge("controlplane.streams.running").set(running)

    # -- registration / publishing ---------------------------------------

    def register(self, template: StreamTemplate) -> PublisherHandle:
        """Register a stream template and return its publisher handle.

        Registering an id twice replaces the template (the handle and
        its event sequencing survive, so desired state is preserved).
        """
        state = self._streams.get(template.stream_id)
        if state is None:
            self._streams[template.stream_id] = _StreamState(template)
        else:
            state.template = template
        if template.stream_id not in self._publishers:
            self._publishers[template.stream_id] = PublisherHandle(
                self, StreamHookSource(template.stream_id)
            )
        self._set_gauges()
        self._kick(template.stream_id)
        return self._publishers[template.stream_id]

    def publisher(self, stream_id: str) -> PublisherHandle:
        """The publisher handle for a registered stream."""
        return self._publishers[stream_id]

    # -- event intake ----------------------------------------------------

    def handle_event(self, event: HookEvent) -> None:
        """Consume one delivered hook event (the channel's sink).

        Safe to call directly for externally-sourced events; duplicate
        and stale deliveries are counted and dropped here, before any
        lifecycle machinery can see them.
        """
        outcome = self.desired.observe(event)
        self._count(f"events.{outcome}")
        if outcome != APPLIED:
            return
        if event.stream_id not in self._streams:
            self._count("events.unregistered")
            return
        self._kick(event.stream_id)

    def _kick(self, stream_id: str) -> None:
        state = self._streams.get(stream_id)
        if state is None or state.loop_running:
            return
        if self.desired.desired(stream_id) is None:
            return
        state.loop_running = True
        self.sim.spawn(
            self._reconcile_loop(stream_id), name=f"cp-reconcile:{stream_id}"
        )

    # -- the reconcile loop ----------------------------------------------

    def _converged(self, state: _StreamState) -> bool:
        desired = self.desired.desired(state.template.stream_id)
        if desired is None:
            return state.session is None
        if desired.running:
            return state.session is not None and state.run_id == desired.run_id
        return state.session is None

    def _reconcile_loop(self, stream_id: str):
        state = self._streams[stream_id]
        backoff = Timer(self.sim)
        try:
            while not self._converged(state):
                desired = self.desired.desired(stream_id)
                self._count("reconcile.steps")
                try:
                    if state.session is not None:
                        # Actual is running but shouldn't be (or is the
                        # wrong run): stop first, then re-evaluate.
                        reason = (
                            "superseded"
                            if desired is not None and desired.running
                            else "unready"
                        )
                        yield from self._stop_session(state, reason)
                    elif desired is not None and desired.running:
                        yield from self._start_session(state, desired.run_id)
                    state.failures = 0
                    state.last_error = None
                except Exception as exc:  # per-stream isolation boundary
                    state.failures += 1
                    state.last_error = f"{type(exc).__name__}: {exc}"
                    self._count("reconcile.failures")
                    delay = self.policy.backoff(state.failures)
                    if delay > 0:
                        self._count("reconcile.backoffs")
                        yield backoff.after(delay)
        finally:
            state.loop_running = False
        self._count("reconcile.converged")

    # -- lifecycle: start ------------------------------------------------

    def _start_session(self, state: _StreamState, run_id: str):
        template = state.template
        qos = template.media_qos
        lease = self.leases.acquire(
            template.stream_id,
            holder=f"worker:{template.stream_id}",
            run_id=run_id,
        )
        gate = None
        stream = None
        session = None
        try:
            # Admission gate: hold a reservation for the stream's wire
            # throughput while T-Connect runs, so concurrent starts see
            # each other.  The transport commits its own reservation
            # during connect; the gate is released as soon as the VC is
            # up to avoid double-counting the stream's bandwidth.
            try:
                gate = self.reservations.reserve(
                    template.source.node,
                    template.sink.node,
                    qos.throughput_bps,
                    buffer_bytes=self.policy.reservation_buffer_bytes,
                )
            except Exception:
                self._count("admission.rejected")
                raise
            self._count("admission.admitted")
            stream = yield from self.factory.create(
                template.source, template.sink, qos
            )
            self.reservations.release(gate)
            gate = None
            if template.worker_factory is not None:
                worker = template.worker_factory(self, stream, template)
            else:
                worker = self._default_worker(stream, template)
            session = yield from self.hlo.orchestrate(
                [stream.spec()],
                template.orch_policy,
                session_id=f"cp:{template.stream_id}:{run_id}",
            )
            self._wire_outage_hooks(state, session)
            reply = yield from session.prime()
            if not reply.accept:
                raise ControlPlaneError(f"prime refused: {reply.reason}")
            reply = yield from session.start(regulate=self.policy.regulate)
            if not reply.accept:
                raise ControlPlaneError(f"start refused: {reply.reason}")
        except Exception:
            # Unwind partial acquisition in reverse order; the lease is
            # always released so a retry can re-acquire it.
            if gate is not None:
                self.reservations.release(gate)
            if session is not None:
                session.release("start-failed")
            if stream is not None:
                stream.close()
            self.leases.release(lease, "start-failed")
            raise
        state.lease = lease
        state.stream = stream
        state.worker = worker
        state.session = session
        state.run_id = run_id
        state.starts += 1
        self._count("sessions.started")
        self._set_gauges()

    def _default_worker(self, stream, template: StreamTemplate) -> DefaultWorker:
        from repro.media.encodings import CBREncoding
        from repro.media.sink import PlayoutSink
        from repro.media.source import StoredMediaSource

        qos = template.media_qos
        encoding = CBREncoding(
            f"cp-{template.stream_id}", qos.osdu_rate, qos.osdu_bytes
        )
        source = StoredMediaSource(self.sim, stream.send_endpoint, encoding)
        sink = PlayoutSink(
            self.sim,
            stream.recv_endpoint,
            qos.osdu_rate,
            self.clock_of(stream.sink_node),
            mode="gated",
        )
        return DefaultWorker(
            name=f"worker:{template.stream_id}", source=source, sink=sink
        )

    def _wire_outage_hooks(self, state: _StreamState, session) -> None:
        agent = session.agent
        previous_outage = agent.on_outage
        previous_recovery = getattr(agent, "on_recovery", None)

        def on_outage(vc_id: str) -> None:
            state.outages += 1
            self._count("outages.observed")
            if previous_outage is not None:
                previous_outage(vc_id)

        def on_recovery(vc_id: str) -> None:
            state.recoveries += 1
            self._count("outages.recovered")
            if previous_recovery is not None:
                previous_recovery(vc_id)

        agent.on_outage = on_outage
        agent.on_recovery = on_recovery

    # -- lifecycle: stop -------------------------------------------------

    def _stop_session(self, state: _StreamState, reason: str):
        session = state.session
        stream = state.stream
        lease = state.lease
        # Clear the actual state first so a failure below cannot leave
        # a half-recorded session that double-stops on retry.
        state.session = None
        state.stream = None
        state.worker = None
        state.run_id = None
        try:
            yield from session.stop()
        finally:
            session.release(reason)
            if stream is not None:
                stream.close()
            if lease is not None:
                self.leases.release(lease, reason)
            state.lease = None
        state.stops += 1
        self._count("sessions.stopped")
        if reason == "superseded":
            self._count("sessions.superseded")
        self._set_gauges()

    # -- query API -------------------------------------------------------

    def converged(self) -> bool:
        """True when every registered stream matches its desired state."""
        return all(self._converged(s) for s in self._streams.values())

    def path(self, stream_id: str) -> dict:
        """One stream's desired/actual view (MediaMTX-style path entry)."""
        state = self._streams[stream_id]
        desired = self.desired.desired(stream_id)
        lease = self.leases.holder(stream_id)
        return {
            "stream_id": stream_id,
            "desired": (
                {"running": desired.running, "run_id": desired.run_id,
                 "seq": desired.seq}
                if desired is not None else None
            ),
            "actual": {
                "running": state.session is not None,
                "run_id": state.run_id,
                "session_id": (
                    state.session.session_id if state.session else None
                ),
                "orchestrating_node": (
                    state.session.orchestrating_node if state.session else None
                ),
            },
            "lease": (
                {"holder": lease.holder, "lease_id": lease.lease_id,
                 "run_id": lease.run_id}
                if lease is not None else None
            ),
            "converged": self._converged(state),
            "failures": state.failures,
            "last_error": state.last_error,
            "starts": state.starts,
            "stops": state.stops,
            "outages": state.outages,
            "recoveries": state.recoveries,
        }

    def paths(self) -> List[dict]:
        """All registered streams' desired/actual views, sorted by id."""
        return [self.path(stream_id) for stream_id in sorted(self._streams)]

    def sessions(self) -> List[dict]:
        """The currently running sessions only."""
        return [p for p in self.paths() if p["actual"]["running"]]

    def snapshot(self) -> dict:
        """JSON-friendly control-plane state for the audit pipeline."""
        return {
            "converged": self.converged(),
            "paths": self.paths(),
            "leases": self.leases.snapshot(),
            "events": {
                "published": self.channel.published,
                "delivered": self.channel.deliveries,
            },
        }

    def prometheus_text(self) -> str:
        """Prometheus exposition of the simulator's metrics registry."""
        from repro.obs.export import prometheus_text

        return prometheus_text(self.sim.metrics)
