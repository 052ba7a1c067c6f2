"""The Low Level Orchestrator (paper section 6).

One :class:`LLOInstance` runs on every node that terminates an
orchestrated VC.  The instance on the *orchestrating node* is driven
directly by the HLO agent through coroutine methods; instances on other
nodes are driven by OPDUs over guaranteed-bandwidth control channels.

The LLO is pure **mechanism** ("the LLO operates on a best effort
principle; it is the responsibility of the HLO agent to take
appropriate action ... if the LLO consistently fails to meet
targets"):

- Group 1 primitives (Table 5): prime, start, stop, add, remove --
  atomic over the grouping, implemented through the receive-buffer
  delivery gate and the transport's credit-based backpressure.
- Group 2 primitives (Table 6): regulate (per-interval delivery pacing
  with source-side drops, ahead-blocking, and end-of-interval reports
  including blocking-time statistics), delayed, and event matching.

Interval timing uses the *local node clock*, so clock drift between
nodes produces real divergence that the HLO agent's feedback loop must
correct -- exactly the problem setting of paper section 3.6.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.netsim.packet import Packet, Priority
from repro.netsim.topology import Network
from repro.sim.scheduler import Event, Simulator, Timer
from repro.sim.sync import Queue
from repro.transport.buffers import (
    MeterSchedule,
    ROLE_APPLICATION,
    ROLE_PROTOCOL,
)
from repro.transport.entity import TransportEntity, VCEndpoint
from repro.orchestration.opdu import (
    ControlOPDU,
    DelayedCmdOPDU,
    DropRequestOPDU,
    EventNotifyOPDU,
    EventRegisterOPDU,
    GroupCmdOPDU,
    NudgeCmdOPDU,
    OPDU_WIRE_BYTES,
    RegulateCmdOPDU,
    RegulateReportOPDU,
    ReplyOPDU,
    SessionReleaseOPDU,
    SessionRequestOPDU,
    StatsQueryOPDU,
    StatsReplyOPDU,
)
from repro.orchestration.primitives import (
    AddIndication,
    DelayedIndication,
    OrchEventIndication,
    OrchRegulateIndication,
    OrchReply,
    PrimeIndication,
    RemoveIndication,
    StartIndication,
    StopIndication,
)

#: Reasons the paper names for orchestration rejection (section 6.1).
REASON_NO_TABLE_SPACE = "no-table-space"
REASON_NO_SUCH_VC = "vc-does-not-exist"
REASON_TIMEOUT = "timeout"
REASON_APP_DENY = "application-denied"


@dataclass
class _Session:
    session_id: str
    vcs: Dict[str, Tuple[str, str]]  # vc_id -> (source node, sink node)
    origin: str  # orchestrating node
    event_patterns: Dict[str, Set[int]] = field(default_factory=dict)

    def nodes(self, vc_ids: Optional[List[str]] = None) -> Set[str]:
        relevant = self.vcs if vc_ids is None else {
            v: self.vcs[v] for v in vc_ids if v in self.vcs
        }
        involved: Set[str] = set()
        for src, sink in relevant.values():
            involved.add(src)
            involved.add(sink)
        return involved


@dataclass
class _Pending:
    """A request awaiting its replies: ``done`` is set to the result
    once every node in ``waiting`` has confirmed, or one has denied."""

    waiting: Set[str]
    done: Event


class _Join:
    """Concurrent legs joined by one Event: the last leg to finish sets
    ``done`` to every leg's result, in leg order (with no legs, it is
    set at once)."""

    def __init__(self, sim: Simulator, legs: int):
        self.results: list = [None] * legs
        self.pending = legs
        self.done = Event(sim)
        if not legs:
            self.done.set(self.results)

    def leg(self, index: int, body: Generator):
        """Coroutine: run ``body`` as leg ``index``."""
        self.results[index] = yield from body
        self.pending -= 1
        if not self.pending:
            self.done.set(self.results)


def meter_interval(clock, recv_vc, target_osdu: int, max_drop: int,
                   interval_length: float,
                   request_drop: Callable[[], None]) -> Generator:
    """Coroutine: one regulation interval at the sink (section 6.3.1.1).

    Meters the gate and hands it the interval's :class:`MeterSchedule`
    once; the reader paces itself from it, and the schedule's process
    checks the drop budget and sleeps to the interval end.  Behind
    target with nothing to deliver, a tick spends one unit of the drop
    budget at the source (``request_drop``).  Returns ``(start_seq,
    drops_requested)``.
    """
    # (Re-)meter at every interval start: credit left over from a
    # previous interval is drained, otherwise unconsumed grants
    # accumulate and the stream overshoots its targets.
    recv_vc.meter_gate()
    start_seq = recv_vc.delivered_seq()
    # Interval timing runs on the *local* clock: the sink believes it
    # is pacing `interval_length` seconds, but its clock may drift
    # relative to the orchestrating node's master clock.
    schedule = MeterSchedule(
        recv_vc.buffer, clock, start_seq, max(0, target_osdu - start_seq),
        interval_length, max_drop, request_drop,
    )
    recv_vc.grant(schedule)
    yield from schedule.run()
    return start_seq, schedule.drops


class LLOError(Exception):
    """Raised for misuse of the LLO interface."""


def auto_orch_responder(sim: Simulator, endpoint: VCEndpoint):
    """Spawn a process that accepts every orchestration indication.

    Applications with no special priming/stopping behaviour attach this
    so Orch.Prime/Start/Stop confirm immediately.
    """

    def responder():
        while True:
            primitive, reply = yield endpoint.next_orch()
            reply.set(OrchReply(accept=True))

    return sim.spawn(responder(), name=f"orch-auto:{endpoint.vc_id}")


#: Table 5: the indication each Group-1 command gives the application
#: threads.  Orch.Prime runs in two phases: a sink's thread hears of it
#: while its buffers are cleaned out, a source's when it is to fill them.
_INDICATIONS = {
    "prime-clean": PrimeIndication,
    "prime-fill": PrimeIndication,
    "start": StartIndication,
    "stop": StopIndication,
    "add": AddIndication,
    "remove": RemoveIndication,
}

#: What an Orch request returns when its replies do not come in time.
_TIMED_OUT = OrchReply(False, REASON_TIMEOUT)

#: Source statistics (app block, protocol block, dropped) reported when
#: the source holds no such VC or does not answer in time.
_NO_STATS = (0.0, 0.0, 0)


class LLOInstance:
    """Low-level orchestrator for one node.

    Every primitive is one request/reply exchange: :meth:`_send` hands an
    OPDU to the node that must act on it (this one included), and
    :meth:`_ask` waits in ``_pending`` for the replies.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        entity: TransportEntity,
        max_sessions: int = 8,
        app_reply_timeout: float = 5.0,
        prime_fill_timeout: float = 30.0,
        prime_quiesce: float = 0.05,
    ):
        self.sim = sim
        self.network = network
        self.entity = entity
        self.node_name = entity.node_name
        self.host = network.host(self.node_name)
        self.clock = self.host.clock
        self.host.register_handler("opdu", self._on_packet)
        self.max_sessions = max_sessions
        self.app_reply_timeout = app_reply_timeout
        self.prime_fill_timeout = prime_fill_timeout
        self.prime_quiesce = prime_quiesce
        self.sessions: Dict[str, _Session] = {}
        self._agent_queues: Dict[str, Queue] = {}
        self._req_ids = itertools.count(1)
        self._pending: Dict[int, _Pending] = {}
        # Per-VC serialisation of regulation intervals: back-to-back
        # Orch.Regulate commands queue rather than overlap.
        self._regulating: Set[str] = set()
        self._regulate_backlog: Dict[str, List[RegulateCmdOPDU]] = {}
        self._event_matchers: Set[Tuple[str, str]] = set()
        self.drops_requested = 0
        self.drops_performed = 0
        self._handlers = {
            SessionRequestOPDU: self._handle_session_request,
            SessionReleaseOPDU: self._handle_session_release,
            GroupCmdOPDU: self._handle_group_cmd,
            ReplyOPDU: self._handle_reply,
            RegulateCmdOPDU: self._handle_regulate_cmd,
            RegulateReportOPDU: self._handle_regulate_report,
            DropRequestOPDU: self._handle_drop_request,
            NudgeCmdOPDU: self._handle_nudge_cmd,
            StatsQueryOPDU: self._handle_stats_query,
            StatsReplyOPDU: self._handle_stats_reply,
            DelayedCmdOPDU: self._handle_delayed_cmd,
            EventRegisterOPDU: self._handle_event_register,
            EventNotifyOPDU: self._handle_event_notify,
        }

    # ------------------------------------------------------------------
    # Agent-facing interface (used on the orchestrating node)
    # ------------------------------------------------------------------

    def agent_queue(self, session_id: str) -> Queue:
        """Indication queue for the HLO agent controlling ``session_id``."""
        if session_id not in self._agent_queues:
            self._agent_queues[session_id] = Queue(self.sim)
        return self._agent_queues[session_id]

    def close_agent_queue(self, session_id: str) -> None:
        """Forget ``session_id``'s agent queue: its indications are dropped."""
        self._agent_queues.pop(session_id, None)

    def orch_request(
        self, session_id: str, vcs: Dict[str, Tuple[str, str]]
    ) -> Generator:
        """Coroutine implementing Orch.request (Table 4).

        Propagates the request to the LLO instance at each source and
        sink of all VCs; returns an :class:`OrchReply`.
        """
        if len(self.sessions) >= self.max_sessions:
            return OrchReply(False, REASON_NO_TABLE_SPACE)
        session = _Session(session_id, dict(vcs), origin=self.node_name)
        reply = yield from self._ask(
            session.nodes(), self.prime_fill_timeout,
            lambda request_id: SessionRequestOPDU(
                session_id=session_id,
                request_id=request_id,
                origin=self.node_name,
                vcs=dict(vcs),
            ),
        )
        if reply.accept:
            # The orchestrating node tracks the session even when it
            # terminates no VC itself (the HLO agent lives here).
            self.sessions.setdefault(session_id, session)
        else:
            self._release_everywhere(session, reply.reason)
        return reply

    def release(self, session_id: str, reason: str = "released") -> None:
        """Orch.Release.request (Table 4)."""
        session = self.sessions.pop(session_id, None)
        if session is None:
            return
        self._release_everywhere(session, reason)

    def _release_everywhere(self, session: _Session, reason: str) -> None:
        for node in sorted(session.nodes() | {session.origin}):
            self._send(node, SessionReleaseOPDU(
                session_id=session.session_id,
                request_id=next(self._req_ids),
                origin=self.node_name,
                reason=reason,
            ))

    def group_command(
        self, session_id: str, kind: str, vc_ids: Optional[List[str]] = None,
        vcs: Optional[Dict[str, Tuple[str, str]]] = None,
        metered: bool = False,
    ) -> Generator:
        """Coroutine: run a Group-1 command over (part of) the group.

        ``kind`` is one of ``prime-clean | prime-fill | start | stop |
        add | remove``.  Returns an :class:`OrchReply`; a negative reply
        is what the paper's Orch.Deny.indication (Table 5) reports.
        """
        session = self.sessions.get(session_id)
        if session is None:
            return OrchReply(False, REASON_NO_SUCH_VC)
        if kind == "add" and vcs:
            session.vcs.update(vcs)
        target_vcs = vc_ids if vc_ids is not None else list(session.vcs)
        reply = yield from self._ask(
            session.nodes(target_vcs), self.prime_fill_timeout,
            lambda request_id: GroupCmdOPDU(
                session_id=session_id,
                request_id=request_id,
                origin=self.node_name,
                kind=kind,
                vc_ids=list(target_vcs),
                vcs=dict(vcs or {}),
                metered=metered,
            ),
        )
        if kind == "remove" and reply.accept:
            for vc_id in target_vcs:
                session.vcs.pop(vc_id, None)
                session.event_patterns.pop(vc_id, None)
        return reply

    def prime(self, session_id: str) -> Generator:
        """Orch.Prime over the whole group (section 6.2.1).

        Two distributed phases behind one primitive:

        1. *clean*: every sink closes its gate and flushes -- including
           a quiescence wait so in-flight stragglers from the previous
           play-out (which the CONTROL-priority command can overtake on
           the wire) are also discarded; every source flushes its send
           buffer.  Sink applications get their Orch.Prime.indication
           here ("preparing to accept data").
        2. *fill*: source applications get their Orch.Prime.indication
           ("start generating data"); sinks confirm once their buffers
           are full.

        Without the barrier between the phases, a source could refill
        the pipeline while a sink is still cleaning it out.
        """
        reply = yield from self.group_command(session_id, "prime-clean")
        if not reply.accept:
            return reply
        return (yield from self.group_command(session_id, "prime-fill"))

    def start(self, session_id: str, metered: bool = False) -> Generator:
        """Orch.Start over the whole group (section 6.2.2).

        With ``metered`` the sink gates move straight into the
        regulation (credit-paced) state, so the primed pipeline drains
        on the HLO agent's release schedule rather than in one burst.
        """
        return (
            yield from self.group_command(session_id, "start", metered=metered)
        )

    def stop(self, session_id: str) -> Generator:
        """Orch.Stop over the whole group (section 6.2.3)."""
        return (yield from self.group_command(session_id, "stop"))

    def add(self, session_id: str, vc_id: str, src: str, sink: str) -> Generator:
        """Orch.Add of one VC (section 6.2.4)."""
        return (
            yield from self.group_command(
                session_id, "add", [vc_id], {vc_id: (src, sink)}
            )
        )

    def remove(self, session_id: str, vc_id: str) -> Generator:
        """Orch.Remove of one VC (section 6.2.4)."""
        return (yield from self.group_command(session_id, "remove", [vc_id]))

    def regulate_request(
        self,
        session_id: str,
        vc_id: str,
        target_osdu: int,
        max_drop: int,
        interval_length: float,
        interval_id: int,
    ) -> None:
        """Orch.Regulate.request (section 6.3.1.1): set an interval target.

        Fire-and-forget; the matching Orch.Regulate.indication arrives
        in the agent queue at the end of the interval.
        """
        session = self.sessions.get(session_id)
        if session is None or vc_id not in session.vcs:
            # The VC may have just been removed from the group; the
            # races inherent in distributed membership make this a
            # silent no-op rather than an error.
            return
        self._send(session.vcs[vc_id][1], RegulateCmdOPDU(
            session_id=session_id,
            request_id=next(self._req_ids),
            origin=self.node_name,
            vc_id=vc_id,
            target_osdu=target_osdu,
            max_drop=max_drop,
            interval_length=interval_length,
            interval_id=interval_id,
        ))

    def nudge_request(self, session_id: str, vc_id: str) -> None:
        """Ask the source of an outaged VC to re-open its send window.

        Fire-and-forget, sent at CONTROL priority each interval the HLO
        agent observes the stream in outage; losing one is harmless
        because the next interval resends and the probe is idempotent.
        """
        session = self.sessions.get(session_id)
        if session is None or vc_id not in session.vcs:
            return
        self._send(session.vcs[vc_id][0], NudgeCmdOPDU(
            session_id=session_id,
            request_id=next(self._req_ids),
            origin=self.node_name,
            vc_id=vc_id,
        ))

    def _handle_nudge_cmd(self, opdu: NudgeCmdOPDU) -> None:
        """Source-side nudge: start the transport credit probe."""
        if opdu.vc_id in self.entity.send_vcs:
            self.entity.begin_outage_probe(opdu.vc_id)

    def delayed_request(
        self,
        session_id: str,
        vc_id: str,
        source_or_sink: str,
        interval_length: float,
        osdus_behind: int,
    ) -> Generator:
        """Coroutine implementing Orch.Delayed (section 6.3.3)."""
        session = self.sessions.get(session_id)
        if session is None or vc_id not in session.vcs:
            return OrchReply(False, REASON_NO_SUCH_VC)
        src, sink = session.vcs[vc_id]
        return (yield from self._ask(
            [src if source_or_sink == "source" else sink],
            self.app_reply_timeout,
            lambda request_id: DelayedCmdOPDU(
                session_id=session_id,
                request_id=request_id,
                origin=self.node_name,
                vc_id=vc_id,
                source_or_sink=source_or_sink,
                interval_length=interval_length,
                osdus_behind=osdus_behind,
            ),
        ))

    def local_delivered_seq(self, vc_id: str):
        """Delivered OSDU sequence for a locally-terminated sink VC.

        Returns None when this node is not the VC's sink; the agent
        then falls back to the last regulation report.
        """
        recv_vc = self.entity.recv_vcs.get(vc_id)
        if recv_vc is None:
            return None
        return recv_vc.delivered_seq()

    def event_register(self, session_id: str, vc_id: str, pattern: int) -> None:
        """Orch.Event.request (section 6.3.4): watch for ``pattern``."""
        session = self.sessions.get(session_id)
        if session is None or vc_id not in session.vcs:
            raise LLOError(f"event register for unknown VC {vc_id!r}")
        self._send(session.vcs[vc_id][1], EventRegisterOPDU(
            session_id=session_id,
            request_id=next(self._req_ids),
            origin=self.node_name,
            vc_id=vc_id,
            event_pattern=pattern,
        ))

    # ------------------------------------------------------------------
    # Request/reply plumbing
    # ------------------------------------------------------------------

    def _send(self, node: str, opdu: ControlOPDU) -> None:
        """Hand ``opdu`` to the LLO at ``node``: this one's handler runs
        at once, any other's when the OPDU arrives over the network."""
        if node == self.node_name:
            self._handlers[type(opdu)](opdu)
            return
        self.network.send(
            Packet(
                src=self.node_name,
                dst=node,
                payload=opdu,
                size_bits=OPDU_WIRE_BYTES * 8,
                priority=Priority.CONTROL,
            )
        )

    def _on_packet(self, packet: Packet) -> None:
        handler = self._handlers.get(type(packet.payload))
        if handler is not None:
            handler(packet.payload)

    def _ask(self, nodes, timeout: float,
             make_opdu: Callable[[int], ControlOPDU],
             expired=_TIMED_OUT) -> Generator:
        """Coroutine: send ``make_opdu(request_id)`` to each of ``nodes``
        and wait up to ``timeout`` for their replies.

        Returns what the replies settle (see :meth:`_handle_reply` and
        :meth:`_handle_stats_reply`), or ``expired`` if they do not
        settle in time.
        """
        request_id = next(self._req_ids)
        pending = _Pending(set(nodes), Event(self.sim))
        self._pending[request_id] = pending
        for node in sorted(nodes):
            self._send(node, make_opdu(request_id))
        fired, value = yield pending.done.within(timeout)
        del self._pending[request_id]
        return value if fired else expired

    def _reply_to(self, opdu: ControlOPDU, ok: bool, reason: str) -> None:
        self._send(opdu.origin, ReplyOPDU(
            session_id=opdu.session_id,
            request_id=opdu.request_id,
            origin=self.node_name,
            ok=ok,
            reason=reason,
            node=self.node_name,
        ))

    def _handle_reply(self, reply: ReplyOPDU) -> None:
        pending = self._pending.get(reply.request_id)
        if pending is None or pending.done.is_set:
            return
        pending.waiting.discard(reply.node)
        # A deny settles the request at once ("the result is passed
        # back", section 6.2.1): other legs may be waiting on pipelines
        # that will now never fill.
        if not reply.ok or not pending.waiting:
            pending.done.set(OrchReply(reply.ok, reply.reason))

    # ------------------------------------------------------------------
    # OPDU handlers (this node as a *participant*)
    # ------------------------------------------------------------------

    def _handle_session_request(self, opdu: SessionRequestOPDU) -> None:
        if opdu.session_id in self.sessions:
            self._reply_to(opdu, True, "")
            return
        if len(self.sessions) >= self.max_sessions:
            # "Rejection may occur because some LLO instance has no
            # table space available" (section 6.1).
            self._reply_to(opdu, False, REASON_NO_TABLE_SPACE)
            return
        if self._missing_vc(opdu.vcs) is not None:
            self._reply_to(opdu, False, REASON_NO_SUCH_VC)
            return
        self.sessions[opdu.session_id] = _Session(
            opdu.session_id, dict(opdu.vcs), origin=opdu.origin
        )
        self._reply_to(opdu, True, "")

    def _handle_session_release(self, opdu: SessionReleaseOPDU) -> None:
        self.sessions.pop(opdu.session_id, None)
        for backlog in self._regulate_backlog.values():
            backlog[:] = [cmd for cmd in backlog
                          if cmd.session_id != opdu.session_id]

    def _local_roles(self, vc_id: str) -> Set[str]:
        roles: Set[str] = set()
        if vc_id in self.entity.send_vcs:
            roles.add("source")
        if vc_id in self.entity.recv_vcs:
            roles.add("sink")
        return roles

    def _missing_vc(self, vcs: Dict[str, Tuple[str, str]]) -> Optional[str]:
        """The first of ``vcs`` this node should terminate but does not.

        "... or because one or more of the specified VCs do not exist"
        (section 6.1).
        """
        for vc_id, (src, sink) in vcs.items():
            if (src == self.node_name and vc_id not in self.entity.send_vcs) or (
                sink == self.node_name and vc_id not in self.entity.recv_vcs
            ):
                return vc_id
        return None

    def _handle_group_cmd(self, opdu: GroupCmdOPDU) -> None:
        session = self.sessions.get(opdu.session_id)
        if session is None:
            if opdu.kind == "add" and opdu.vcs:
                # Orch.Add can bring a node into the session for the
                # first time (a new source joining a running group).
                if len(self.sessions) >= self.max_sessions:
                    self._reply_to(opdu, False, REASON_NO_TABLE_SPACE)
                    return
                session = _Session(
                    opdu.session_id, dict(opdu.vcs), origin=opdu.origin
                )
                self.sessions[opdu.session_id] = session
            else:
                self._reply_to(opdu, False, REASON_NO_SUCH_VC)
                return
        if opdu.kind == "add":
            session.vcs.update(opdu.vcs)
        self.sim.spawn(
            self._run_group_cmd(session, opdu),
            name=f"llo-{opdu.kind}:{self.node_name}",
        )

    def _run_group_cmd(self, session: _Session, opdu: GroupCmdOPDU):
        if opdu.kind == "add":
            missing = self._missing_vc(opdu.vcs)
            if missing is not None:
                session.vcs.pop(missing, None)
                self._reply_to(opdu, False, REASON_NO_SUCH_VC)
                return
        # Every local (vc, role) leg runs concurrently: priming one VC
        # can take seconds (the pipeline fills at the media rate), and
        # serialising legs would leave later VCs' gates open meanwhile,
        # breaking the atomic-start guarantee of section 6.2.
        legs = [
            (vc_id, role)
            for vc_id in opdu.vc_ids
            for role in sorted(self._local_roles(vc_id))
        ]
        join = _Join(self.sim, len(legs))
        for index, (vc_id, role) in enumerate(legs):
            self.sim.spawn(
                join.leg(index, self._run_leg(opdu.kind, session, vc_id,
                                              role, opdu.metered)),
                name=f"llo-{opdu.kind}-leg:{vc_id}/{role}",
            )
        results = yield join.done
        ok = all(sub_ok for sub_ok, _reason in results)
        reason = next(
            (sub_reason for sub_ok, sub_reason in results if not sub_ok), ""
        )
        if opdu.kind == "remove":
            for vc_id in opdu.vc_ids:
                session.vcs.pop(vc_id, None)
                session.event_patterns.pop(vc_id, None)
        self._reply_to(opdu, ok, reason)

    def _run_leg(self, kind: str, session: _Session, vc_id: str, role: str,
                 metered: bool):
        """Coroutine: one Group-1 command (Table 5) at one (VC, role).

        Most legs indicate the command to the application thread and
        take its reply.  What differs by command and role: a sink's
        gate closes before Prime's clean phase (which also waits for
        the wire to quiesce) and before Stop; a source's clean phase
        only flushes its send buffer; a sink's fill phase only waits
        for its pipeline to prime; an accepted Start meters or opens a
        sink's gate.  Returns ``(ok, reason)``.
        """
        trace = self.sim.trace
        span = (
            trace.span(
                f"{kind}:{vc_id}",
                track=f"orch:{vc_id}/{role}",
                cat="orch",
                args={"role": role, "node": self.node_name},
            )
            if trace.enabled
            else None
        )
        endpoint = self.entity.endpoint_for(vc_id)
        ok, reason = True, ""
        if kind == "prime-clean" and role == "source":
            self.entity.send_vcs[vc_id].flush()
        elif kind == "prime-fill" and role == "sink":
            primed = self.entity.recv_vcs[vc_id].when_primed()
            fired, _value = yield primed.within(self.prime_fill_timeout)
            if not fired:
                ok, reason = False, REASON_TIMEOUT
        else:
            if role == "sink" and kind in ("prime-clean", "stop"):
                recv_vc = self.entity.recv_vcs[vc_id]
                recv_vc.close_gate()
                if kind == "prime-clean":
                    # Quiesce: stragglers still on the wire (the prime
                    # command travels at CONTROL priority and can
                    # overtake data) must land and be flushed before
                    # the pipeline refills.
                    deposited = recv_vc.buffer.deposited
                    quiesce = Timer(self.sim)
                    while True:
                        recv_vc.flush()
                        yield quiesce.after(self.prime_quiesce)
                        if recv_vc.buffer.deposited == deposited:
                            break
                        deposited = recv_vc.buffer.deposited
                    recv_vc.flush()
            reply = yield from self._indicate(
                endpoint,
                _INDICATIONS[kind](
                    orch_session_id=session.session_id, vc_id=vc_id, role=role
                ),
            )
            if not reply.accept:
                ok, reason = False, reply.reason or REASON_APP_DENY
            elif kind == "start" and role == "sink":
                recv_vc = self.entity.recv_vcs[vc_id]
                if metered:
                    recv_vc.meter_gate()
                else:
                    recv_vc.open_gate()
        if span is not None:
            span.end(ok=ok, reason=reason)
        return ok, reason

    def _indicate(self, endpoint: Optional[VCEndpoint], primitive):
        """Coroutine: deliver an indication to the app thread, await reply."""
        if endpoint is None:
            # No application attached; treat as auto-accept so that
            # bare-transport tests can orchestrate without app threads.
            if False:
                yield None
            return OrchReply(True)
        reply_event = Event(self.sim)
        endpoint.orch_queue.put_nowait((primitive, reply_event))
        fired, value = yield reply_event.within(self.app_reply_timeout)
        if not fired:
            return OrchReply(False, REASON_TIMEOUT)
        return value

    # ------------------------------------------------------------------
    # Regulation (section 6.3.1)
    # ------------------------------------------------------------------

    def _handle_regulate_cmd(self, opdu: RegulateCmdOPDU) -> None:
        session = self.sessions.get(opdu.session_id)
        if session is None:
            return
        if opdu.vc_id in self._regulating:
            self._regulate_backlog.setdefault(opdu.vc_id, []).append(opdu)
            return
        self._regulating.add(opdu.vc_id)
        self.sim.spawn(
            self._run_interval(session, opdu),
            name=f"llo-regulate:{opdu.vc_id}@{self.node_name}",
        )

    def _finish_interval(self, vc_id: str) -> None:
        """Start the VC's next backlogged interval whose session is live."""
        backlog = self._regulate_backlog.get(vc_id, [])
        while backlog:
            next_cmd = backlog.pop(0)
            session = self.sessions.get(next_cmd.session_id)
            if session is not None:
                self.sim.spawn(
                    self._run_interval(session, next_cmd),
                    name=f"llo-regulate:{vc_id}@{self.node_name}",
                )
                return
        self._regulating.discard(vc_id)

    def _run_interval(self, session: _Session, cmd: RegulateCmdOPDU):
        recv_vc = self.entity.recv_vcs.get(cmd.vc_id)
        if recv_vc is None:
            self._finish_interval(cmd.vc_id)
            return
        trace = self.sim.trace
        span = (
            trace.span(
                f"regulate:{cmd.vc_id}",
                track=f"regulate:{cmd.vc_id}",
                cat="orch",
                args={
                    "interval_id": cmd.interval_id,
                    "target_osdu": cmd.target_osdu,
                    "max_drop": cmd.max_drop,
                },
            )
            if trace.enabled
            else None
        )
        source_node = session.vcs[cmd.vc_id][0]

        def request_drop() -> None:
            self.drops_requested += 1
            self._request_drop(source_node, session.session_id, cmd.vc_id)

        start_seq, drops_requested = yield from meter_interval(
            self.clock, recv_vc, cmd.target_osdu, cmd.max_drop,
            cmd.interval_length, request_drop,
        )
        # Snapshot the delivered sequence *before* chaining the next
        # interval: its early grants must not leak into this report.
        final_seq = recv_vc.delivered_seq()
        sink_buffered = len(recv_vc.buffer)
        if span is not None:
            span.end(
                delivered=final_seq - start_seq,
                drops_requested=drops_requested,
            )
        self._finish_interval(cmd.vc_id)
        yield from self._report_interval(
            session, cmd, recv_vc, source_node, final_seq, sink_buffered
        )

    def _request_drop(self, source_node: str, session_id: str, vc_id: str) -> None:
        trace = self.sim.trace
        if trace.enabled:
            trace.instant(
                "drop.request", track=f"regulate:{vc_id}", cat="orch",
                args={"source": source_node},
            )
        auditor = self.sim.auditor
        if auditor is not None:
            auditor.record_regulation_drop(session_id, vc_id)
        self._send(source_node, DropRequestOPDU(
            session_id=session_id,
            request_id=next(self._req_ids),
            origin=self.node_name,
            vc_id=vc_id,
            count=1,
        ))

    def _handle_drop_request(self, opdu: DropRequestOPDU) -> None:
        send_vc = self.entity.send_vcs.get(opdu.vc_id)
        if send_vc is None:
            return
        for _ in range(opdu.count):
            if send_vc.drop_oldest_unsent() is not None:
                self.drops_performed += 1

    def _report_interval(
        self, session: _Session, cmd: RegulateCmdOPDU, recv_vc,
        source_node: str, final_seq: int, sink_buffered: int,
    ):
        """Coroutine: gather both ends' statistics and report to the agent."""
        app_block_src, proto_block_src, dropped_src = yield from self._query_source(
            source_node, session.session_id, cmd.vc_id, cmd.interval_id
        )
        self._send(session.origin, RegulateReportOPDU(
            session_id=session.session_id,
            request_id=cmd.request_id,
            origin=self.node_name,
            vc_id=cmd.vc_id,
            interval_id=cmd.interval_id,
            osdu_seq=final_seq,
            dropped=dropped_src,
            proto_block_times={
                "source": proto_block_src,
                "sink": recv_vc.blocked_time(ROLE_PROTOCOL),
            },
            app_block_times={
                "source": app_block_src,
                "sink": recv_vc.blocked_time(ROLE_APPLICATION),
            },
            sink_buffered=sink_buffered,
        ))

    def _query_source(
        self, source_node: str, session_id: str, vc_id: str, interval_id: int
    ):
        """Coroutine: fetch cumulative blocking/drop stats from the source."""
        if source_node == self.node_name:
            # Read in place, without a wait: asking this node would
            # cost a scheduler event for a reply already in hand.
            return self._source_stats(vc_id)
        return (yield from self._ask(
            [source_node], self.app_reply_timeout,
            lambda request_id: StatsQueryOPDU(
                session_id=session_id,
                request_id=request_id,
                origin=self.node_name,
                vc_id=vc_id,
                interval_id=interval_id,
            ),
            expired=_NO_STATS,
        ))

    def _source_stats(self, vc_id: str) -> Tuple[float, float, int]:
        """(app block, protocol block, dropped) so far at the source."""
        send_vc = self.entity.send_vcs.get(vc_id)
        if send_vc is None:
            return _NO_STATS
        return (
            send_vc.blocked_time(ROLE_APPLICATION),
            send_vc.blocked_time(ROLE_PROTOCOL),
            send_vc.buffer.dropped_at_source,
        )

    def _handle_stats_query(self, opdu: StatsQueryOPDU) -> None:
        app_block, proto_block, dropped = self._source_stats(opdu.vc_id)
        self._send(opdu.origin, StatsReplyOPDU(
            session_id=opdu.session_id,
            request_id=opdu.request_id,
            origin=self.node_name,
            vc_id=opdu.vc_id,
            interval_id=opdu.interval_id,
            app_block=app_block,
            proto_block=proto_block,
            dropped=dropped,
        ))

    def _handle_stats_reply(self, opdu: StatsReplyOPDU) -> None:
        pending = self._pending.get(opdu.request_id)
        if pending is not None and not pending.done.is_set:
            pending.done.set((opdu.app_block, opdu.proto_block, opdu.dropped))

    def _handle_regulate_report(self, opdu: RegulateReportOPDU) -> None:
        queue = self._agent_queues.get(opdu.session_id)
        if queue is None:
            return
        queue.put_nowait(
            OrchRegulateIndication(
                orch_session_id=opdu.session_id,
                vc_id=opdu.vc_id,
                interval_id=opdu.interval_id,
                osdu_seq=opdu.osdu_seq,
                dropped=opdu.dropped,
                proto_block_times=dict(opdu.proto_block_times),
                app_block_times=dict(opdu.app_block_times),
                sink_buffered=opdu.sink_buffered,
            )
        )

    # ------------------------------------------------------------------
    # Orch.Delayed (section 6.3.3)
    # ------------------------------------------------------------------

    def _handle_delayed_cmd(self, opdu: DelayedCmdOPDU) -> None:
        self.sim.spawn(
            self._run_delayed(opdu), name=f"llo-delayed:{opdu.vc_id}"
        )

    def _run_delayed(self, opdu: DelayedCmdOPDU):
        reply = yield from self._indicate(
            self.entity.endpoint_for(opdu.vc_id),
            DelayedIndication(
                orch_session_id=opdu.session_id,
                vc_id=opdu.vc_id,
                source_or_sink=opdu.source_or_sink,
                interval_length=opdu.interval_length,
                osdus_behind=opdu.osdus_behind,
            ),
        )
        self._reply_to(opdu, reply.accept, reply.reason)

    # ------------------------------------------------------------------
    # Orch.Event (section 6.3.4)
    # ------------------------------------------------------------------

    def _handle_event_register(self, opdu: EventRegisterOPDU) -> None:
        session = self.sessions.get(opdu.session_id)
        if session is None:
            return
        patterns = session.event_patterns.setdefault(opdu.vc_id, set())
        patterns.add(opdu.event_pattern)
        recv_vc = self.entity.recv_vcs.get(opdu.vc_id)
        if recv_vc is None:
            return
        key = (opdu.session_id, opdu.vc_id)
        if key not in self._event_matchers:
            self._event_matchers.add(key)
            recv_vc.add_release_observer(
                lambda osdu, vc_id=opdu.vc_id, sid=opdu.session_id:
                self._match_event(sid, vc_id, osdu)
            )

    def _match_event(self, session_id: str, vc_id: str, osdu) -> None:
        session = self.sessions.get(session_id)
        if session is None:
            return
        patterns = session.event_patterns.get(vc_id, set())
        if osdu.event is None or osdu.event not in patterns:
            return
        self._send(session.origin, EventNotifyOPDU(
            session_id=session_id,
            request_id=next(self._req_ids),
            origin=self.node_name,
            vc_id=vc_id,
            event_pattern=osdu.event,
            osdu_seq=osdu.seq,
        ))

    def _handle_event_notify(self, opdu: EventNotifyOPDU) -> None:
        queue = self._agent_queues.get(opdu.session_id)
        if queue is None:
            return
        queue.put_nowait(
            OrchEventIndication(
                orch_session_id=opdu.session_id,
                vc_id=opdu.vc_id,
                event_pattern=opdu.event_pattern,
                osdu_seq=opdu.osdu_seq,
                matched_at=self.sim.now,
            )
        )


def build_llos(
    sim: Simulator,
    network: Network,
    entities: Dict[str, TransportEntity],
    **kwargs,
) -> Dict[str, LLOInstance]:
    """Instantiate one LLO per host carrying a transport entity."""
    return {
        name: LLOInstance(sim, network, entity, **kwargs)
        for name, entity in entities.items()
    }
