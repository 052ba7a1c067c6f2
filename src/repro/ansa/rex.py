"""REX-like RPC with delay-bounded invocation.

"Invocation is implemented by means of an RPC protocol known as REX
[APM,89] extended to provide the delay bounded communication required
for the real-time control of multimedia applications" (paper section
2.2).  An invocation marshals a request packet to the server node,
executes the named operation (plain callables run inline; coroutine
operations are spawned as server processes), and returns the result --
or raises :class:`InvocationTimeout` when the delay bound expires.

Control traffic travels at CONTROL priority: platform invocations are
the "control and event information" path, distinct from Streams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional, Tuple

from repro.netsim.packet import Packet, Priority
from repro.netsim.topology import Network
from repro.sim.scheduler import Event, Simulator
from repro.ansa.interface import InterfaceRef
from repro.ansa.trader import Trader

#: Nominal wire size of a request/reply, bytes (REX was compact).
RPC_WIRE_BYTES = 128


class InvocationError(Exception):
    """The remote operation raised, or the interface is unknown."""


class InvocationTimeout(InvocationError):
    """The delay bound expired before the reply arrived."""


@dataclass
class _RequestMsg:
    handler_key = "rex"

    call_id: int = 0
    ref: InterfaceRef = None  # type: ignore[assignment]
    operation: str = ""
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    reply_to: str = ""


@dataclass
class _ReplyMsg:
    handler_key = "rex"

    call_id: int = 0
    ok: bool = True
    value: Any = None
    error: str = ""


class RexRPC:
    """Per-network invocation runtime.

    One instance serves all nodes: it registers a handler on every
    host, so both client and server sides are available everywhere.
    """

    def __init__(self, sim: Simulator, network: Network, trader: Trader):
        self.sim = sim
        self.network = network
        self.trader = trader
        self._call_ids = itertools.count(1)
        self._pending: Dict[int, Event] = {}
        self.invocations = 0
        self.timeouts = 0
        for host in network.hosts():
            host.register_handler("rex", self._on_packet)

    def invoke(
        self,
        caller_node: str,
        ref: InterfaceRef,
        operation: str,
        *args: Any,
        deadline: Optional[float] = None,
        **kwargs: Any,
    ) -> Generator:
        """Coroutine: invoke ``operation`` on ``ref`` from ``caller_node``.

        ``deadline`` is the delay bound in seconds; None waits forever.
        Returns the operation's result or raises
        :class:`InvocationTimeout` / :class:`InvocationError`.
        """
        call_id = next(self._call_ids)
        done = Event(self.sim)
        self._pending[call_id] = done
        self.invocations += 1
        request = _RequestMsg(
            call_id=call_id,
            ref=ref,
            operation=operation,
            args=args,
            kwargs=kwargs,
            reply_to=caller_node,
        )
        self.network.send(
            Packet(
                src=caller_node,
                dst=ref.node,
                payload=request,
                size_bits=RPC_WIRE_BYTES * 8,
                priority=Priority.CONTROL,
            )
        )
        if deadline is None:
            reply = yield done
        else:
            fired, value = yield done.within(deadline)
            if not fired:
                self._pending.pop(call_id, None)
                self.timeouts += 1
                raise InvocationTimeout(
                    f"{ref}.{operation} exceeded the {deadline * 1e3:.1f} ms bound"
                )
            reply = value
        self._pending.pop(call_id, None)
        if not reply.ok:
            raise InvocationError(reply.error)
        return reply.value

    # -- server side -----------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        message = packet.payload
        if isinstance(message, _RequestMsg):
            self._serve(message)
        elif isinstance(message, _ReplyMsg):
            done = self._pending.get(message.call_id)
            if done is not None and not done.is_set:
                done.set(message)

    def _serve(self, request: _RequestMsg) -> None:
        interface = self.trader.resolve(request.ref)
        if interface is None or interface.node != request.ref.node:
            self._reply(request, ok=False, error=f"unknown interface {request.ref}")
            return
        try:
            op = interface.operation(request.operation)
        except KeyError as exc:
            self._reply(request, ok=False, error=str(exc))
            return
        if op.is_coroutine:
            self.sim.spawn(
                self._serve_coroutine(request, op),
                name=f"rex:{request.ref.type_name}.{request.operation}",
            )
            return
        try:
            value = op.fn(*request.args, **request.kwargs)
        except Exception as exc:  # noqa: BLE001 - marshalled to the caller
            self._reply(request, ok=False, error=repr(exc))
            return
        self._reply(request, ok=True, value=value)

    def _serve_coroutine(self, request: _RequestMsg, op) -> Generator:
        try:
            value = yield from op.fn(*request.args, **request.kwargs)
        except Exception as exc:  # noqa: BLE001 - marshalled to the caller
            self._reply(request, ok=False, error=repr(exc))
            return
        self._reply(request, ok=True, value=value)

    def _reply(self, request: _RequestMsg, ok: bool, value: Any = None,
               error: str = "") -> None:
        self.network.send(
            Packet(
                src=request.ref.node,
                dst=request.reply_to,
                payload=_ReplyMsg(call_id=request.call_id, ok=ok, value=value,
                                  error=error),
                size_bits=RPC_WIRE_BYTES * 8,
                priority=Priority.CONTROL,
            )
        )
