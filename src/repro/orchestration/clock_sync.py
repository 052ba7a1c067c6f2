"""Clock synchronisation for orchestration.

The paper's initial implementation restricts orchestrated groups to a
*common node* "either at the source or the sink.  With this restriction
in force, we are able to use the clock at the common node as the datum
for continuous synchronisation across connections, and use a simple
clock synchronisation scheme" (section 5, footnote).  The footnote
continues that the restriction could be lifted "by including a general
purpose clock synchronisation function (e.g. NTP [Mills,89]) within the
orchestrator protocols".

This module implements that future-work extension:
:class:`NTPLikeSynchronizer` runs the classic two-way timestamp
exchange over the simulated network and slews a slave node's clock
toward a master's, enabling orchestration of VC groups with **no**
common node (benchmark E5 exercises both regimes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.netsim.packet import Packet, Priority
from repro.netsim.topology import Network
from repro.sim.scheduler import Process, Simulator, Timer

#: Wire size of one synchronisation probe/reply, bytes.
SYNC_WIRE_BYTES = 48


@dataclass
class SyncProbe:
    """Slave -> master: carries the slave's transmit timestamp."""

    handler_key = "clocksync"

    probe_id: int = 0
    slave: str = ""
    t0_slave: float = 0.0
    reply: bool = False
    t1_master: float = 0.0
    t2_master: float = 0.0


class NTPLikeSynchronizer:
    """Periodic offset estimation and slewing between two hosts.

    The slave sends a probe stamped ``t0`` (slave clock); the master
    stamps receipt ``t1`` and transmit ``t2`` (master clock); the slave
    stamps arrival ``t3``.  The standard estimate

        ``offset = ((t1 - t0) + (t2 - t3)) / 2``

    is then applied to the slave's clock, scaled by ``gain`` for gentle
    slewing.  With symmetric paths the residual error is bounded by the
    path asymmetry plus half the round-trip jitter.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        master: str,
        slave: str,
        period: float = 1.0,
        gain: float = 1.0,
    ):
        if period <= 0:
            raise ValueError("sync period must be positive")
        if not 0 < gain <= 1.0:
            raise ValueError("gain must be in (0, 1]")
        self.sim = sim
        self.network = network
        self.master = master
        self.slave = slave
        self.period = period
        self.gain = gain
        self.master_host = network.host(master)
        self.slave_host = network.host(slave)
        self._probe_ids = iter(range(1, 1 << 30))
        self._pending: dict[int, float] = {}
        self.offset_estimates: List[Tuple[float, float]] = []
        self._proc: Optional[Process] = None
        self._install_handlers()

    def _install_handlers(self) -> None:
        # Multiple synchronizers may share a master; register once.
        try:
            self.master_host.register_handler("clocksync", self._on_master_packet)
        except ValueError:
            pass
        try:
            self.slave_host.register_handler("clocksync", self._on_slave_packet)
        except ValueError:
            pass

    def start(self) -> None:
        if self._proc is None or not self._proc.alive:
            self._proc = self.sim.spawn(
                self._probe_loop(), name=f"clocksync:{self.slave}->{self.master}"
            )

    def stop(self) -> None:
        if self._proc is not None and self._proc.alive:
            self._proc.interrupt("stop")
        self._proc = None

    def _probe_loop(self):
        period = Timer(self.sim)
        while True:
            probe_id = next(self._probe_ids)
            t0 = self.slave_host.clock.now()
            self._pending[probe_id] = t0
            self.network.send(
                Packet(
                    src=self.slave,
                    dst=self.master,
                    payload=SyncProbe(probe_id=probe_id, slave=self.slave,
                                      t0_slave=t0),
                    size_bits=SYNC_WIRE_BYTES * 8,
                    priority=Priority.CONTROL,
                )
            )
            yield period.after(self.period)

    def _on_master_packet(self, packet: Packet) -> None:
        probe = packet.payload
        if probe.reply:
            return
        t = self.master_host.clock.now()
        self.network.send(
            Packet(
                src=self.master,
                dst=probe.slave,
                payload=SyncProbe(
                    probe_id=probe.probe_id,
                    slave=probe.slave,
                    t0_slave=probe.t0_slave,
                    reply=True,
                    t1_master=t,
                    t2_master=self.master_host.clock.now(),
                ),
                size_bits=SYNC_WIRE_BYTES * 8,
                priority=Priority.CONTROL,
            )
        )

    def _on_slave_packet(self, packet: Packet) -> None:
        probe = packet.payload
        if not probe.reply:
            return
        t0 = self._pending.pop(probe.probe_id, None)
        if t0 is None:
            return
        t3 = self.slave_host.clock.now()
        offset = ((probe.t1_master - t0) + (probe.t2_master - t3)) / 2.0
        self.offset_estimates.append((self.sim.now, offset))
        self.slave_host.clock.adjust(self.gain * offset)

    def current_error(self) -> float:
        """True instantaneous offset slave - master (oracle view)."""
        return self.slave_host.clock.offset_from(self.master_host.clock)
