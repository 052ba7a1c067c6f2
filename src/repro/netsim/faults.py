"""Netsim-level fault mechanisms: the operations fault plans apply.

This module is the *mechanism* half of the fault-injection subsystem:
small, state-capturing operations on a live :class:`~repro.netsim.topology.Network`
-- take a link down, squeeze its rate, swap its loss model, crash a
router.  The *policy* half (which fault happens when) lives in
:mod:`repro.faults`, whose injector schedules these operations on the
simulator.

:class:`FaultLedger` is the one API.  Restoring state captured per
episode composes wrongly when two episodes overlap on the same target
(the earlier episode's end puts back *pre-episode* state and clobbers
the still active later one), so the ledger tracks, per target, the
pristine base state plus every active episode (refcounted outages and
crashes, multiplicative squeeze factors, a loss-model stack).  Ending
any one episode leaves every other active episode in force, and the
base state is restored -- object identity included -- only when the
last overlapping episode ends.  The injector routes all episodes
through a ledger.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.netsim.link import Link, LossModel
from repro.netsim.node import Router
from repro.netsim.topology import Network


@dataclass
class LedgerToken:
    """Handle for one active interval episode in a :class:`FaultLedger`.

    ``restore()`` ends this episode *only*: the ledger recomputes the
    target's state from whatever other episodes remain active, so the
    token slots into the injector's existing undo-state protocol.
    Idempotent -- a second ``restore()`` is a no-op.
    """

    ledger: "FaultLedger"
    kind: str
    link: Link
    token_id: int
    ended: bool = False

    def restore(self) -> None:
        """End this episode and recompose the target's state."""
        if self.ended:
            return
        self.ended = True
        self.ledger._end_token(self)


@dataclass
class _SqueezeLedgerEntry:
    """Active squeeze factors on one link plus its pre-squeeze rate."""

    base_bps: float
    factors: Dict[int, float] = field(default_factory=dict)


@dataclass
class _LossLedgerEntry:
    """Active burst loss models on one link plus its base model.

    The most recently begun still-active burst's model is in force;
    when the stack empties the base model object itself is reinstalled
    (identity, not a copy -- stateful models keep their state).
    """

    base_loss: Optional[LossModel]
    stack: List[Tuple[int, LossModel]] = field(default_factory=list)


class FaultLedger:
    """Per-target composition of overlapping fault episodes.

    One ledger per injector (or per test).  All mutations of a target
    must go through the same ledger for composition to hold; state
    changed behind the ledger's back while episodes are active is
    overwritten on recomposition.

    Composition rules:

    - **Outages / crashes** refcount: the first ``link_down`` takes the
      carrier away, only the matching last ``link_up`` restores it.  A
      bare ``link_up``/``restart`` with no active episode restores
      directly (plans may use LinkUp as a plain repair action).
    - **Squeezes** multiply: the link runs at ``base * prod(factors)``
      of all active squeezes; when the last ends, the base rate is
      restored exactly (no float drift from repeated division).
    - **Loss bursts** stack: the newest active burst's model is in
      force; ending it reveals the next newest, and the pristine base
      model returns -- same object -- when none remain.
    """

    def __init__(self, network: Network):
        self.network = network
        self._token_ids = itertools.count(1)
        self._down_counts: Dict[Link, int] = {}
        self._squeezes: Dict[Link, _SqueezeLedgerEntry] = {}
        self._losses: Dict[Link, _LossLedgerEntry] = {}
        self._crash_counts: Dict[str, int] = {}

    # -- outages (refcounted) -------------------------------------------

    def link_down(self, src: str, dst: str) -> Link:
        """One more outage on ``src -> dst``; takes carrier on 0 -> 1."""
        link = self.network.link_between(src, dst)
        count = self._down_counts.get(link, 0)
        if count == 0:
            link.set_down()
        self._down_counts[link] = count + 1
        return link

    def link_up(self, src: str, dst: str) -> Link:
        """One outage over on ``src -> dst``; restores carrier on 1 -> 0.

        With no outage active this restores the carrier directly, so a
        plan's bare repair action still works.
        """
        link = self.network.link_between(src, dst)
        count = self._down_counts.get(link, 0)
        if count <= 1:
            self._down_counts.pop(link, None)
            link.set_up()
        else:
            self._down_counts[link] = count - 1
        return link

    def outages_on(self, src: str, dst: str) -> int:
        """Number of currently active outage episodes on ``src -> dst``."""
        link = self.network.link_between(src, dst)
        return self._down_counts.get(link, 0)

    # -- squeezes (multiplicative) --------------------------------------

    def begin_squeeze(self, src: str, dst: str, factor: float) -> LedgerToken:
        """Apply one squeeze factor on top of any already active."""
        link = self.network.link_between(src, dst)
        entry = self._squeezes.get(link)
        if entry is None:
            entry = self._squeezes[link] = _SqueezeLedgerEntry(
                base_bps=link.bandwidth_bps
            )
        token = LedgerToken(self, "squeeze", link, next(self._token_ids))
        entry.factors[token.token_id] = factor
        self._recompose_rate(link, entry)
        return token

    def _recompose_rate(self, link: Link, entry: _SqueezeLedgerEntry) -> None:
        rate = entry.base_bps
        for factor in entry.factors.values():
            rate *= factor
        link.set_rate(rate)

    # -- loss bursts (stacked) ------------------------------------------

    def begin_loss_burst(
        self, src: str, dst: str, loss: LossModel
    ) -> LedgerToken:
        """Put ``loss`` in force on ``src -> dst`` until ended."""
        link = self.network.link_between(src, dst)
        entry = self._losses.get(link)
        if entry is None:
            entry = self._losses[link] = _LossLedgerEntry(base_loss=link.loss)
        token = LedgerToken(self, "loss_burst", link, next(self._token_ids))
        entry.stack.append((token.token_id, loss))
        link.loss = loss
        return token

    # -- crashes (refcounted) -------------------------------------------

    def crash(self, name: str) -> Router:
        """One more crash episode on router ``name``; crashes on 0 -> 1.

        Only routers crash in this model: a host crash would take its
        protocol entities with it, which is an application-level
        scenario (the paper's end-systems are assumed to stay up while
        the *network* degrades).
        """
        node = self._router(name, "crash")
        count = self._crash_counts.get(name, 0)
        if count == 0:
            node.crash()
        self._crash_counts[name] = count + 1
        return node

    def restart(self, name: str) -> Router:
        """One crash episode over on ``name``; restarts on 1 -> 0."""
        node = self._router(name, "restart")
        count = self._crash_counts.get(name, 0)
        if count <= 1:
            self._crash_counts.pop(name, None)
            node.restart()
        else:
            self._crash_counts[name] = count - 1
        return node

    def _router(self, name: str, verb: str) -> Router:
        """The router ``name``; TypeError for any other kind of node."""
        node = self.network.nodes[name]
        if not isinstance(node, Router):
            raise TypeError(
                f"node {name!r} is a {type(node).__name__}; only routers {verb}"
            )
        return node

    # -- token retirement ------------------------------------------------

    def _end_token(self, token: LedgerToken) -> None:
        """Recompose a target's state after one episode ends."""
        link = token.link
        if token.kind == "squeeze":
            entry = self._squeezes.get(link)
            if entry is None or token.token_id not in entry.factors:
                return
            del entry.factors[token.token_id]
            if entry.factors:
                self._recompose_rate(link, entry)
            else:
                # Last squeeze out: restore the captured base exactly.
                link.set_rate(entry.base_bps)
                del self._squeezes[link]
        elif token.kind == "loss_burst":
            entry = self._losses.get(link)
            if entry is None:
                return
            entry.stack = [
                item for item in entry.stack if item[0] != token.token_id
            ]
            if entry.stack:
                link.loss = entry.stack[-1][1]
            else:
                link.loss = entry.base_loss
                del self._losses[link]
