"""Tests for the trader and REX-like delay-bounded RPC."""

import pytest

from repro.ansa.interface import ServiceInterface
from repro.ansa.rex import InvocationError, InvocationTimeout, RexRPC
from repro.ansa.trader import Trader
from repro.netsim.topology import Network
from repro.sim.random import RandomStreams
from repro.sim.scheduler import Timer

from tests.conftest import run_coro


@pytest.fixture
def platform(sim):
    net = Network(sim, RandomStreams(9))
    net.add_host("server")
    net.add_host("client")
    net.add_link("server", "client", 10e6, prop_delay=0.01)
    trader = Trader()
    rpc = RexRPC(sim, net, trader)
    return net, trader, rpc


class TestTrader:
    def test_export_import(self, platform):
        _net, trader, _rpc = platform
        interface = ServiceInterface("server", "Calc")
        ref = trader.export("calc", interface)
        assert trader.import_("calc") == ref

    def test_import_unknown_raises(self, platform):
        _net, trader, _rpc = platform
        with pytest.raises(KeyError):
            trader.import_("ghost")

    def test_multiple_offers(self, platform):
        _net, trader, _rpc = platform
        a = trader.export("svc", ServiceInterface("server", "A"))
        b = trader.export("svc", ServiceInterface("client", "A"))
        assert trader.import_all("svc") == [a, b]
        assert trader.import_("svc") == a

    def test_withdraw(self, platform):
        _net, trader, _rpc = platform
        interface = ServiceInterface("server", "Calc")
        ref = trader.export("calc", interface)
        trader.withdraw("calc", ref)
        with pytest.raises(KeyError):
            trader.import_("calc")
        assert trader.resolve(ref) is None

    def test_duplicate_operation_rejected(self):
        interface = ServiceInterface("server", "Calc")
        interface.export("add", lambda a, b: a + b)
        with pytest.raises(ValueError):
            interface.export("add", lambda a, b: a - b)


class TestInvocation:
    def _export_calc(self, sim, trader):
        interface = ServiceInterface("server", "Calc")
        interface.export("add", lambda a, b: a + b)
        interface.export("fail", self._failing)

        def slow(x):
            yield Timer(sim).after(0.5)
            return x * 2

        interface.export("slow_double", slow, is_coroutine=True)
        return trader.export("calc", interface)

    @staticmethod
    def _failing():
        raise RuntimeError("deliberate")

    def test_successful_invocation(self, sim, platform):
        _net, trader, rpc = platform
        ref = self._export_calc(sim, trader)

        def caller():
            value = yield from rpc.invoke("client", ref, "add", 2, 3)
            return (sim.now, value)

        when, value = run_coro(sim, caller())
        assert value == 5
        # One round trip over the 10 ms link.
        assert when >= 0.02

    def test_coroutine_operation(self, sim, platform):
        _net, trader, rpc = platform
        ref = self._export_calc(sim, trader)

        def caller():
            return (yield from rpc.invoke("client", ref, "slow_double", 21))

        assert run_coro(sim, caller()) == 42

    def test_remote_exception_marshalled(self, sim, platform):
        _net, trader, rpc = platform
        ref = self._export_calc(sim, trader)

        def caller():
            try:
                yield from rpc.invoke("client", ref, "fail")
            except InvocationError as exc:
                return str(exc)

        assert "deliberate" in run_coro(sim, caller())

    def test_unknown_operation_rejected(self, sim, platform):
        _net, trader, rpc = platform
        ref = self._export_calc(sim, trader)

        def caller():
            try:
                yield from rpc.invoke("client", ref, "nope")
            except InvocationError as exc:
                return str(exc)

        assert "nope" in run_coro(sim, caller())

    def test_deadline_met(self, sim, platform):
        _net, trader, rpc = platform
        ref = self._export_calc(sim, trader)

        def caller():
            return (
                yield from rpc.invoke("client", ref, "add", 1, 1, deadline=0.1)
            )

        assert run_coro(sim, caller()) == 2

    def test_deadline_exceeded_raises(self, sim, platform):
        """The delay-bounded invocation of section 2.2."""
        _net, trader, rpc = platform
        ref = self._export_calc(sim, trader)

        def caller():
            try:
                yield from rpc.invoke(
                    "client", ref, "slow_double", 1, deadline=0.1
                )
            except InvocationTimeout:
                return ("timeout", sim.now)

        kind, when = run_coro(sim, caller())
        assert kind == "timeout"
        assert when == pytest.approx(0.1)
        assert rpc.timeouts == 1

    def test_unknown_interface_rejected(self, sim, platform):
        _net, trader, rpc = platform
        from repro.ansa.interface import InterfaceRef

        ghost = InterfaceRef("server", 99999, "Ghost")

        def caller():
            try:
                yield from rpc.invoke("client", ghost, "x")
            except InvocationError as exc:
                return str(exc)

        assert "unknown interface" in run_coro(sim, caller())
