"""Tests for the rate-based and window-based flow-control machines."""

import pytest

from repro.sim.scheduler import Timer
from repro.transport.flowcontrol import (
    RateBasedFlowControl,
    WindowBasedFlowControl,
)


class TestRateBased:
    def test_slots_are_spaced_at_rate(self, sim):
        flow = RateBasedFlowControl(sim, rate_bps=8000.0)
        times = []

        def sender():
            for _ in range(4):
                yield from flow.acquire_slot(800)  # 0.1 s each at 8 kbit/s
                times.append(sim.now)

        sim.spawn(sender())
        sim.run()
        assert times == [
            pytest.approx(0.0),
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.3),
        ]

    def test_idle_periods_do_not_accumulate_credit(self, sim):
        flow = RateBasedFlowControl(sim, rate_bps=8000.0)
        times = []

        def sender():
            yield Timer(sim).after(1.0)  # idle for 1 s
            for _ in range(3):
                yield from flow.acquire_slot(800)
                times.append(sim.now)

        sim.spawn(sender())
        sim.run()
        # No burst: slots still spaced 0.1 s apart after the idle gap.
        assert times == [
            pytest.approx(1.0),
            pytest.approx(1.1),
            pytest.approx(1.2),
        ]

    def test_rate_change_applies_to_next_slot(self, sim):
        flow = RateBasedFlowControl(sim, rate_bps=8000.0)
        times = []

        def sender():
            yield from flow.acquire_slot(800)
            times.append(sim.now)
            flow.set_rate(16000.0)
            yield from flow.acquire_slot(800)
            times.append(sim.now)
            yield from flow.acquire_slot(800)
            times.append(sim.now)

        sim.spawn(sender())
        sim.run()
        assert times[1] == pytest.approx(0.1)   # slot booked at old rate
        assert times[2] == pytest.approx(0.15)  # new rate: 0.05 s gap

    def test_pause_blocks_and_resume_releases(self, sim):
        flow = RateBasedFlowControl(sim, rate_bps=8000.0)
        times = []

        def sender():
            yield from flow.acquire_slot(800)
            times.append(sim.now)
            yield from flow.acquire_slot(800)
            times.append(sim.now)

        sim.spawn(sender())
        sim.call_at(0.05, flow.pause)
        sim.call_at(2.0, flow.resume)
        sim.run()
        assert times[0] == pytest.approx(0.0)
        assert times[1] >= 2.0

    def test_variable_sizes_scale_spacing(self, sim):
        flow = RateBasedFlowControl(sim, rate_bps=8000.0)
        times = []

        def sender():
            yield from flow.acquire_slot(1600)  # 0.2 s
            times.append(sim.now)
            yield from flow.acquire_slot(400)   # 0.05 s
            times.append(sim.now)
            yield from flow.acquire_slot(400)
            times.append(sim.now)

        sim.spawn(sender())
        sim.run()
        assert times == [
            pytest.approx(0.0),
            pytest.approx(0.2),
            pytest.approx(0.25),
        ]

    def test_invalid_rate_rejected(self, sim):
        with pytest.raises(ValueError):
            RateBasedFlowControl(sim, 0.0)
        flow = RateBasedFlowControl(sim, 1.0)
        with pytest.raises(ValueError):
            flow.set_rate(-1.0)


class TestWindowBased:
    def test_window_limits_outstanding(self, sim):
        window = WindowBasedFlowControl(sim, window=3, rto=100.0)
        sent = []

        def sender():
            for i in range(5):
                yield from window.acquire_slot(800)
                sent.append((sim.now, i))

        sim.spawn(sender())
        sim.run(until=1.0)
        assert len(sent) == 3  # stalled at the window

    def test_ack_opens_window(self, sim):
        window = WindowBasedFlowControl(sim, window=2, rto=100.0)
        sent = []

        def sender():
            for i in range(4):
                yield from window.acquire_slot(800)
                sent.append(sim.now)

        sim.spawn(sender())
        sim.call_at(1.0, lambda: window.on_ack(2))
        sim.run(until=5.0)
        assert len(sent) == 4
        assert sent[2] == pytest.approx(1.0)

    def test_timeout_triggers_go_back_n(self, sim):
        window = WindowBasedFlowControl(sim, window=4, rto=0.5)
        retransmitted = []
        window.on_retransmit = lambda base, nxt: retransmitted.append(
            (sim.now, base, nxt)
        )

        def sender():
            for _ in range(2):
                yield from window.acquire_slot(800)

        sim.spawn(sender())
        sim.run(until=1.3)
        assert retransmitted  # at least one retransmission round
        assert retransmitted[0][1:] == (0, 2)
        assert window.timeout_count >= 1

    def test_ack_cancels_timer(self, sim):
        window = WindowBasedFlowControl(sim, window=4, rto=0.5)
        retransmitted = []
        window.on_retransmit = lambda base, nxt: retransmitted.append(base)

        def sender():
            yield from window.acquire_slot(800)

        sim.spawn(sender())
        sim.call_at(0.2, lambda: window.on_ack(1))
        sim.run(until=2.0)
        assert retransmitted == []
        assert window.outstanding == 0

    def test_stale_ack_ignored(self, sim):
        window = WindowBasedFlowControl(sim, window=4, rto=100.0)

        def sender():
            for _ in range(3):
                yield from window.acquire_slot(800)

        sim.spawn(sender())
        sim.run(until=0.1)
        window.on_ack(2)
        window.on_ack(1)  # stale
        assert window.outstanding == 1

    def test_reset_clears_state(self, sim):
        window = WindowBasedFlowControl(sim, window=1, rto=100.0)

        def sender():
            yield from window.acquire_slot(800)

        sim.spawn(sender())
        sim.run(until=0.1)
        window.reset()
        assert window.outstanding == 0

    def test_invalid_parameters_rejected(self, sim):
        with pytest.raises(ValueError):
            WindowBasedFlowControl(sim, window=0)
        with pytest.raises(ValueError):
            WindowBasedFlowControl(sim, rto=0.0)
