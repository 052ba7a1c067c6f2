"""Orchestration over the window-based transport profile.

Paper section 7 lists "the use of other transport protocols in our
architecture" as an open question.  These tests show the architecture
is transport-agnostic: gates, priming and regulation work unchanged
over a window-based VC, with the receiver-advertised window playing
the backpressure role the credit loop plays for the rate profile.  The
remaining rate-profile advantage (smoothness under loss, faster rate
adaptation) is quantified in E12.
"""

import pytest

from repro.apps.testbed import Testbed
from repro.media.encodings import audio_pcm
from repro.media.sink import PlayoutSink
from repro.media.source import StoredMediaSource
from repro.orchestration.hlo_agent import HLOAgent, StreamSpec
from repro.orchestration.policy import OrchestrationPolicy
from repro.sim.scheduler import Timer
from repro.transport.addresses import TransportAddress
from repro.transport.profiles import ProtocolProfile
from repro.ansa.stream import AudioQoS


def build(profile: ProtocolProfile):
    bed = Testbed(seed=73)
    bed.host("srv", clock_skew_ppm=100)
    bed.host("ws", clock_skew_ppm=-80)
    bed.link("srv", "ws", 10e6, prop_delay=0.004)
    bed.up()
    holder = {}

    def connector():
        holder["stream"] = yield from bed.factory.create(
            TransportAddress("srv", 1), TransportAddress("ws", 1),
            AudioQoS.telephone(), profile=profile,
        )

    bed.spawn(connector())
    bed.run(5.0)
    stream = holder["stream"]
    source = StoredMediaSource(
        bed.sim, stream.send_endpoint, audio_pcm(8000.0, 1, 32)
    )
    sink = PlayoutSink(
        bed.sim, stream.recv_endpoint, 250.0, bed.network.host("ws").clock
    )
    agent = HLOAgent(
        bed.sim, bed.llos["ws"], "win-orch",
        [StreamSpec(stream.vc_id, "srv", "ws", 250.0)],
        OrchestrationPolicy(interval_length=0.2),
    )
    return bed, stream, source, sink, agent


class TestWindowProfileOrchestration:
    def test_prime_start_and_regulation_work(self):
        bed, stream, source, sink, agent = build(ProtocolProfile.WINDOW_BASED)
        out = {}

        def driver():
            out["est"] = yield from agent.establish()
            out["prime"] = yield from agent.prime()
            out["start"] = yield from agent.start()
            out["t0"] = bed.sim.now
            yield Timer(bed.sim).after(8.0)
            out["t1"] = bed.sim.now
            out["presented"] = sink.presented

        bed.spawn(driver())
        bed.run(40.0)
        assert out["est"].accept and out["prime"].accept and out["start"].accept
        rate = out["presented"] / (out["t1"] - out["t0"])
        # Regulation paces delivery at the media rate even though the
        # underlying protocol is window-based.
        assert rate == pytest.approx(250.0, rel=0.1)
        # And no receive-buffer overrun: the advertised window carried
        # the backpressure.
        recv_vc = bed.entities["ws"].recv_vcs[stream.vc_id]
        assert recv_vc.buffer.overflow_drops == 0

    def test_stop_freezes_and_stalls_sender_via_advertised_window(self):
        """Orch.Stop over the window profile: the gate freezes delivery
        and the zero advertised window stalls the sender without loss.
        (The rate profile remains preferable for the reasons E12
        quantifies: smoothness under loss and faster adaptation.)"""
        bed, stream, source, sink, agent = build(ProtocolProfile.WINDOW_BASED)
        out = {}

        def driver():
            yield from agent.establish()
            yield from agent.prime()
            yield from agent.start()
            yield Timer(bed.sim).after(5.0)
            yield from agent.stop()
            yield Timer(bed.sim).after(1.0)
            send_vc = bed.entities["srv"].send_vcs[stream.vc_id]
            out["sent_after_stop"] = send_vc.sent_count
            out["presented"] = sink.presented
            yield Timer(bed.sim).after(4.0)
            out["sent_later"] = send_vc.sent_count
            out["presented_later"] = sink.presented

        bed.spawn(driver())
        bed.run(40.0)
        # Delivery froze...
        assert out["presented_later"] == out["presented"]
        # ...and the sender stalled (zero advertised window) rather
        # than overrun: no loss.
        assert out["sent_later"] == out["sent_after_stop"]
        recv_vc = bed.entities["ws"].recv_vcs[stream.vc_id]
        assert recv_vc.buffer.overflow_drops == 0

    def test_rate_profile_stop_is_lossless_by_contrast(self):
        bed, stream, source, sink, agent = build(
            ProtocolProfile.CM_RATE_BASED
        )

        def driver():
            yield from agent.establish()
            yield from agent.prime()
            yield from agent.start()
            yield Timer(bed.sim).after(5.0)
            yield from agent.stop()
            yield Timer(bed.sim).after(5.0)

        bed.spawn(driver())
        bed.run(40.0)
        recv_vc = bed.entities["ws"].recv_vcs[stream.vc_id]
        assert recv_vc.buffer.overflow_drops == 0
