"""Scale: many concurrent orchestrated sessions on one network."""

import pytest

from repro.apps.testbed import Testbed
from repro.ansa.stream import AudioQoS
from repro.media.encodings import audio_pcm
from repro.media.sink import PlayoutSink
from repro.media.source import StoredMediaSource
from repro.orchestration.hlo_agent import HLOAgent, StreamSpec
from repro.orchestration.policy import OrchestrationPolicy
from repro.sim.scheduler import Timer
from repro.transport.addresses import TransportAddress

SESSIONS = 8


def build():
    bed = Testbed(seed=101)
    bed.router("core")
    for i in range(SESSIONS):
        bed.host(f"srv{i}", clock_skew_ppm=(-1) ** i * 90.0)
        bed.host(f"ws{i}", clock_skew_ppm=(-1) ** (i + 1) * 70.0)
        bed.link(f"srv{i}", "core", 10e6, prop_delay=0.002)
        bed.link(f"ws{i}", "core", 10e6, prop_delay=0.002)
    return bed.up(max_orch_sessions=SESSIONS + 2)


class TestConcurrentSessions:
    def test_many_sessions_regulate_independently(self):
        bed = build()
        sinks = []
        agents = []

        def setup():
            for i in range(SESSIONS):
                stream = yield from bed.factory.create(
                    TransportAddress(f"srv{i}", 1),
                    TransportAddress(f"ws{i}", 1),
                    AudioQoS.telephone(),
                )
                StoredMediaSource(
                    bed.sim, stream.send_endpoint, audio_pcm(8000.0, 1, 32)
                )
                sinks.append(
                    PlayoutSink(
                        bed.sim, stream.recv_endpoint, 250.0,
                        bed.network.host(f"ws{i}").clock,
                    )
                )
                agent = HLOAgent(
                    bed.sim, bed.llos[f"ws{i}"], f"scale-{i}",
                    [StreamSpec(stream.vc_id, f"srv{i}", f"ws{i}", 250.0)],
                    OrchestrationPolicy(interval_length=0.25),
                )
                agents.append(agent)
                reply = yield from agent.establish()
                assert reply.accept
                reply = yield from agent.prime()
                assert reply.accept
                reply = yield from agent.start()
                assert reply.accept
            marks["t0"] = bed.sim.now
            yield Timer(bed.sim).after(10.0)
            marks["t1"] = bed.sim.now
            marks["presented"] = [sink.presented for sink in sinks]

        marks = {}
        bed.spawn(setup())
        bed.run(60.0)
        elapsed = marks["t1"] - marks["t0"]
        # Every session independently holds its 250 blk/s rate.  The
        # later sessions started slightly after t0, so allow that lead.
        for i, presented in enumerate(marks["presented"]):
            rate = presented / elapsed
            assert rate == pytest.approx(250.0, rel=0.15), f"session {i}"
        # And every agent's reports flowed without cross-talk.
        for i, agent in enumerate(agents):
            assert agent.reports, f"session {i} produced no reports"
            for report in agent.reports:
                assert set(report.streams) == set(agent.streams)
