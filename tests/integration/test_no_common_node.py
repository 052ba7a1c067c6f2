"""Orchestration without a common node (the footnote extension).

The paper restricts groups to a common node so the common clock can be
the synchronisation datum, and suggests lifting the restriction with an
NTP-like synchronisation function inside the orchestrator protocols.
``require_common_node=False`` enables exactly that.
"""


from repro.apps.testbed import Testbed
from repro.ansa.stream import AudioQoS, VideoQoS
from repro.media.encodings import audio_pcm, video_cbr
from repro.media.lipsync import interstream_skew_series, skew_summary
from repro.media.sink import PlayoutSink
from repro.media.source import StoredMediaSource
from repro.orchestration.hlo import OrchestrationError
from repro.orchestration.policy import OrchestrationPolicy
from repro.sim.scheduler import Timer
from repro.transport.addresses import TransportAddress


def build_disjoint(seed=12):
    """video: srv1 -> ws1; audio: srv2 -> ws2 -- no node in common."""
    bed = Testbed(seed=seed)
    for name, skew in (
        ("srv1", 180.0), ("srv2", -150.0), ("ws1", 90.0), ("ws2", -60.0),
    ):
        bed.host(name, clock_skew_ppm=skew)
    bed.router("r")
    for name in ("srv1", "srv2", "ws1", "ws2"):
        bed.link(name, "r", 20e6, prop_delay=0.003)
    bed.up()

    holder = {}

    def connector():
        holder["video"] = yield from bed.factory.create(
            TransportAddress("srv1", 1), TransportAddress("ws1", 1),
            VideoQoS.of(fps=25.0, compression_ratio=80.0),
        )
        holder["audio"] = yield from bed.factory.create(
            TransportAddress("srv2", 1), TransportAddress("ws2", 1),
            AudioQoS.telephone(),
        )

    bed.spawn(connector())
    bed.run(5.0)
    sinks = {
        "video": PlayoutSink(
            bed.sim, holder["video"].recv_endpoint, 25.0,
            bed.network.host("ws1").clock,
        ),
        "audio": PlayoutSink(
            bed.sim, holder["audio"].recv_endpoint, 250.0,
            bed.network.host("ws2").clock,
        ),
    }
    sources = {
        "video": StoredMediaSource(
            bed.sim, holder["video"].send_endpoint,
            video_cbr(25.0, holder["video"].media_qos.osdu_bytes),
        ),
        "audio": StoredMediaSource(
            bed.sim, holder["audio"].send_endpoint, audio_pcm(8000.0, 1, 32),
        ),
    }
    return bed, holder, sources, sinks


class TestNoCommonNode:
    def test_restricted_mode_rejects_disjoint_group(self):
        bed, streams, _sources, _sinks = build_disjoint()
        specs = [streams["video"].spec(), streams["audio"].spec()]

        def driver():
            try:
                yield from bed.hlo.orchestrate(specs)
            except OrchestrationError as exc:
                return str(exc)

        proc = bed.spawn(driver())
        bed.run(5.0)
        assert "common" in proc.finished.value

    def test_extension_orchestrates_disjoint_group(self):
        bed, streams, _sources, sinks = build_disjoint()
        specs = [streams["video"].spec(), streams["audio"].spec()]
        marks = {}

        def driver():
            session = yield from bed.hlo.orchestrate(
                specs,
                OrchestrationPolicy(interval_length=0.2),
                require_common_node=False,
            )
            marks["session"] = session
            yield from session.prime()
            yield from session.start()
            marks["t0"] = bed.sim.now
            yield Timer(bed.sim).after(20.0)
            marks["t1"] = bed.sim.now

        bed.spawn(driver())
        bed.run(40.0)
        session = marks["session"]
        # Clock synchronisers run toward the orchestrating node.
        assert session.synchronizers
        series = interstream_skew_series(
            [sinks["video"], sinks["audio"]], marks["t0"] + 3,
            marks["t1"] - 1,
        )
        assert skew_summary(series)["max"] <= 0.12

    def test_synchronizers_stopped_on_release(self):
        bed, streams, _sources, _sinks = build_disjoint()
        specs = [streams["video"].spec(), streams["audio"].spec()]
        marks = {}

        def driver():
            session = yield from bed.hlo.orchestrate(
                specs, require_common_node=False
            )
            marks["session"] = session

        bed.spawn(driver())
        bed.run(5.0)
        session = marks["session"]
        session.release()
        bed.run(2.0)
        counts = [len(s.offset_estimates) for s in session.synchronizers]
        bed.run(5.0)
        assert [
            len(s.offset_estimates) for s in session.synchronizers
        ] == counts
