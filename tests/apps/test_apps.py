"""Tests for the demonstration applications."""

import pytest

from repro.apps import (
    AVPhoneCall,
    CaptionedPlayout,
    LanguageLab,
    MicroscopeClient,
    MicroscopeServer,
    Testbed,
)
from repro.media.lipsync import interstream_skew_series, skew_summary
from repro.sim.scheduler import Timer


def star_bed(leaves=4, seed=2):
    bed = Testbed.star(seed=seed, leaves=leaves, clock_skew_ppm=120.0)
    return bed.up()


class TestTestbed:
    def test_topology_frozen_after_up(self):
        bed = star_bed()
        with pytest.raises(RuntimeError):
            bed.host("late")

    def test_up_is_idempotent(self):
        bed = star_bed()
        entities = bed.entities
        bed.up()
        assert bed.entities is entities

    def test_star_builds_expected_nodes(self):
        bed = star_bed(leaves=3)
        assert sorted(h.name for h in bed.network.hosts()) == [
            "leaf0", "leaf1", "leaf2"
        ]
        assert bed.network.route("leaf0", "leaf2") == ["leaf0", "hub", "leaf2"]


class TestMicroscope:
    def test_control_and_video(self):
        bed = star_bed()
        server = MicroscopeServer(bed, "leaf0", name="em-1")
        client = MicroscopeClient(bed, "leaf1")
        out = {}

        def driver():
            out["mag"] = yield from client.invoke(
                "em-1", "set_magnification", 2000
            )
            out["specimen"] = yield from client.invoke(
                "em-1", "select_specimen", "diatom"
            )
            out["attached"] = yield from client.attach_viewer(server)
            yield Timer(bed.sim).after(4.0)
            out["status"] = yield from client.invoke("em-1", "status")
            out["frames"] = client.frames_received()

        bed.spawn(driver())
        bed.run(20.0)
        assert out["mag"] == 2000
        assert out["specimen"] == "diatom"
        assert out["attached"]
        assert out["status"]["viewers"] == 1
        # ~4 s of 25 fps live video.
        assert out["frames"] == pytest.approx(100, abs=10)

    def test_invalid_magnification_marshalled(self):
        bed = star_bed()
        MicroscopeServer(bed, "leaf0", name="em-2")
        client = MicroscopeClient(bed, "leaf1")
        from repro.ansa.rex import InvocationError

        out = {}

        def driver():
            try:
                yield from client.invoke("em-2", "set_magnification", -5)
            except InvocationError as exc:
                out["error"] = str(exc)

        bed.spawn(driver())
        bed.run(5.0)
        assert "magnification" in out["error"]

    def test_two_viewers(self):
        bed = star_bed()
        server = MicroscopeServer(bed, "leaf0", name="em-3")
        clients = [MicroscopeClient(bed, f"leaf{i}") for i in (1, 2)]
        out = {}

        def driver():
            for i, client in enumerate(clients):
                out[i] = yield from client.attach_viewer(server)
            yield Timer(bed.sim).after(3.0)

        bed.spawn(driver())
        bed.run(20.0)
        assert out[0] and out[1]
        assert len(server.sources) == 2
        assert all(c.frames_received() > 30 for c in clients)


class TestAVPhone:
    def test_call_setup_and_voice_flow(self):
        bed = star_bed()
        call = AVPhoneCall(bed, "leaf0", "leaf1")
        out = {}

        def driver():
            out["ok"] = yield from call.setup()

        bed.spawn(driver())
        bed.run(10.0)
        assert out["ok"]
        assert len(call.legs) == 2  # two simplex VCs (section 3.1)
        for leg in call.legs:
            assert leg.sink.presented > 1000  # ~8 s of 250 blocks/s

    def test_mouth_to_ear_delay_interactive(self):
        bed = star_bed()
        call = AVPhoneCall(bed, "leaf0", "leaf1")

        def driver():
            yield from call.setup()

        bed.spawn(driver())
        bed.run(10.0)
        delays = call.mouth_to_ear_delays()
        assert len(delays) == 2
        # Human-interactive bound (section 3.2): well under 150 ms.
        assert all(d < 0.15 for d in delays)

    def test_hang_up_stops_flow(self):
        bed = star_bed()
        call = AVPhoneCall(bed, "leaf0", "leaf1")

        def driver():
            yield from call.setup()

        bed.spawn(driver())
        bed.run(5.0)
        call.hang_up()
        bed.run(0.5)
        counts = [leg.sink.presented for leg in call.legs]
        bed.run(3.0)
        assert [leg.sink.presented for leg in call.legs] == counts

    def test_video_call_has_four_legs(self):
        from repro.ansa.stream import VideoQoS

        bed = star_bed()
        call = AVPhoneCall(
            bed, "leaf0", "leaf1", video=VideoQoS.of(fps=25.0)
        )

        def driver():
            yield from call.setup()

        bed.spawn(driver())
        bed.run(8.0)
        assert len(call.legs) == 4


class TestLanguageLab:
    def test_lesson_starts_simultaneously_everywhere(self):
        bed = star_bed(leaves=4)
        lab = LanguageLab(bed, "leaf0", ["leaf1", "leaf2", "leaf3"],
                          lesson_seconds=120)
        out = {}

        def driver():
            session = yield from lab.setup()
            out["node"] = session.orchestrating_node
            out["begin"] = yield from lab.begin_lesson()
            out["t0"] = bed.sim.now

        bed.spawn(driver())
        bed.run(30.0)
        assert out["node"] == "leaf0"  # the server is the common node
        assert out["begin"].accept
        firsts = lab.first_presented_after(0.0)
        assert max(firsts) - min(firsts) < 0.1

    def test_lesson_pause_resume_from_position(self):
        bed = star_bed(leaves=3)
        lab = LanguageLab(bed, "leaf0", ["leaf1", "leaf2"],
                          lesson_seconds=300)
        out = {}

        def driver():
            yield from lab.setup()
            yield from lab.begin_lesson()
            yield Timer(bed.sim).after(5.0)
            out["resume_reply"] = yield from lab.resume_from(60.0)
            out["resume_t"] = bed.sim.now
            yield Timer(bed.sim).after(3.0)

        bed.spawn(driver())
        bed.run(40.0)
        assert out["resume_reply"].accept
        for sink in lab.sinks:
            resumed = [
                r for r in sink.records if r.delivered_at > out["resume_t"]
            ]
            assert resumed
            assert all(r.media_time >= 60.0 for r in resumed)

    def test_cross_workstation_skew_bounded(self):
        bed = star_bed(leaves=4)
        lab = LanguageLab(bed, "leaf0", ["leaf1", "leaf2", "leaf3"],
                          lesson_seconds=120)
        out = {}

        def driver():
            yield from lab.setup()
            yield from lab.begin_lesson()
            out["t0"] = bed.sim.now
            yield Timer(bed.sim).after(15.0)
            out["t1"] = bed.sim.now

        bed.spawn(driver())
        bed.run(40.0)
        series = interstream_skew_series(
            lab.sinks, out["t0"] + 2, out["t1"] - 1
        )
        assert skew_summary(series)["max"] <= 0.08


class TestCaptions:
    def _build(self):
        bed = star_bed(leaves=3)
        playout = CaptionedPlayout(
            bed, "leaf0", "leaf1", "leaf2",
            scene_changes=[50, 150], film_seconds=120,
        )
        return bed, playout

    def test_captions_track_video(self):
        bed, playout = self._build()
        out = {}

        def driver():
            yield from playout.setup()
            out["play"] = yield from playout.play()
            yield Timer(bed.sim).after(10.0)
            out["err"] = playout.caption_alignment_error()

        bed.spawn(driver())
        bed.run(30.0)
        assert out["play"].accept
        # One caption period (0.4 s) of slack.
        assert out["err"] <= 0.45

    def test_scene_change_events_fire_in_order(self):
        bed, playout = self._build()

        def driver():
            yield from playout.setup()
            yield from playout.play()
            yield Timer(bed.sim).after(12.0)

        bed.spawn(driver())
        bed.run(30.0)
        assert [seq for _t, seq in playout.scene_events] == [50, 150]


class TestVideoDiscJockey:
    def _build(self):
        from repro.apps import VideoDiscJockey

        bed = star_bed(leaves=4, seed=9)
        vdj = VideoDiscJockey(
            bed, console="leaf0", audio_server="leaf1",
            deck_servers=["leaf2", "leaf3"],
        )
        return bed, vdj

    def test_programme_starts_with_first_deck(self):
        bed, vdj = self._build()
        out = {}

        def driver():
            session = yield from vdj.setup()
            out["node"] = session.orchestrating_node
            out["live"] = yield from vdj.go_live()
            yield Timer(bed.sim).after(5.0)

        bed.spawn(driver())
        bed.run(30.0)
        assert out["node"] == "leaf0"  # the console is the common node
        assert out["live"].accept
        assert vdj.decks["deck0"].sink.presented > 100
        assert vdj.decks["deck1"].sink.presented == 0  # not yet cut in
        assert vdj.audio_sink.presented > 1000

    def test_cut_switches_regulated_deck(self):
        bed, vdj = self._build()
        out = {}

        def driver():
            yield from vdj.setup()
            yield from vdj.go_live()
            yield Timer(bed.sim).after(4.0)
            out["cut"] = yield from vdj.cut_to("deck1")
            out["cut_at"] = bed.sim.now
            yield Timer(bed.sim).after(4.0)

        bed.spawn(driver())
        bed.run(30.0)
        assert out["cut"].accept
        assert vdj.live_deck == "deck1"
        assert vdj.cut_log and vdj.cut_log[0][1:] == ("deck0", "deck1")
        # The incoming deck is delivering under regulation at ~25 fps.
        after = [
            r for r in vdj.decks["deck1"].sink.records
            if r.delivered_at > out["cut_at"]
        ]
        assert len(after) > 50
        # The removed deck keeps flowing (preview), unregulated.
        deck0_after = [
            r for r in vdj.decks["deck0"].sink.records
            if r.delivered_at > out["cut_at"]
        ]
        assert deck0_after  # "not disconnected: data may still be flowing"

    def test_audio_bed_unaffected_by_cut(self):
        bed, vdj = self._build()
        out = {}

        def driver():
            yield from vdj.setup()
            yield from vdj.go_live()
            yield Timer(bed.sim).after(4.0)
            out["before"] = vdj.audio_sink.presented
            out["t0"] = bed.sim.now
            yield from vdj.cut_to("deck1")
            yield Timer(bed.sim).after(4.0)
            out["after"] = vdj.audio_sink.presented
            out["t1"] = bed.sim.now

        bed.spawn(driver())
        bed.run(30.0)
        elapsed = out["t1"] - out["t0"]
        gained = out["after"] - out["before"]
        assert gained / elapsed == pytest.approx(250.0, rel=0.1)
