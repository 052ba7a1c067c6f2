#!/usr/bin/env python3
"""The video disc jockey console (paper section 2.2).

A VDJ plays a continuous audio bed while cutting the programme video
between two decks stored on different servers.  Deck switches are
Orch.Remove + Orch.Add on the live orchestrated group (section 6.2.4):
the outgoing deck keeps flowing as a preview, the incoming deck joins
regulation at the programme position.

Run:  python examples/vdj_console.py
"""

from repro.apps import Testbed, VideoDiscJockey
from repro.sim import Timer


def main() -> None:
    bed = Testbed(seed=17)
    bed.host("console", clock_skew_ppm=60)
    bed.host("audio-srv", clock_skew_ppm=-90)
    bed.host("deck-a-srv", clock_skew_ppm=130)
    bed.host("deck-b-srv", clock_skew_ppm=-40)
    bed.router("studio-lan")
    for name in ("console", "audio-srv", "deck-a-srv", "deck-b-srv"):
        bed.link(name, "studio-lan", 30e6, prop_delay=0.001)
    bed.up()

    vdj = VideoDiscJockey(
        bed, console="console", audio_server="audio-srv",
        deck_servers=["deck-a-srv", "deck-b-srv"],
    )

    def show():
        session = yield from vdj.setup()
        print(f"[{bed.sim.now:7.3f}] console orchestrating at "
              f"{session.orchestrating_node!r}; deck0 cued")
        yield from vdj.go_live()
        print(f"[{bed.sim.now:7.3f}] ON AIR: audio bed + deck0")
        yield Timer(bed.sim).after(6.0)
        reply = yield from vdj.cut_to("deck1")
        print(f"[{bed.sim.now:7.3f}] CUT to deck1: {reply.accept} "
              f"(programme at {vdj.programme_position():.2f} s)")
        yield Timer(bed.sim).after(6.0)
        reply = yield from vdj.cut_to("deck0")
        print(f"[{bed.sim.now:7.3f}] CUT back to deck0: {reply.accept}")
        yield Timer(bed.sim).after(4.0)
        yield from session.stop()
        print(f"[{bed.sim.now:7.3f}] off air")

    bed.spawn(show())
    bed.run(60.0)

    print(f"\nprogramme audio: {vdj.audio_sink.presented} blocks "
          f"({vdj.programme_position():.2f} s)")
    for name, deck in vdj.decks.items():
        print(f"{name}: {deck.sink.presented} frames presented "
              f"({'on air' if deck.on_air else 'preview'})")
    print(f"cut log: {[(round(t, 2), a, b) for t, a, b in vdj.cut_log]}")


if __name__ == "__main__":
    main()
