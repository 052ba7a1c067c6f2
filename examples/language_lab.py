#!/usr/bin/env python3
"""The language laboratory (paper section 3.6).

Audio tracks in different languages, stored on one server, distributed
to several workstations in a real-time interactive lesson.  The server
is the node common to every VC, so the HLO orchestrates at the *source*
(Figure 5's other case).  The teacher pauses the lesson, skips back to
repeat a sentence, and resumes -- every workstation hears the same
sentence at the same moment throughout.

Run:  python examples/language_lab.py
"""

from repro.apps import LanguageLab, Testbed
from repro.media.lipsync import interstream_skew_series, skew_summary
from repro.sim import Timer


def main() -> None:
    bed = Testbed(seed=11)
    bed.host("lab-server", clock_skew_ppm=120)
    for i, skew in enumerate((80, -110, 140, -60)):
        bed.host(f"booth{i}", clock_skew_ppm=skew)
    bed.router("lan")
    bed.link("lab-server", "lan", 20e6, prop_delay=0.002)
    for i in range(4):
        bed.link(f"booth{i}", "lan", 10e6, prop_delay=0.002)
    bed.up()

    lab = LanguageLab(
        bed, "lab-server", [f"booth{i}" for i in range(4)],
        lesson_seconds=600.0,
    )
    marks = {}

    def driver():
        session = yield from lab.setup()
        print(f"[{bed.sim.now:7.3f}] lesson orchestrated at "
              f"{session.orchestrating_node!r} (the server: the common "
              f"node is the source this time)")
        reply = yield from lab.begin_lesson()
        print(f"[{bed.sim.now:7.3f}] lesson started "
              f"(all booths primed): {reply.accept}")
        marks["t0"] = bed.sim.now
        yield Timer(bed.sim).after(12.0)
        marks["t1"] = bed.sim.now
        print(f"[{bed.sim.now:7.3f}] teacher pauses and repeats from 5 s")
        reply = yield from lab.resume_from(5.0)
        marks["resume"] = bed.sim.now
        yield Timer(bed.sim).after(8.0)
        yield from lab.pause_lesson()
        marks["t2"] = bed.sim.now

    bed.spawn(driver())
    bed.run(60.0)

    firsts = lab.first_presented_after(0.0)
    print(f"\nstart simultaneity across booths: "
          f"{(max(firsts) - min(firsts))*1e3:.1f} ms spread")
    series = interstream_skew_series(
        lab.sinks, marks["t0"] + 2, marks["t1"] - 1
    )
    summary = skew_summary(series)
    print(f"cross-booth skew during the lesson: mean "
          f"{summary['mean']*1e3:.1f} ms, max {summary['max']*1e3:.1f} ms")
    for i, sink in enumerate(lab.sinks):
        resumed = [
            r for r in sink.records if r.delivered_at >= marks["resume"]
        ]
        first_media = resumed[0].media_time if resumed else float("nan")
        print(f"booth{i}: {sink.presented} blocks presented; "
              f"resumed at media {first_media:.2f} s")


if __name__ == "__main__":
    main()
