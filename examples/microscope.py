#!/usr/bin/env python3
"""The remote microscope controller (paper section 2.2).

A scientist's workstation controls an electron microscope by ADT
invocation (REX RPC with delay bounds) and attaches its live video by
**remote connect** (section 3.5): the workstation is the initiator, the
microscope's camera TSAP is the source and the local display TSAP is
the sink -- three distinct transport addresses, exactly Figure 2.

Run:  python examples/microscope.py
"""

from repro.apps import MicroscopeClient, MicroscopeServer, Testbed
from repro.sim import Timer


def main() -> None:
    bed = Testbed(seed=3)
    bed.host("lab", clock_skew_ppm=90)       # the microscope machine
    bed.host("office1", clock_skew_ppm=-70)  # scientist 1
    bed.host("office2", clock_skew_ppm=40)   # scientist 2
    bed.router("campus")
    for name in ("lab", "office1", "office2"):
        bed.link(name, "campus", 30e6, prop_delay=0.005)
    bed.up()

    microscope = MicroscopeServer(bed, "lab", name="em-alpha")
    alice = MicroscopeClient(bed, "office1")
    bob = MicroscopeClient(bed, "office2")

    def driver():
        mag = yield from alice.invoke("em-alpha", "set_magnification", 5000)
        print(f"[{bed.sim.now:7.3f}] alice set magnification to {mag}x "
              f"(delay-bounded invocation)")
        specimen = yield from alice.invoke(
            "em-alpha", "select_specimen", "graphene lattice"
        )
        print(f"[{bed.sim.now:7.3f}] specimen: {specimen}")
        ok = yield from alice.attach_viewer(microscope)
        print(f"[{bed.sim.now:7.3f}] alice's viewer attached by remote "
              f"connect: {ok}")
        ok = yield from bob.attach_viewer(microscope)
        print(f"[{bed.sim.now:7.3f}] bob's viewer attached: {ok}")
        yield Timer(bed.sim).after(6.0)
        status = yield from bob.invoke("em-alpha", "status")
        print(f"[{bed.sim.now:7.3f}] microscope status: {status}")
        print(f"[{bed.sim.now:7.3f}] frames received -- alice: "
              f"{alice.frames_received()}, bob: {bob.frames_received()} "
              f"(25 fps live video)")

    bed.spawn(driver())
    bed.run(30.0)


if __name__ == "__main__":
    main()
