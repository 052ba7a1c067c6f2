"""Tests for the packet-id causal chain index."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.causality import ChainIndex
from repro.obs.trace import TraceLevel, Tracer

_US = 1e6


def _ev(name, ts_s, cat=None, dur_s=0.0, **args):
    event = {"ph": "i", "name": name, "ts": ts_s * _US, "args": args}
    if cat:
        event["cat"] = cat
    if dur_s:
        event["ph"] = "X"
        event["dur"] = dur_s * _US
    return event


def _sample_events():
    return [
        # Packet 1: sent on vc v1, delivered.
        _ev("tpdu.tx", 1.0, cat="causal", packet_id=1, vc="v1", seq=0,
            kind="data"),
        _ev("rx:v1#0", 1.01, packet_id=1),
        # Packet 2: sent, dropped at the link while it was down.
        _ev("tpdu.tx", 1.1, cat="causal", packet_id=2, vc="v1", seq=1,
            kind="data"),
        _ev("drop:down", 1.102, packet_id=2, link="r->b", flow="v1"),
        # Packet 3: in flight when the link went down.
        _ev("tpdu.tx", 1.2, cat="causal", packet_id=3, vc="v1", seq=2,
            kind="data"),
        _ev("link.down", 1.201, cat="fault", link="r->b",
            lost_in_flight=1, lost_packet_ids=[3]),
        # Packet 4: another VC entirely.
        _ev("tpdu.tx", 1.3, cat="causal", packet_id=4, vc="v2", seq=0,
            kind="data"),
        # A fault episode spanning [1.15, 1.45].
        _ev("fault:outage:r->b", 1.15, cat="fault", dur_s=0.3, link="r->b"),
        # Metadata events must be ignored.
        {"ph": "M", "name": "process_name", "args": {"name": "vc:v1"}},
    ]


class TestPacketFate:
    def test_delivered(self):
        chain = ChainIndex(_sample_events())
        fate = chain.packet_fate(1)
        assert fate["status"] == "delivered"
        assert fate["sent_at"] == 1.0
        assert fate["resolved_at"] == 1.01
        assert fate["vc"] == "v1" and fate["seq"] == 0

    def test_lost_at_down_link(self):
        fate = ChainIndex(_sample_events()).packet_fate(2)
        assert fate["status"] == "lost"
        assert fate["cause"] == "link-down"
        assert fate["where"] == "r->b"

    def test_lost_in_flight_via_lost_packet_ids(self):
        # Packet 3 never has its own loss event; it is named only in
        # the link.down event's bounded id list.
        fate = ChainIndex(_sample_events()).packet_fate(3)
        assert fate["status"] == "lost"
        assert fate["cause"] == "lost-in-flight"

    def test_unknown_packet_is_in_flight(self):
        fate = ChainIndex([]).packet_fate(99)
        assert fate["status"] == "in-flight"
        assert fate["sent_at"] is None


class TestPerVCQueries:
    def test_window_filters_by_send_time(self):
        chain = ChainIndex(_sample_events())
        assert len(chain.packets_for_vc("v1")) == 3
        assert len(chain.packets_for_vc("v1", 1.05, 1.25)) == 2
        assert len(chain.packets_for_vc("v2")) == 1
        assert chain.packets_for_vc("nope") == []

    def test_lost_packets(self):
        chain = ChainIndex(_sample_events())
        lost = chain.lost_packets("v1")
        assert sorted(f["packet_id"] for f in lost) == [2, 3]

    def test_fault_episodes_overlap(self):
        chain = ChainIndex(_sample_events())
        names = [e["name"] for e in chain.fault_episodes(1.4, 2.0)]
        assert "fault:outage:r->b" in names  # spans into the window
        assert chain.fault_episodes(5.0, 6.0) == []

    def test_explain_period(self):
        chain = ChainIndex(_sample_events())
        explanation = chain.explain_period("v1", 1.05, 1.25)
        assert explanation["sent"] == 2
        assert explanation["delivered"] == 0
        assert [f["packet_id"] for f in explanation["lost"]] == [2, 3]
        # The default lookback (two period lengths) catches the fault
        # episode that started before the period.
        assert any(
            f["name"] == "fault:outage:r->b" for f in explanation["faults"]
        )


# -- incremental indexing ---------------------------------------------------

PACKETS = st.integers(min_value=1, max_value=6)
VCS = st.sampled_from(["v1", "v2"])
#: A coarse grid, so equal timestamps are common.
TIMES = st.integers(min_value=0, max_value=12).map(lambda k: k * 0.25)


@st.composite
def _trace_events(draw):
    """Events of every kind the index reads, in *recording* order --
    which is not timestamp order: spans are recorded when they end."""
    kind = draw(st.sampled_from(
        ["tx", "rx", "loss", "drop", "down", "fault", "serialise", "other"]))
    ts = draw(TIMES)
    packet = draw(PACKETS)
    if kind == "tx":
        return _ev("tpdu.tx", ts, cat="causal", packet_id=packet,
                   vc=draw(VCS), seq=draw(PACKETS), kind="data")
    if kind == "rx":
        return _ev(f"rx:v1#{packet}", ts, packet_id=packet)
    if kind == "loss":
        return _ev("loss", ts, packet_id=packet, link="a->b")
    if kind == "drop":
        return _ev(draw(st.sampled_from(["drop:down", "drop:buffer"])), ts,
                   packet_id=packet, track="r->b")
    if kind == "down":
        return _ev("link.down", ts, cat="fault", link="r->b",
                   lost_packet_ids=draw(st.lists(PACKETS, max_size=3)))
    if kind == "fault":
        return _ev("fault:outage:r->b", ts, cat="fault",
                   dur_s=draw(TIMES), link="r->b")
    if kind == "serialise":
        return _ev("tx", ts, cat="link", dur_s=0.25, packet_id=packet)
    return {"ph": "M", "name": "process_name", "args": {"name": "vc:v1"}}


def _answers(index):
    return {
        "fates": [index.packet_fate(p) for p in range(1, 7)],
        "events": [index.events_for_packet(p) for p in range(1, 7)],
        "periods": [
            index.explain_period(vc, t0, t0 + 1.0)
            for vc in ("v1", "v2") for t0 in (0.0, 0.75, 2.0)
        ],
    }


class TestIncrementalIndex:
    @settings(max_examples=200, deadline=None)
    @given(events=st.lists(_trace_events(), max_size=40),
           cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=5))
    def test_extend_at_any_cut_points_equals_one_build(self, events, cuts):
        whole = ChainIndex(events)
        grown = ChainIndex()
        bounds = sorted({0, len(events), *(c for c in cuts if c < len(events))})
        for lo, hi in zip(bounds, bounds[1:]):
            grown.extend(events[lo:hi])
        assert _answers(grown) == _answers(whole)
        # The oracle shares no ordering code with the index: fed in
        # (stable) timestamp order, no chain ever needs a re-sort.
        in_time_order = sorted(
            (e for e in events if e["ph"] != "M"), key=lambda e: e["ts"])
        assert _answers(grown) == _answers(ChainIndex(in_time_order))

    def test_span_recorded_late_sorts_before_later_instants(self):
        # The serialisation span starts at 1.0 but is recorded at its
        # end, after the 1.1 loss, and in a later extend() call.
        index = ChainIndex([_ev("loss", 1.1, packet_id=1, link="a->b")])
        index.extend([_ev("tx", 1.0, cat="link", dur_s=0.2, packet_id=1)])
        assert [e["name"] for e in index.events_for_packet(1)] == [
            "tx", "loss"]

    def test_equal_timestamps_keep_recording_order_across_extends(self):
        index = ChainIndex([_ev("rx:a", 1.0, packet_id=1)])
        index.extend([_ev("rx:b", 1.0, packet_id=1)])
        index.extend([_ev("tx", 0.5, cat="link", dur_s=0.1, packet_id=1),
                      _ev("rx:c", 1.0, packet_id=1)])
        assert [e["name"] for e in index.events_for_packet(1)] == [
            "tx", "rx:a", "rx:b", "rx:c"]

    def test_records_and_their_dicts_index_alike(self):
        class Clock:
            t = 0.0

            def __call__(self):
                return self.t

        clock = Clock()
        tracer = Tracer(clock, TraceLevel.PACKET)
        clock.t = 1.0
        tracer.instant("tpdu.tx", track="vc:v1", cat="causal",
                       args={"packet_id": 9, "vc": "v1", "seq": 0,
                             "kind": "data"})
        clock.t = 1.2
        tracer.instant("link.down", track="link:r->b", cat="fault",
                       args={"link": "r->b", "lost_packet_ids": [9]})
        tracer.complete("tx", 1.05, 1.1, track="link:r->b", cat="link",
                        args={"packet_id": 9})
        from_records = ChainIndex()
        from_records.extend_records(tracer.records())
        from_dicts = ChainIndex(tracer.to_dict()["traceEvents"])
        assert from_records.events_for_packet(9) == tracer.events[:1] + [
            tracer.events[2], tracer.events[1]]
        assert (from_records.explain_period("v1", 0.5, 1.5)
                == from_dicts.explain_period("v1", 0.5, 1.5))
        assert from_records.packet_fate(9)["cause"] == "lost-in-flight"
