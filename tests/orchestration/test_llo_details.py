"""Focused LLO mechanism tests: backlog, queries, drop handling."""

import pytest

from repro.orchestration.llo import REASON_TIMEOUT
from repro.orchestration.opdu import DropRequestOPDU, RegulateCmdOPDU
from repro.orchestration.primitives import OrchReply

_TIMED_OUT = OrchReply(False, REASON_TIMEOUT)


def establish(film):
    agent = film.agent()
    assert film.run_coro(agent.establish()).accept
    return agent


class TestRegulationSerialisation:
    def test_overlapping_regulate_cmds_queue(self, film):
        """Back-to-back Orch.Regulate commands must not overlap: the
        second runs after the first interval completes."""
        agent = establish(film)
        film.run_coro(agent.prime())
        film.run_coro(agent.start(regulate=False), window=1.0)
        llo = film.bed.llos["ws"]
        vc_id = film.streams[0].vc_id
        recv_vc = film.bed.entities["ws"].recv_vcs[vc_id]
        recv_vc.meter_gate()
        # Issue two intervals back-to-back, each 0.5 s, 5 units due.
        base = recv_vc.delivered_seq()
        llo.regulate_request("sess-1", vc_id, base + 5, 0, 0.5, 1)
        llo.regulate_request("sess-1", vc_id, base + 10, 0, 0.5, 2)
        assert vc_id in llo._regulating
        assert len(llo._regulate_backlog.get(vc_id, [])) == 1
        film.bed.run(1.5)
        # Both intervals completed sequentially: ~10 units in ~1 s.
        assert recv_vc.delivered_seq() >= base + 9
        assert not llo._regulate_backlog.get(vc_id)

    def test_local_delivered_seq(self, film):
        establish(film)
        vc_id = film.streams[0].vc_id
        assert film.bed.llos["ws"].local_delivered_seq(vc_id) == -1
        # The source node is not the sink: returns None.
        assert film.bed.llos["video-srv"].local_delivered_seq(vc_id) is None


class TestDropRequests:
    def test_drop_request_opdu_executes_at_source(self, film):
        agent = establish(film)
        film.run_coro(agent.prime())
        vc_id = film.streams[0].vc_id
        send_vc = film.bed.entities["video-srv"].send_vcs[vc_id]
        # Pipeline is primed: the send buffer holds queued units.
        assert len(send_vc.buffer) > 0
        source_llo = film.bed.llos["video-srv"]
        source_llo._handle_drop_request(
            DropRequestOPDU(session_id="sess-1", request_id=1,
                            origin="ws", vc_id=vc_id, count=2)
        )
        assert send_vc.buffer.dropped_at_source == 2
        assert source_llo.drops_performed == 2

    def test_drop_request_for_unknown_vc_is_noop(self, film):
        establish(film)
        source_llo = film.bed.llos["video-srv"]
        source_llo._handle_drop_request(
            DropRequestOPDU(session_id="sess-1", request_id=1,
                            origin="ws", vc_id="ghost", count=1)
        )
        assert source_llo.drops_performed == 0


class TestRegulateEdgeCases:
    def test_regulate_unknown_session_ignored(self, film):
        agent = establish(film)
        llo = film.bed.llos["ws"]
        # Unknown session: silently dropped (membership races).
        llo.regulate_request = llo.regulate_request  # same object
        llo._handle_regulate_cmd(
            RegulateCmdOPDU(session_id="nope", request_id=1, origin="ws",
                            vc_id=film.streams[0].vc_id, target_osdu=10,
                            max_drop=0, interval_length=0.2, interval_id=1)
        )
        film.bed.run(0.5)  # no crash, nothing regulated

    def test_regulate_request_after_remove_is_silent(self, film):
        agent = establish(film)
        vc_id = film.streams[0].vc_id
        film.run_coro(agent.remove_stream(vc_id))
        # Must not raise.
        film.bed.llos["ws"].regulate_request(
            "sess-1", vc_id, 100, 0, 0.2, 99
        )

    def test_zero_due_interval_still_reports(self, film):
        agent = establish(film)
        film.run_coro(agent.prime())
        film.run_coro(agent.start(regulate=False), window=1.0)
        llo = film.bed.llos["ws"]
        vc_id = film.streams[0].vc_id
        recv_vc = film.bed.entities["ws"].recv_vcs[vc_id]
        recv_vc.meter_gate()
        queue = llo.agent_queue("sess-1")
        base = recv_vc.delivered_seq()
        llo.regulate_request("sess-1", vc_id, base, 0, 0.25, 7)  # n_due == 0
        film.bed.run(1.0)
        indications = []
        while len(queue):
            indications.append(queue.get_nowait())
        matching = [i for i in indications if i.interval_id == 7]
        assert len(matching) == 1
        assert matching[0].osdu_seq == base


class TestReleasedBacklog:
    def test_release_does_not_strand_next_sessions_intervals(self, film):
        """Intervals a released session left queued must not hold up
        the intervals a later session issues on the same VC."""
        agent = establish(film)
        film.run_coro(agent.prime())
        film.run_coro(agent.start(regulate=False), window=1.0)
        llo = film.bed.llos["ws"]
        vc_id = film.streams[0].vc_id
        recv_vc = film.bed.entities["ws"].recv_vcs[vc_id]
        recv_vc.meter_gate()
        base = recv_vc.delivered_seq()
        for interval_id in (1, 2, 3):
            llo.regulate_request("sess-1", vc_id, base + 5 * interval_id, 0,
                                 0.5, interval_id)
        llo.release("sess-1")
        assert not llo._regulate_backlog.get(vc_id)
        reply = film.run_coro(
            llo.orch_request("sess-2", {vc_id: ("video-srv", "ws")})
        )
        assert reply.accept
        queue = llo.agent_queue("sess-2")
        base = recv_vc.delivered_seq()
        llo.regulate_request("sess-2", vc_id, base + 5, 0, 0.5, 11)
        llo.regulate_request("sess-2", vc_id, base + 10, 0, 0.5, 12)
        film.bed.run(2.0)
        reported = []
        while len(queue):
            reported.append(queue.get_nowait().interval_id)
        assert reported == [11, 12]
        assert vc_id not in llo._regulating
        assert not llo._regulate_backlog.get(vc_id)


def _sever(film, node):
    """Take both directions of ``node``'s access link down."""
    for a, b in ((node, "net"), ("net", node)):
        film.bed.network.link_between(a, b).set_down()


def _ask_orch_request(film, llo):
    _sever(film, "video-srv")
    vcs = {spec.vc_id: (spec.source_node, spec.sink_node)
           for spec in film.specs}
    return film.run_coro(llo.orch_request("sess-1", vcs)), _TIMED_OUT


def _ask_group_command(film, llo):
    establish(film)
    _sever(film, "video-srv")
    return film.run_coro(llo.group_command("sess-1", "stop")), _TIMED_OUT


def _ask_delayed_request(film, llo):
    establish(film)
    _sever(film, "video-srv")
    vc_id = film.streams[0].vc_id
    reply = film.run_coro(
        llo.delayed_request("sess-1", vc_id, "source", 0.2, 5)
    )
    return reply, _TIMED_OUT


def _ask_source_stats(film, llo):
    """A regulation interval whose source never answers the stats query
    still reports, with zeroed source statistics."""
    agent = establish(film)
    film.run_coro(agent.prime())
    film.run_coro(agent.start(regulate=False), window=1.0)
    vc_id = film.streams[0].vc_id
    recv_vc = film.bed.entities["ws"].recv_vcs[vc_id]
    recv_vc.meter_gate()
    queue = llo.agent_queue("sess-1")
    _sever(film, "video-srv")
    llo.regulate_request("sess-1", vc_id, recv_vc.delivered_seq(), 0, 0.25, 7)
    film.bed.run(3.0)
    [report] = [queue.get_nowait() for _ in range(len(queue))]
    source_stats = (report.app_block_times["source"],
                    report.proto_block_times["source"], report.dropped)
    return source_stats, (0.0, 0.0, 0)


class TestNoPendingLeak:
    @pytest.mark.parametrize("ask", [
        _ask_orch_request, _ask_group_command, _ask_delayed_request,
        _ask_source_stats,
    ], ids=lambda ask: ask.__name__[len("_ask_"):])
    def test_unanswered_request_times_out_and_leaves_nothing(self, film,
                                                             ask):
        llo = film.bed.llos["ws"]
        llo.prime_fill_timeout = 2.0
        llo.app_reply_timeout = 1.0
        result, expected = ask(film, llo)
        assert result == expected
        assert llo._pending == {}
