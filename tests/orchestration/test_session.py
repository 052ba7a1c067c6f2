"""Orchestration session establishment and release (Table 4)."""


from repro.orchestration.llo import (
    REASON_NO_SUCH_VC,
    REASON_NO_TABLE_SPACE,
)


class TestSessionEstablishment:
    def test_successful_establishment(self, film):
        agent = film.agent()
        reply = film.run_coro(agent.establish())
        assert reply.accept
        assert agent.established
        # Every involved node tracks the session.
        for node in ("video-srv", "audio-srv", "ws"):
            assert "sess-1" in film.bed.llos[node].sessions

    def test_rejection_for_unknown_vc(self, film):
        from repro.orchestration.hlo_agent import HLOAgent, StreamSpec

        specs = [StreamSpec("ghost-vc", "video-srv", "ws", 25.0)]
        agent = HLOAgent(film.sim, film.bed.llos["ws"], "sess-x", specs)
        reply = film.run_coro(agent.establish())
        assert not reply.accept
        assert reply.reason == REASON_NO_SUCH_VC
        # Rejected sessions leave no residue anywhere.
        for node in ("video-srv", "audio-srv", "ws"):
            assert "sess-x" not in film.bed.llos[node].sessions

    def test_rejection_when_no_table_space(self, film):
        from repro.orchestration.hlo_agent import HLOAgent

        film.bed.llos["ws"].max_sessions = 0
        agent = film.agent()
        reply = film.run_coro(agent.establish())
        assert not reply.accept
        assert reply.reason == REASON_NO_TABLE_SPACE

    def test_remote_table_space_exhaustion_also_rejects(self, film):
        film.bed.llos["video-srv"].max_sessions = 0
        agent = film.agent()
        reply = film.run_coro(agent.establish())
        assert not reply.accept
        assert reply.reason == REASON_NO_TABLE_SPACE
        assert "sess-1" not in film.bed.llos["audio-srv"].sessions

    def test_release_clears_all_nodes(self, film):
        agent = film.agent()
        film.run_coro(agent.establish())
        agent.release()
        film.bed.run(1.0)
        for node in ("video-srv", "audio-srv", "ws"):
            assert "sess-1" not in film.bed.llos[node].sessions
        assert not agent.established

    def test_two_sessions_coexist(self, film):
        from repro.orchestration.hlo_agent import HLOAgent

        agent1 = film.agent()
        film.run_coro(agent1.establish())
        agent2 = HLOAgent(
            film.sim, film.bed.llos["ws"], "sess-2", film.specs
        )
        reply = film.run_coro(agent2.establish())
        assert reply.accept
        assert len(film.bed.llos["ws"].sessions) == 2


class TestReleaseLeavesNothingBehind:
    """A released session ends its agent's processes and queue."""

    @staticmethod
    def _live_processes():
        import gc

        from repro.sim.scheduler import Process

        gc.collect()
        return sum(1 for obj in gc.get_objects()
                   if isinstance(obj, Process) and obj.alive)

    @staticmethod
    def _until_done(film, gen):
        proc = film.sim.spawn(gen)
        for _ in range(300):
            if proc.finished.is_set:
                return proc.finished.value
            film.bed.run(0.1)
        raise AssertionError("coroutine did not complete")

    def test_session_churn_keeps_live_processes_flat(self, film):
        from repro.orchestration.hlo_agent import HLOAgent
        from repro.orchestration.policy import OrchestrationPolicy

        llo = film.bed.llos["ws"]
        live = []
        for cycle in range(6):
            agent = HLOAgent(film.sim, llo, f"churn-{cycle}", film.specs,
                             OrchestrationPolicy(interval_length=0.2))
            for step in (agent.establish, agent.prime, agent.start):
                assert self._until_done(film, step()).accept
            film.bed.run(1.0)
            self._until_done(film, agent.stop())
            agent.release()
            film.bed.run(0.5)
            assert f"churn-{cycle}" not in llo._agent_queues
            live.append(self._live_processes())
        assert live == [live[0]] * 6
