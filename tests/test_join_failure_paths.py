"""Failure-injection tests for the join machinery.

These exercise the paths churn rarely hits in integration runs: pivots
dying mid-join, repeated restarts, rejected inserts, and redirects with
no usable candidates.
"""

import math

import pytest

from repro.core.joinloop import MAX_ITERATIONS, MAX_RESTARTS
from repro.protocols.base import OverlayAgent, ProtocolRuntime
from repro.protocols.messages import ConnRequest
from repro.sim.engine import Simulator
from repro.sim.network import MatrixUnderlay

from tests.helpers import line_matrix


def build(positions, *, degrees=None, timeout_ms=500.0):
    ul = MatrixUnderlay(line_matrix(positions))
    sim = Simulator()
    env = ProtocolRuntime(sim, ul, source=0, timeout_ms=timeout_ms)
    agents = {}
    for host in range(len(positions)):
        limit = degrees[host] if degrees else 4
        agents[host] = OverlayAgent(host, env, degree_limit=limit)
        env.register(agents[host])
    return sim, env, agents


class TestPivotDeathMidJoin:
    def test_restart_at_source_when_pivot_dies(self):
        # Newcomer descends toward node 1; node 1 dies before answering.
        sim, env, agents = build([0.0, 30.0, 70.0])
        agents[1].start_join()
        sim.run()
        env.mark_dead(1)
        env.tree.depart(1, sim.now)
        agents[2].start_join()
        sim.run()
        assert env.tree.is_reachable(2)
        assert env.tree.parent[2] == 0
        record = [r for r in env.join_records if r.node == 2][-1]
        assert record.succeeded
        # Paid at least one timeout before succeeding.
        assert record.duration >= 0.5

    def test_abort_after_max_restarts(self):
        sim, env, agents = build([0.0, 30.0])
        env.mark_dead(0)  # source gone: nothing can ever answer
        agents[1].start_join()
        sim.run()
        records = [r for r in env.join_records if r.node == 1]
        assert records and not records[0].succeeded
        assert records[0].iterations >= MAX_RESTARTS


class TestInsertRaces:
    def test_insert_with_vanished_children_falls_back_to_attach(self):
        sim, env, agents = build([0.0, 60.0, 30.0])
        agents[1].start_join()  # child at 60
        sim.run()
        # Node 2 (at 30) would insert between 0 and 1.  Simulate the race:
        # node 1 leaves exactly when the insert request is in flight by
        # sending the request manually after its departure.
        agents[1].leave()
        sim.run()
        reply = agents[0]._handle_conn_request(
            2, ConnRequest(kind="insert", adopt=(1,))
        )
        assert reply.accepted  # fell back to a plain attach (free slot)
        assert reply.transferred == ()
        assert env.tree.parent[2] == 0

    def test_insert_rejected_when_full_and_children_gone(self):
        sim, env, agents = build([0.0, 60.0, 30.0, 10.0], degrees={0: 1, 1: 4, 2: 4, 3: 4})
        agents[1].start_join()
        sim.run()
        assert env.tree.parent[1] == 0  # source now full
        agents[2].parent = None
        reply = agents[0]._handle_conn_request(
            2, ConnRequest(kind="insert", adopt=(99,))  # bogus child
        )
        assert not reply.accepted
        assert reply.children  # redirect payload present

    def test_attach_rejected_when_full(self):
        sim, env, agents = build([0.0, 60.0, 30.0], degrees={0: 1, 1: 4, 2: 4})
        agents[1].start_join()
        sim.run()
        reply = agents[0]._handle_conn_request(2, ConnRequest(kind="attach"))
        assert not reply.accepted

    def test_unreachable_peer_refuses_children(self):
        sim, env, agents = build([0.0, 30.0, 70.0])
        agents[1].start_join()
        sim.run()
        agents[2].start_join()
        sim.run()
        # Orphan node 2 (parent 1 departs) — while orphaned it must refuse.
        agents[1].leave()
        reply = agents[2]._handle_conn_request(1, ConnRequest(kind="attach"))
        assert not reply.accepted

    def test_ancestor_attach_refused(self):
        sim, env, agents = build([0.0, 30.0, 70.0])
        agents[1].start_join()
        sim.run()
        agents[2].start_join()
        sim.run()
        assert env.tree.parent[2] == 1
        # Node 1 asking to become a child of its own descendant 2: refused.
        reply = agents[2]._handle_conn_request(1, ConnRequest(kind="attach"))
        assert not reply.accepted


class TestTimeoutsDuringProbes:
    def test_child_probe_timeout_skips_child(self):
        # Source has two children; one dies.  A newcomer's probes must
        # tolerate the dead child and still finish the join.
        sim, env, agents = build([50.0, 80.0, 20.0, 78.0])
        agents[1].start_join()
        sim.run()
        agents[2].start_join()
        sim.run()
        env.mark_dead(1)
        env.tree.depart(1, sim.now)
        agents[3].start_join()
        sim.run()
        assert env.tree.is_reachable(3)

    def test_join_during_leave_notice_in_flight(self):
        sim, env, agents = build([0.0, 30.0, 70.0, 110.0])
        for n in (1, 2, 3):
            agents[n].start_join()
            sim.run()
        # Node 2 leaves; while its LeaveNotice is in flight to node 3,
        # everything must still settle into a valid tree.
        agents[2].leave()
        sim.run()
        assert env.tree.is_reachable(3)
        for node in env.tree.members():
            assert env.is_alive(node)


class TestJoinProcessGuards:
    def test_unknown_kind_rejected(self):
        sim, env, agents = build([0.0, 30.0])
        with pytest.raises(ValueError, match="unknown join kind"):
            agents[1].start_join(kind="teleport")

    def test_iteration_limit_is_finite(self):
        assert MAX_ITERATIONS >= 8
        assert MAX_RESTARTS >= 1

    def test_source_cannot_join_or_leave(self):
        sim, env, agents = build([0.0, 30.0])
        with pytest.raises(ValueError, match="source does not join"):
            agents[0].start_join()
        with pytest.raises(ValueError, match="source cannot leave"):
            agents[0].leave()

    def test_degree_limit_validation(self):
        sim, env, agents = build([0.0, 30.0])
        with pytest.raises(ValueError, match="degree_limit"):
            OverlayAgent(1, env, degree_limit=0)

    @pytest.mark.parametrize(
        "limit",
        [2.5, True, math.nan, math.inf, -1, "4", 4.0],
        ids=["fraction", "bool", "nan", "inf", "negative", "str", "whole-float"],
    )
    def test_degree_limit_must_be_a_count(self, limit):
        """``int()`` used to truncate 2.5 to 2 and read ``True`` as 1; NaN
        and inf failed without naming the field."""
        sim, env, agents = build([0.0, 30.0])
        state = (dict(env.agents), sim.pending, sim.events_scheduled)
        with pytest.raises(ValueError, match="degree_limit"):
            OverlayAgent(1, env, degree_limit=limit)
        assert (dict(env.agents), sim.pending, sim.events_scheduled) == state
        assert env.agents[1] is agents[1]
