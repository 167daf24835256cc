"""Behavioral tests for the HMTP and BTP baselines."""

import numpy as np
import pytest

from repro.factories import btp, hmtp
from repro.protocols.base import ProtocolRuntime
from repro.protocols.btp import BTPConfig
from repro.protocols.hmtp import HMTPConfig
from repro.sim.engine import Simulator
from repro.sim.network import MatrixUnderlay

from tests.helpers import line_matrix


def build(positions, protocol, *, degree=4, degrees=None, config=None, seed=0):
    ul = MatrixUnderlay(line_matrix(positions))
    sim = Simulator()
    env = ProtocolRuntime(sim, ul, source=0)
    agents = {}
    for host in range(len(positions)):
        limit = degrees[host] if degrees else degree
        agents[host] = protocol(config)(
            host, env, degree_limit=limit, rng=np.random.default_rng(seed + host)
        )
        env.register(agents[host])
    return sim, env, agents


class TestHMTPJoin:
    def test_attaches_to_closest_via_descent(self):
        # Source 0 -> child 30 -> grandchild 50.  Newcomer at 55 must
        # greedily descend to the grandchild.
        sim, env, agents = build([0.0, 30.0, 50.0, 55.0], hmtp)
        for n in (1, 2, 3):
            agents[n].start_join()
            sim.run()
        assert env.tree.parent[3] == 2

    def test_stops_when_pivot_closest(self):
        # Children exist but are farther than the source itself.
        sim, env, agents = build([50.0, 100.0, 45.0], hmtp)
        agents[1].start_join()
        sim.run()
        agents[2].start_join()
        sim.run()
        assert env.tree.parent[2] == 0

    def test_u_turn_rule_attaches_to_pivot(self):
        """Scenario II (Fig 3.22): newcomer between pivot and child."""
        # Source 0, child at 100; newcomer at 40: child is closest...
        # no - d(N,child)=60 > d(N,S)=40, so plain descent already stops.
        # Stage the real U-turn: child at 70, newcomer at 40:
        # d(N,C)=30 < d(N,S)=40 would descend, but d(S,C)=70 > d(N,S)=40
        # marks N as between -> attach to the source instead.
        sim, env, agents = build([0.0, 70.0, 40.0], hmtp)
        agents[1].start_join()
        sim.run()
        agents[2].start_join()
        sim.run()
        assert env.tree.parent[2] == 0

    def test_full_node_redirects(self):
        sim, env, agents = build(
            [0.0, 10.0, 12.0, 14.0], hmtp, degrees={0: 1, 1: 4, 2: 4, 3: 4}
        )
        for n in (1, 2, 3):
            agents[n].start_join()
            sim.run()
        # Source full after node 1; everyone else must be under node 1.
        assert env.tree.parent[1] == 0
        assert env.tree.is_reachable(2)
        assert env.tree.is_reachable(3)
        assert len(env.tree.children[0]) == 1


class TestHMTPRefinement:
    def test_one_level_switch_to_closer_peer(self):
        # Bad tree: node 3 (at 32) under the source (at 0) while node 1
        # (at 30) is much closer.  Root-path refinement from the source
        # probes the source's children and finds node 1.
        sim, env, agents = build([0.0, 30.0, 90.0, 32.0], hmtp)
        for n in (1, 2):
            agents[n].start_join()
            sim.run()
        agents[3].parent = 0
        agents[0].children[3] = env.virtual_distance(0, 3)
        env.tree.attach(3, 0, sim.now)
        agents[3].start_refinement(10.0)
        sim.run_until(40.0)
        assert env.tree.parent[3] == 1

    def test_no_switch_when_parent_closer(self):
        sim, env, agents = build([0.0, 5.0, 90.0], hmtp)
        agents[1].start_join()
        sim.run()
        agents[2].start_join()
        sim.run()
        before = env.tree.parent[1]
        agents[1].start_refinement(10.0)
        sim.run_until(45.0)
        assert env.tree.parent[1] == before

    def test_auto_refine_period_from_config(self):
        sim, env, agents = build(
            [0.0, 10.0], hmtp, config=HMTPConfig(refine_period_s=77.0)
        )
        assert agents[1].protocol.refine_period_s == 77.0

    def test_reconnects_at_source(self):
        sim, env, agents = build([0.0, 30.0, 60.0, 90.0], hmtp)
        for n in (1, 2, 3):
            agents[n].start_join()
            sim.run()
        assert env.tree.path_to_source(3) == [3, 2, 1, 0]
        agents[2].leave()
        sim.run()
        assert env.tree.is_reachable(3)
        recon = [r for r in env.join_records if r.kind == "reconnect"]
        assert recon and recon[0].succeeded


class TestBTP:
    def test_joins_at_root(self):
        sim, env, agents = build([0.0, 50.0, 80.0], btp)
        for n in (1, 2):
            agents[n].start_join()
            sim.run()
        assert env.tree.parent[1] == 0
        assert env.tree.parent[2] == 0

    def test_full_root_redirects_to_closest_free_child(self):
        sim, env, agents = build(
            [0.0, 50.0, 80.0], btp, degrees={0: 1, 1: 4, 2: 4}
        )
        for n in (1, 2):
            agents[n].start_join()
            sim.run()
        assert env.tree.parent[2] == 1

    def test_sibling_switch(self):
        # Siblings at 50 and 55 under root 0: 55 should re-hang below 50.
        sim, env, agents = build([0.0, 50.0, 55.0], btp)
        for n in (1, 2):
            agents[n].start_join()
            sim.run()
        assert env.tree.parent[2] == 0
        agents[2].start_refinement(10.0)
        sim.run_until(25.0)
        assert env.tree.parent[2] == 1

    def test_no_switch_when_root_closest(self):
        # Sibling on the far side of the root: root stays the best parent.
        sim, env, agents = build([0.0, -50.0, 30.0], btp)
        for n in (1, 2):
            agents[n].start_join()
            sim.run()
        agents[2].start_refinement(10.0)
        sim.run_until(25.0)
        assert env.tree.parent[2] == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BTPConfig(refine_period_s=0)
        with pytest.raises(ValueError):
            HMTPConfig(refine_period_s=-1)
