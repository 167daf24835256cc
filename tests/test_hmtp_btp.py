"""Behavioral tests for the HMTP and BTP baselines."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.factories import btp, hmtp
from repro.protocols.base import ProtocolRuntime
from repro.protocols.btp import BTPConfig
from repro.protocols.hmtp import HMTPConfig, root_path_member
from repro.protocols.tree import TreeRegistry
from repro.sim.engine import Simulator
from repro.sim.network import MatrixUnderlay

from tests import oracles
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


@st.composite
def _trees(draw):
    """A registry over nodes 1..n under source 0, then some departures
    (orphaning their subtrees) and some severed uplinks."""
    n = draw(st.integers(0, 14))
    tree = TreeRegistry(0)
    for node in range(1, n + 1):
        tree.attach(node, draw(st.integers(0, node - 1)), 0.0)
    if n:
        some = st.lists(st.integers(1, n), unique=True, max_size=3)
        for node in draw(some):
            tree.depart(node, 1.0)
        for node in draw(some):
            if tree.parent.get(node) is not None:
                tree.sever(node, 2.0)
    return tree, n


class TestRootPathMember:
    """The walk up ``tree.parent`` picks what indexing the whole root path
    picked (``tests/oracles.py``), from the same draws."""

    @given(drawn=_trees(), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_path_list_pick(self, drawn, seed):
        tree, n = drawn
        # every node: attached, orphaned, departed, the source, and absent
        for node in range(0, n + 3):
            rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            agent = SimpleNamespace(
                env=SimpleNamespace(tree=tree, source=0), node_id=node, rng=rng
            )
            got = root_path_member(agent)
            assert got == oracles.root_path_member(tree, node, ref_rng)
            assert type(got) is int
            # the two consumed the same draws
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            if not tree.is_reachable(node):
                assert got == 0

    def test_unreachable_nodes_get_the_source_without_a_draw(self):
        tree = TreeRegistry(0)
        tree.attach(1, 0, 0.0)
        tree.attach(2, 1, 0.0)
        tree.depart(1, 1.0)  # 2 is an orphan; 1 and 9 are absent
        for node in (0, 1, 2, 9):
            rng = np.random.default_rng(3)
            state = rng.bit_generator.state
            agent = SimpleNamespace(
                env=SimpleNamespace(tree=tree, source=0), node_id=node, rng=rng
            )
            assert root_path_member(agent) == 0
            assert rng.bit_generator.state == state
