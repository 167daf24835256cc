"""Tests for the foster-child quick start (HMTP's concept, Section 2.4.7)."""

import numpy as np
import pytest

from repro.core.vdm import VDMConfig
from repro.factories import hmtp, vdm
from repro.protocols.base import ProtocolRuntime
from repro.protocols.hmtp import HMTPConfig
from repro.sim.engine import Simulator
from repro.sim.network import MatrixUnderlay
from repro.sim.session import MulticastSession, SessionConfig

from tests.helpers import line_matrix


def build(positions, *, foster=True, degrees=None):
    ul = MatrixUnderlay(line_matrix(positions))
    sim = Simulator()
    env = ProtocolRuntime(sim, ul, source=0)
    agents = {}
    config = VDMConfig(foster_child=foster)
    for host in range(len(positions)):
        limit = degrees[host] if degrees else 4
        agents[host] = vdm(config)(host, env, degree_limit=limit)
        env.register(agents[host])
    return sim, env, agents


class TestFosterQuickStart:
    def test_first_attach_is_at_source(self):
        # A far-away newcomer would normally descend a chain; with foster
        # it grabs the source first.
        sim, env, agents = build([0.0, 30.0, 70.0])
        agents[1].start_join()
        sim.run()
        agents[2].start_join()
        # Run just past the foster attach (RTT to source = 70 ms).
        sim.run_until(0.1)
        assert env.tree.parent[2] == 0  # fostered at the root
        sim.run()
        assert env.tree.parent[2] == 1  # switched to the ideal parent

    def test_startup_time_is_the_quick_attach(self):
        sim, env, agents = build([0.0, 30.0, 70.0])
        agents[1].start_join()
        sim.run()
        agents[2].start_join()
        sim.run()
        joins = [r for r in env.join_records if r.node == 2 and r.kind == "join"]
        assert len(joins) == 1
        # Foster attach completes in ~one RTT (0.07 s), far below the
        # multi-iteration join that follows.
        assert joins[0].duration == pytest.approx(0.07, abs=0.01)
        switches = [r for r in env.join_records if r.node == 2 and r.kind == "switch"]
        assert switches and switches[0].succeeded

    def test_full_source_falls_back_to_regular_join(self):
        sim, env, agents = build(
            [0.0, 30.0, 70.0], degrees={0: 1, 1: 4, 2: 4}
        )
        agents[1].start_join()
        sim.run()
        agents[2].start_join()
        sim.run()
        assert env.tree.is_reachable(2)
        assert env.tree.parent[2] == 1  # regular join found node 1

    def test_disabled_by_default(self):
        sim, env, agents = build([0.0, 30.0, 70.0], foster=False)
        agents[2].start_join()
        sim.run_until(0.05)
        # No instant foster attach: still mid-join.
        assert env.tree.parent.get(2) is None

    def test_hmtp_foster(self):
        ul = MatrixUnderlay(line_matrix([0.0, 30.0, 50.0, 55.0]))
        sim = Simulator()
        env = ProtocolRuntime(sim, ul, source=0)
        make = hmtp(HMTPConfig(foster_child=True))
        agents = {
            h: make(h, env, degree_limit=4, rng=np.random.default_rng(h))
            for h in range(4)
        }
        for a in agents.values():
            env.register(a)
        for n in (1, 2):
            agents[n].start_join()
            sim.run()
        agents[3].start_join()
        sim.run()
        # Ends at the closest member (the full greedy descent), not the root.
        assert env.tree.parent[3] == 2

    def test_foster_improves_session_startup(self):
        rng = np.random.default_rng(2)
        positions = np.sort(rng.uniform(0, 500, size=30))
        ul = MatrixUnderlay(line_matrix(list(positions)))
        base_cfg = dict(
            n_nodes=20,
            degree=(2, 4),
            join_phase_s=300.0,
            total_s=800.0,
            churn_rate=0.0,
            seed=9,
        )
        plain = MulticastSession(
            ul, vdm(), SessionConfig(**base_cfg)
        ).run()
        fostered = MulticastSession(
            ul, vdm(VDMConfig(foster_child=True)), SessionConfig(**base_cfg)
        ).run()
        assert np.mean(fostered.startup_times()) < np.mean(plain.startup_times())
        # Foster must not break the final tree.
        assert fostered.final.n_reachable == plain.final.n_reachable
