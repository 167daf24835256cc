"""Tests for the agent and metric factories."""

import numpy as np
import pytest

from repro.core.distance import CompositeDistance, DelayDistance, LossDistance
from repro.core.vdm import VDMConfig
from repro.factories import (
    btp,
    composite_metric,
    delay_metric,
    hmtp,
    loss_metric,
    vdm,
    vdm_loss,
    vdm_r,
)
from repro.protocols.base import OverlayAgent, ProtocolRuntime
from repro.protocols.hmtp import HMTPConfig
from repro.sim.engine import Simulator
from repro.sim.network import MatrixUnderlay

from tests.helpers import line_matrix


@pytest.fixture
def env():
    ul = MatrixUnderlay(line_matrix([0.0, 10.0]))
    return ProtocolRuntime(Simulator(), ul, source=0)


class TestAgentFactories:
    def test_vdm(self, env):
        agent = vdm()(1, env, degree_limit=3, rng=np.random.default_rng(0))
        assert isinstance(agent, OverlayAgent) and agent.protocol.name == "vdm"
        assert agent.degree_limit == 3
        assert agent.protocol.refine_period_s is None

    def test_vdm_r_sets_period(self, env):
        agent = vdm_r(period_s=120.0)(1, env, degree_limit=3, rng=None)
        assert agent.protocol.refine_period_s == 120.0

    def test_vdm_r_preserves_other_config(self, env):
        base = VDMConfig(case_priority="case2", tie_tolerance=0.1)
        agent = vdm_r(period_s=60.0, config=base)(1, env, degree_limit=3, rng=None)
        assert agent.protocol.config.case_priority == "case2"
        assert agent.protocol.config.tie_tolerance == 0.1
        assert agent.protocol.config.refine_period_s == 60.0

    def test_vdm_loss_is_vdm(self, env):
        agent = vdm_loss()(1, env, degree_limit=2, rng=None)
        assert agent.protocol == vdm()(1, env, degree_limit=2).protocol

    def test_hmtp(self, env):
        agent = hmtp(HMTPConfig(refine_period_s=45.0))(
            1, env, degree_limit=4, rng=np.random.default_rng(1)
        )
        assert agent.protocol.name == "hmtp"
        assert agent.protocol.refine_period_s == 45.0

    def test_btp(self, env):
        agent = btp()(1, env, degree_limit=4, rng=None)
        assert isinstance(agent, OverlayAgent) and agent.protocol.name == "btp"


class TestMetricFactories:
    def make_underlay(self):
        return MatrixUnderlay(line_matrix([0.0, 10.0, 20.0]))

    def test_delay_metric(self):
        m = delay_metric()(self.make_underlay())
        assert isinstance(m, DelayDistance)
        assert m(0, 1) == pytest.approx(10.0)

    def test_loss_metric_kwargs(self):
        m = loss_metric(log_scale=False)(self.make_underlay())
        assert isinstance(m, LossDistance)
        assert m.log_scale is False

    def test_composite_metric(self):
        m = composite_metric(alpha=0.7)(self.make_underlay())
        assert isinstance(m, CompositeDistance)
        assert m.alpha == 0.7
