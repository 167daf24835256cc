"""Agent factories — the bridge between the protocol table and sessions.

A :class:`~repro.sim.session.MulticastSession` is protocol-agnostic; it
creates one agent per joining host through a factory with the uniform
signature ``factory(node_id, env, *, degree_limit, rng)``.  The helpers
here build such factories for every protocol in the library, with the
paper's variants as one-liners:

>>> from repro.factories import vdm, vdm_r, vdm_loss, hmtp
>>> make_vdm = vdm()                  # plain VDM (no refinement)
>>> make_vdm_r = vdm_r(period_s=300)  # VDM-R, 5-minute refinement
>>> make_hmtp = hmtp()                # HMTP with its 30 s refinement

The loss-based tree of Chapter 4 (VDM-L) is a *metric* change, not an
agent change — pass ``metric_factory=loss_metric()`` to the session and
keep the plain VDM factory.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.core.distance import CompositeDistance, DelayDistance, LossDistance
from repro.core.vdm import VDMConfig
from repro.protocols.base import OverlayAgent
from repro.protocols.btp import BTPConfig
from repro.protocols.hmtp import HMTPConfig
from repro.protocols.table import ProtocolSpec, protocol_spec
from repro.sim.network import Underlay

__all__ = [
    "vdm",
    "vdm_r",
    "vdm_loss",
    "hmtp",
    "btp",
    "mst",
    "agent_factory",
    "delay_metric",
    "loss_metric",
    "composite_metric",
]

AgentFactory = Callable[..., OverlayAgent]


def agent_factory(row: ProtocolSpec) -> AgentFactory:
    """The factory of agents running the protocol table's ``row``."""

    def make(node_id: int, env, *, degree_limit: int, rng=None) -> OverlayAgent:
        return OverlayAgent(
            node_id, env, degree_limit=degree_limit, protocol=row, rng=rng
        )

    return make


def vdm(config: VDMConfig | None = None) -> AgentFactory:
    """Factory for plain VDM agents."""
    return agent_factory(protocol_spec("vdm", config))


def vdm_r(period_s: float = 180.0, config: VDMConfig | None = None) -> AgentFactory:
    """Factory for VDM-R: VDM with periodic refinement armed.

    The paper uses a 3-minute period in simulation (Section 3.4) and a
    5-minute period on PlanetLab (Section 5.4.5).
    """
    return vdm(dataclasses.replace(config or VDMConfig(), refine_period_s=period_s))


def vdm_loss(config: VDMConfig | None = None) -> AgentFactory:
    """Alias of :func:`vdm` kept for symmetry: VDM-L = VDM + loss metric.

    Combine with ``metric_factory=loss_metric()`` on the session.
    """
    return vdm(config)


def hmtp(config: HMTPConfig | None = None) -> AgentFactory:
    """Factory for HMTP agents (periodic refinement armed by default)."""
    return agent_factory(protocol_spec("hmtp", config))


def btp(config: BTPConfig | None = None) -> AgentFactory:
    """Factory for BTP agents."""
    return agent_factory(protocol_spec("btp", config))


def mst() -> AgentFactory:
    """Factory for the centralized greedy-MST reference agents."""
    return agent_factory(protocol_spec("mst"))


# -- metric factories (session's ``metric_factory`` argument) ----------------


def delay_metric() -> Callable[[Underlay], DelayDistance]:
    """VDM-D / HMTP metric: RTT."""
    return lambda underlay: DelayDistance(underlay)


def loss_metric(**kwargs) -> Callable[[Underlay], LossDistance]:
    """VDM-L metric: additive loss distance (Chapter 4)."""
    return lambda underlay: LossDistance(underlay, **kwargs)


def composite_metric(alpha: float = 0.5, **kwargs) -> Callable[[Underlay], CompositeDistance]:
    """Weighted delay/loss blend (generalization extension)."""
    return lambda underlay: CompositeDistance(underlay, alpha=alpha, **kwargs)
