"""The main controller.

Replays a :class:`~repro.planetlab.scenario.Scenario` against a
host-level underlay, playing the role of the paper's Main Controller
(Fig. 5.3/5.4): it sends each node its *connect* / *disconnect* command at
the scripted time and a *terminate* at session end, after which every
node's statistics are "downloaded" into a :class:`NodeReport` — the
emulated counterpart of the paper's per-node result calculator.

Controller-to-agent commands travel out-of-band (the paper used separate
SSH/control channels), so they do not count toward protocol overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.planetlab.scenario import Scenario
from repro.protocols.base import OverlayAgent, ProtocolRuntime
from repro.sim.delivery import DeliveryAccountant
from repro.sim.engine import Simulator
from repro.sim.network import Underlay
from repro.util.rngtools import check_seed, spawn_rng
from repro.util.validation import check_count

__all__ = ["MainController", "NodeReport", "EmulationReport"]

AgentFactory = Callable[..., OverlayAgent]


@dataclass(frozen=True)
class NodeReport:
    """Per-node session statistics (the paper's result-calculator output)."""

    node: int
    startup_times: tuple[float, ...]
    reconnection_times: tuple[float, ...]
    expected_chunks: float
    received_chunks: float
    final_depth: int | None
    final_stretch: float | None

    @property
    def loss_rate(self) -> float:
        if self.expected_chunks <= 0:
            return 0.0
        return max(0.0, 1.0 - self.received_chunks / self.expected_chunks)


@dataclass
class EmulationReport:
    """Aggregate session results plus the per-node breakdown."""

    nodes: list[NodeReport]
    control_messages: int
    data_messages: float
    duration_s: float

    @property
    def mean_startup(self) -> float:
        times = [t for n in self.nodes for t in n.startup_times]
        return float(np.mean(times)) if times else 0.0

    @property
    def mean_reconnection(self) -> float:
        times = [t for n in self.nodes for t in n.reconnection_times]
        return float(np.mean(times)) if times else 0.0

    @property
    def mean_loss(self) -> float:
        rates = [n.loss_rate for n in self.nodes if n.expected_chunks > 0]
        return float(np.mean(rates)) if rates else 0.0

    @property
    def overhead(self) -> float:
        if self.data_messages <= 0:
            return 0.0
        return self.control_messages / self.data_messages


class MainController:
    """Drives one scenario to completion and collects the reports."""

    def __init__(
        self,
        underlay: Underlay,
        scenario: Scenario,
        agent_factory: AgentFactory,
        *,
        degree_limit: int = 4,
        chunk_rate: float = 10.0,
        timeout_ms: float = 3000.0,
        measurement_noise_sigma: float = 0.1,
        seed: int = 0,
    ) -> None:
        check_count("degree_limit", degree_limit)
        check_seed(seed)
        scenario.validate(underlay.hosts)
        self.underlay = underlay
        self.scenario = scenario
        self.agent_factory = agent_factory
        self.degree_limit = degree_limit
        self.seed = seed
        self.sim = Simulator()
        self.env = ProtocolRuntime(
            self.sim,
            underlay,
            scenario.source,
            timeout_ms=timeout_ms,
            measurement_noise_sigma=measurement_noise_sigma,
            noise_rng=spawn_rng(seed, "noise"),
        )
        self.accountant = DeliveryAccountant(
            self.env.tree, underlay, chunk_rate=chunk_rate
        )
        self._register(scenario.source)

    def _register(self, node: int) -> None:
        agent = self.agent_factory(
            node,
            self.env,
            degree_limit=self.degree_limit,
            rng=partial(spawn_rng, self.seed, "agent", node),
        )
        self.env.register(agent)
        return agent

    def _connect(self, node: int) -> None:
        if self.env.is_alive(node):
            return
        agent = self._register(node)
        agent.start_join()
        period = agent.protocol.refine_period_s
        if period is not None:
            agent.start_refinement(
                period, jitter_rng=spawn_rng(self.seed, "refine", node)
            )

    def _disconnect(self, node: int) -> None:
        agent = self.env.agents.get(node)
        if agent is not None and self.env.is_alive(node):
            agent.leave()

    def run(self) -> EmulationReport:
        """Execute the scenario and collect all reports."""
        for ev in self.scenario.events:
            action = self._connect if ev.action == "join" else self._disconnect
            self.sim.schedule(
                ev.time, lambda n=ev.node, a=action: a(n), label=f"ctl-{ev.action}"
            )
        end = self.scenario.terminate_at
        self.sim.run_until(end)

        tree = self.env.tree
        reports: list[NodeReport] = []
        for node in sorted(self.scenario.joined_nodes()):
            stats = self.accountant.node_stats(node, 0.0, end)
            startup = tuple(
                r.duration
                for r in self.env.join_records
                if r.node == node and r.kind == "join" and r.succeeded
            )
            recon = tuple(
                r.duration
                for r in self.env.join_records
                if r.node == node and r.kind == "reconnect" and r.succeeded
            )
            depth = None
            node_stretch = None
            if tree.is_present(node) and tree.is_reachable(node):
                depth = tree.depth(node)
                unicast = self.underlay.delay_ms(tree.source, node)
                if unicast > 0:
                    path = tree.path_to_source(node)
                    overlay = sum(
                        self.underlay.delay_ms(a, b)
                        for a, b in zip(path[:-1], path[1:])
                    )
                    node_stretch = overlay / unicast
            reports.append(
                NodeReport(
                    node=node,
                    startup_times=startup,
                    reconnection_times=recon,
                    expected_chunks=stats.expected_chunks,
                    received_chunks=stats.received_chunks,
                    final_depth=depth,
                    final_stretch=node_stretch,
                )
            )
        return EmulationReport(
            nodes=reports,
            control_messages=self.env.total_control_messages,
            data_messages=self.accountant.data_messages(0.0, end),
            duration_s=end,
        )
