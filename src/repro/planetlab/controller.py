"""The main controller.

Replays a :class:`~repro.planetlab.scenario.Scenario` against a
host-level underlay, playing the role of the paper's Main Controller
(Fig. 5.3/5.4): it sends each node its *connect* / *disconnect* command at
the scripted time and a *terminate* at session end, after which every
node's statistics are "downloaded" into a :class:`NodeReport` — the
emulated counterpart of the paper's per-node result calculator.

The controller is a front end over one
:class:`~repro.sim.session.MulticastSession`, the wiring the NS-2-style
runs use: the scenario's commands call the session's ``join``/``leave``,
and its simulator runs to the terminate time with the invariant checker
armed in ``raise`` mode.

Controller-to-agent commands travel out-of-band (the paper used separate
SSH/control channels), so they do not count toward protocol overhead.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Iterable

import numpy as np

from repro.metrics.collectors import overlay_delay_ms
from repro.planetlab.scenario import Scenario
from repro.sim.network import Underlay
from repro.sim.session import AgentFactory, MulticastSession, SessionConfig
from repro.util.validation import check_count

__all__ = ["MainController", "NodeReport", "EmulationReport", "session_report"]


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
        # SessionConfig's degree spec would read 2.5 as an average degree.
        check_count("degree_limit", degree_limit)
        scenario.validate(underlay.hosts)
        self.scenario = scenario
        end = scenario.terminate_at
        self.session = MulticastSession(
            underlay,
            agent_factory,
            SessionConfig(
                # The scenario says who joins; the one member the session
                # draws for its own procedure is never scheduled.
                n_nodes=1,
                degree=degree_limit,
                source_degree=degree_limit,
                join_phase_s=end,
                total_s=end,
                chunk_rate=chunk_rate,
                timeout_ms=timeout_ms,
                seed=seed,
                source_host=scenario.source,
                measurement_noise_sigma=measurement_noise_sigma,
            ),
        )

    def run(self) -> EmulationReport:
        """Execute the scenario and collect all reports."""
        session = self.session
        for ev in self.scenario.events:
            command = session.join if ev.action == "join" else session.leave
            session.sim.schedule(
                ev.time, partial(command, ev.node), label=f"ctl-{ev.action}"
            )
        end = self.scenario.terminate_at
        session.sim.run_until(end)
        session.checker.verify_all()
        return session_report(session, self.scenario.joined_nodes(), end)


def session_report(
    session: MulticastSession, nodes: Iterable[int], end: float
) -> EmulationReport:
    """Download the result of ``session`` over ``[0, end]``: one
    :class:`NodeReport` per node of ``nodes``, in node order."""
    env = session.env
    tree = env.tree
    underlay = session.underlay
    durations = defaultdict(list)  # (node, "join" | "reconnect") -> seconds
    for r in env.join_records:
        if r.succeeded:
            durations[r.node, r.kind].append(r.duration)
    reports: list[NodeReport] = []
    for node in sorted(nodes):
        stats = session.accountant.node_stats(node, 0.0, end)
        depth = None
        node_stretch = None
        if tree.is_present(node) and tree.is_reachable(node):
            depth = tree.depth(node)
            unicast = underlay.delay_ms(tree.source, node)
            if unicast > 0:
                node_stretch = overlay_delay_ms(tree, underlay, node) / unicast
        reports.append(
            NodeReport(
                node=node,
                startup_times=tuple(durations[node, "join"]),
                reconnection_times=tuple(durations[node, "reconnect"]),
                expected_chunks=stats.expected_chunks,
                received_chunks=stats.received_chunks,
                final_depth=depth,
                final_stretch=node_stretch,
            )
        )
    return EmulationReport(
        nodes=reports,
        control_messages=env.total_control_messages,
        data_messages=session.accountant.data_messages(0.0, end),
        duration_s=end,
    )
