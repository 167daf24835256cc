"""Multi-tree striping (SplitStream's idea, Section 2.4.8).

The dissertation's related-work chapter describes SplitStream: split the
stream into ``k`` stripes, deliver each stripe over its own tree, and a
peer keeps watching (at reduced quality) as long as *any* stripe still
arrives — trading bandwidth for churn resilience.  This module rebuilds
that idea on top of this library's single-tree protocols:

* :class:`StripedSession` runs ``k`` independent sessions (one per
  stripe) over the same underlay with the same membership schedule, each
  peer's total degree budget split across stripes;
* :class:`StripeReport` evaluates the striping claims: per-viewer
  expected stripes received over time, the fraction of viewer-time with
  at least one stripe (continuity), and full quality (all stripes).

Any agent factory works per stripe, so "SplitStream-over-VDM" and
"SplitStream-over-HMTP" are both expressible.  Interior-node
disjointness (SplitStream proper pushes each peer to be interior in only
one tree) is approximated by rotating which stripe receives the peer's
spare degree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial


from repro.sim.network import Underlay
from repro.sim.session import (
    AgentFactory,
    MulticastSession,
    SessionConfig,
    SessionResult,
    draw_degree,
)
from repro.util.rngtools import spawn_rng
from repro.util.validation import check_positive

__all__ = ["StripedSession", "StripeReport"]


def _split_degree(total: int, stripes: int, favored: int) -> list[int]:
    """Split a node's total child budget across stripes, >= 1 each where
    possible, remainder to the favored stripe (the interior-disjointness
    rotation)."""
    base = max(1, total // stripes)
    degrees = [base] * stripes
    spare = max(0, total - base * stripes)
    degrees[favored % stripes] += spare
    return degrees


@dataclass
class StripeReport:
    """Resilience metrics aggregated across stripe sessions."""

    results: list[SessionResult]
    chunk_rate: float

    @property
    def stripes(self) -> int:
        return len(self.results)

    def viewer_stripe_availability(self, w0: float, w1: float) -> dict[int, float]:
        """Per viewer: mean number of stripes arriving during the window,
        normalized by the stripe count (1.0 = full quality)."""
        per_node: dict[int, float] = {}
        counts: dict[int, int] = {}
        for result in self.results:
            acct = result.accountant
            for node in acct.tracked_nodes():
                stats = acct.node_stats(node, w0, w1)
                if stats.expected_chunks <= 0:
                    continue
                frac = stats.received_chunks / stats.expected_chunks
                per_node[node] = per_node.get(node, 0.0) + frac
                counts[node] = counts.get(node, 0) + 1
        return {
            node: per_node[node] / self.stripes for node in per_node
        }

    def continuity(self, w0: float, w1: float) -> float:
        """Fraction of viewer-time with >= 1 stripe arriving (exact).

        A viewer is 'dark' only when *every* stripe tree has them
        disconnected simultaneously — the event SplitStream makes rare.
        Computed by interval union, so even millisecond outages count.
        """

        def clip(iv: tuple[float, float]) -> tuple[float, float] | None:
            lo, hi = max(iv[0], w0), min(iv[1], w1)
            return (lo, hi) if hi > lo else None

        def union_length(intervals: list[tuple[float, float]]) -> float:
            merged: list[tuple[float, float]] = []
            for lo, hi in sorted(intervals):
                if merged and lo <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
                else:
                    merged.append((lo, hi))
            return sum(hi - lo for lo, hi in merged)

        total_time = 0.0
        covered_time = 0.0
        nodes: set[int] = set()
        for result in self.results:
            nodes.update(result.accountant.tracked_nodes())
        for node in nodes:
            lifetime: list[tuple[float, float]] = []
            reception: list[tuple[float, float]] = []
            for result in self.results:
                acct = result.accountant
                lifetime.extend(
                    c for iv in acct.lifetime_intervals(node, w1)
                    if (c := clip(iv)) is not None
                )
                reception.extend(
                    c for s0, s1, _f in acct.reception_segments(node, w1)
                    if (c := clip((s0, s1))) is not None
                )
            total_time += union_length(lifetime)
            covered_time += union_length(reception)
        return covered_time / total_time if total_time > 0 else 0.0

    def full_quality(self, w0: float, w1: float) -> float:
        """Aggregate fraction of expected chunks received across all
        stripes and viewers (1.0 = every stripe fully delivered).

        Time-weighted like :meth:`continuity`, so ``full_quality <=
        continuity`` holds exactly: a chunk can only arrive while at
        least one stripe is being received.
        """
        expected = 0.0
        received = 0.0
        for result in self.results:
            acct = result.accountant
            for node in acct.tracked_nodes():
                stats = acct.node_stats(node, w0, w1)
                expected += stats.expected_chunks
                received += stats.received_chunks
        return received / expected if expected > 0 else 0.0


class StripedSession:
    """Run ``k`` stripe trees with a shared membership schedule."""

    def __init__(
        self,
        underlay: Underlay,
        agent_factory: AgentFactory,
        config: SessionConfig,
        *,
        stripes: int = 4,
        metric_factory=None,
    ) -> None:
        check_positive("stripes", stripes)
        if stripes < 1:
            raise ValueError("stripes must be >= 1")
        self.underlay = underlay
        self.agent_factory = agent_factory
        self.config = config
        self.stripes = int(stripes)
        self.metric_factory = metric_factory

    def run(self) -> StripeReport:
        """Run all stripe sessions and aggregate.

        Stripe ``i`` streams at ``chunk_rate / stripes`` and sees the
        same join/leave schedule (same membership seed); only the degree
        split and the per-stripe protocol randomness differ.
        """
        results: list[SessionResult] = []
        base = self.config
        total_degree_spec = base.degree

        for stripe in range(self.stripes):
            def stripe_degree(rng, _stripe=stripe):
                total = draw_degree(total_degree_spec, rng)
                return _split_degree(total, self.stripes, _stripe)[_stripe]

            stripe_config = replace(
                base,
                degree=stripe_degree,
                chunk_rate=base.chunk_rate / self.stripes,
                # identical membership schedule, stripe-specific protocol
                # randomness comes from the per-node agent rngs instead.
                seed=base.seed,
            )
            session = MulticastSession(
                self.underlay,
                self._stripe_factory(stripe),
                stripe_config,
                metric_factory=self.metric_factory,
            )
            results.append(session.run())
        return StripeReport(results=results, chunk_rate=base.chunk_rate)

    def _stripe_factory(self, stripe: int) -> AgentFactory:
        base_factory = self.agent_factory

        def make(node_id, env, *, degree_limit, rng=None):
            stripe_rng = partial(
                spawn_rng, self.config.seed, "stripe", stripe, node_id
            )
            return base_factory(
                node_id, env, degree_limit=degree_limit, rng=stripe_rng
            )

        return make
