"""Instantaneous tree metrics.

All collectors take the ground-truth :class:`TreeRegistry` and the
underlay, and evaluate only the *reachable* part of the tree (orphaned
subtrees carry no data, so they do not stress links or count toward
stretch — matching how the paper measures after its settle period).

Definitions (paper section 3.6.3 / 5.3):

* **stress** — identical copies of a packet crossing the same physical
  link; averaged over the distinct links used (eq. 3.4).  IP multicast
  would score 1 everywhere.
* **stretch** — per node, overlay path delay from the source divided by
  the unicast delay (eq. 3.5).  Unicast scores 1.
* **hopcount** — overlay hops from the source; a shape proxy for the tree.
* **resource usage** — summed latency of the overlay links in use
  (Section 5.3's PlanetLab substitute for stress), plus a normalized form
  (divided by the unicast-star cost, so values < 1 beat per-receiver
  unicast).
* **MST ratio** — tree cost over the cost of the exact MST on the same
  members (Fig. 5.31).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.protocols.tree import TreeRegistry
from repro.protocols.mst import mst_parent_map, tree_cost
from repro.sim.network import Underlay

__all__ = [
    "StressStats",
    "StretchStats",
    "HopcountStats",
    "ResourceUsage",
    "RecoveryTracker",
    "TreeMetrics",
    "collect_tree_metrics",
    "latency_percentile",
    "mst_ratio",
    "overlay_delay_ms",
]


def latency_percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    The SLO reducer for the service runtime's join-to-first-chunk
    latencies (p50/p99): plain sorted-order linear interpolation —
    ``numpy.percentile``'s default method — implemented directly so the
    figure is a pure function of the sample list with no array dtype in
    the loop, which is what lets service metrics JSON be compared byte
    for byte across runs.  Returns ``0.0`` for an empty sample (a run
    that admitted no joins has no latency to report, and the SLO tables
    render that as zero rather than NaN).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return 0.0
    data = sorted(float(v) for v in values)
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] + (data[hi] - data[lo]) * frac


def overlay_delay_ms(tree: TreeRegistry, underlay: Underlay, node: int) -> float:
    """Summed underlay delay of ``node``'s overlay path, child to parent up
    to the source (its stretch's numerator); ``ValueError`` if it has none."""
    path = tree.path_to_source(node)
    return sum(
        underlay.delay_ms(child, parent) for child, parent in zip(path, path[1:])
    )


def _reachable_edges(tree: TreeRegistry) -> list[tuple[int, int]]:
    """(parent, child) edges on paths that reach the source."""
    return [
        (parent, child)
        for parent, child in tree.edges()
        if tree.is_reachable(child)
    ]


@dataclass(frozen=True)
class StressStats:
    """Link stress distribution over the distinct physical links in use."""

    average: float
    maximum: int
    links_used: int
    total_transmissions: int

    @staticmethod
    def empty() -> "StressStats":
        return StressStats(0.0, 0, 0, 0)


@dataclass(frozen=True)
class StretchStats:
    """Per-node stretch distribution (eq. 3.5) over reachable receivers.

    Nodes whose unicast delay to the source is zero are skipped (they
    cannot define a ratio); overlay routing *can* beat the "unicast" RTT
    estimate on PlanetLab-style underlays, so minima below 1 are real
    (the paper observes exactly this in Fig. 5.16).
    """

    average: float
    minimum: float
    maximum: float
    leaf_average: float
    count: int

    @staticmethod
    def empty() -> "StretchStats":
        return StretchStats(0.0, 0.0, 0.0, 0.0, 0)


@dataclass(frozen=True)
class HopcountStats:
    """Overlay-depth distribution."""

    average: float
    maximum: int
    leaf_average: float
    count: int

    @staticmethod
    def empty() -> "HopcountStats":
        return HopcountStats(0.0, 0, 0.0, 0)


@dataclass(frozen=True)
class ResourceUsage:
    """Total latency of overlay links in use (Section 5.3)."""

    total_ms: float
    normalized: float  # total / unicast-star total
    edges: int

    @staticmethod
    def empty() -> "ResourceUsage":
        return ResourceUsage(0.0, 0.0, 0)


@dataclass(frozen=True)
class TreeMetrics:
    """All four instantaneous metrics from one traversal."""

    stress: StressStats
    stretch: StretchStats
    hopcount: HopcountStats
    usage: ResourceUsage


def collect_tree_metrics(
    tree: TreeRegistry, underlay: Underlay, link_usage: Mapping
) -> TreeMetrics:
    """Compute stress, stretch, hopcount, and resource usage in one pass.

    Stress is read off ``link_usage``, the physical-link multiset of the
    reachable tree: a session passes its accountant's maintained
    :attr:`~repro.sim.delivery.DeliveryAccountant.link_usage`, the tests
    the one-shot ``tests/oracles.link_usage``.  The rest comes from a
    single root-down traversal of the reachable tree, which carries depth and
    accumulated overlay delay with each frame, so per-node work is one
    overlay hop (not a ``path_to_source`` walk per metric).  Siblings are
    visited in sorted order, making float accumulation deterministic
    regardless of insertion history.

    ``tests/oracles.py`` states the same answer as four independent loops,
    each re-deriving reachability, depth, or the full root path per node,
    in this traversal's visit order and float association — the tests
    require bit-identical values.
    """
    source = tree.source
    children = tree.children
    # Bound-method hoist: runs once per tree edge per sample on substrates
    # without delay rows, mostly pair-memo hits whose attribute dispatch
    # would otherwise dominate.
    delay_ms = underlay.delay_ms
    # Substrates whose host ids are indices hand out whole delay rows
    # (bit-identical to per-pair delay_ms); others return None and the
    # per-pair calls below are used instead.
    source_row = underlay.delay_row(source)
    # Streaming accumulators (PR 8): running sum/min/max/count instead of
    # per-node lists, so a metrics pass over a million-member tree holds
    # O(links) state, not O(members).  ``sum(list)`` folds left-to-right
    # from 0 exactly like ``acc += x`` in visit order, so every statistic
    # is bit-identical to the historical list-based pass.
    stretch_sum = 0.0
    stretch_min = 0.0
    stretch_max = 0.0
    stretch_count = 0
    leaf_stretch_sum = 0.0
    leaf_stretch_count = 0
    depth_sum = 0
    depth_max = 0
    depth_count = 0
    leaf_depth_sum = 0
    leaf_depth_count = 0
    total_ms = 0.0
    star_ms = 0.0
    edge_count = 0
    # Frames: (node, depth, overlay delay source -> node, delay of the
    # overlay edge parent -> node).  The edge delay is computed once at
    # push time and reused for resource usage at pop time.  Only
    # reachable nodes are ever pushed — the walk starts at the source
    # and descends.
    stack: list[tuple[int, int, float, float]] = [(source, 0, 0.0, 0.0)]
    while stack:
        node, depth, overlay, edge_ms = stack.pop()
        kids = children.get(node)
        if kids:
            child_depth = depth + 1
            row = underlay.delay_row(node)
            if row is None:
                for child in sorted(kids, reverse=True):
                    d = delay_ms(node, child)
                    stack.append((child, child_depth, overlay + d, d))
            else:
                for child in sorted(kids, reverse=True):
                    d = row[child]
                    stack.append((child, child_depth, overlay + d, d))
        if node == source:
            continue
        total_ms += edge_ms
        edge_count += 1
        unicast = source_row[node] if source_row is not None else delay_ms(source, node)
        star_ms += unicast
        depth_sum += depth
        depth_count += 1
        if depth > depth_max:
            depth_max = depth
        is_leaf = not kids
        if is_leaf:
            leaf_depth_sum += depth
            leaf_depth_count += 1
        if unicast > 0:
            ratio = overlay / unicast
            if stretch_count == 0:
                stretch_min = stretch_max = ratio
            else:
                if ratio < stretch_min:
                    stretch_min = ratio
                if ratio > stretch_max:
                    stretch_max = ratio
            stretch_sum += ratio
            stretch_count += 1
            if is_leaf:
                leaf_stretch_sum += ratio
                leaf_stretch_count += 1

    if link_usage:
        transmissions = sum(link_usage.values())
        stress = StressStats(
            average=transmissions / len(link_usage),
            maximum=max(link_usage.values()),
            links_used=len(link_usage),
            total_transmissions=transmissions,
        )
    else:
        stress = StressStats.empty()
    if stretch_count:
        stretch = StretchStats(
            average=stretch_sum / stretch_count,
            minimum=stretch_min,
            maximum=stretch_max,
            leaf_average=(
                leaf_stretch_sum / leaf_stretch_count if leaf_stretch_count else 0.0
            ),
            count=stretch_count,
        )
    else:
        stretch = StretchStats.empty()
    if depth_count:
        hopcount = HopcountStats(
            average=depth_sum / depth_count,
            maximum=depth_max,
            leaf_average=(
                leaf_depth_sum / leaf_depth_count if leaf_depth_count else 0.0
            ),
            count=depth_count,
        )
    else:
        hopcount = HopcountStats.empty()
    if edge_count:
        usage = ResourceUsage(
            total_ms=total_ms,
            normalized=total_ms / star_ms if star_ms > 0 else 0.0,
            edges=edge_count,
        )
    else:
        usage = ResourceUsage.empty()
    return TreeMetrics(stress=stress, stretch=stretch, hopcount=hopcount, usage=usage)


class RecoveryTracker:
    """Time-to-legal-state measurement off the tree listener stream.

    A *damage episode* opens when the first orphan appears in a fully
    healed tree and closes when the last orphan is gone **and** the tree
    is structurally legal.  The elapsed wall time of each episode lands
    in :attr:`recovery_times` — the paper-facing "time to legal state"
    the failover experiments compare.  Episodes still open at session
    end are dropped (the tree never healed), which keeps the statistic
    honest under unrecoverable fault plans.

    Legality is a maintained answer (:meth:`tree_is_legal`), not a full
    scan per episode.  :class:`~repro.protocols.tree.TreeRegistry`
    refuses every structural violation at its public API (self-loops,
    cycles, dangling parents, moving the source), so under API mutation
    only the degree bound can fail.  The tracker keeps the set of
    parents that *may* be over their agent's ``degree_limit``: every
    ``attach``/``reparent`` event adds the parent it names and the node
    it moves (an insert hands the node its adoptees before the node's
    own event fires), every
    :meth:`~repro.protocols.base.ProtocolRuntime.register` adds the node
    that got a new limit, and a query prunes the set lazily.  A registry
    whose ``parent``/``children`` maps were edited by hand is outside
    this argument: validate it with the full-scan oracle
    (:func:`repro.sim.invariants.tree_is_legal`), which the tests hold
    this answer equal to.
    """

    def __init__(self, env) -> None:
        self.env = env
        self.orphans: set[int] = set()
        self.recovery_times: list[float] = []
        self._episode_start: float | None = None
        #: parents that may hold more children than their degree limit
        self._suspects: set[int] = set(env.tree.children)
        env.tree.add_listener(self._on_tree_event)
        env.add_register_listener(self._suspects.add)

    def tree_is_legal(self) -> bool:
        """Whether the registry is structurally legal *now*.

        Equal to :func:`repro.sim.invariants.tree_is_legal` for any tree
        mutated through the registry's API; costs O(parents touched since
        the last call) instead of O(n).
        """
        suspects = self._suspects
        if suspects:
            children = self.env.tree.children
            agents = self.env.agents
            for p in list(suspects):
                kids = children.get(p)
                agent = agents.get(p)
                if kids is None or agent is None or len(kids) <= agent.degree_limit:
                    suspects.discard(p)
        return not suspects

    def _on_tree_event(
        self, kind: str, node: int, parent: int | None, time: float
    ) -> None:
        if kind == "orphan":
            if not self.orphans and self._episode_start is None:
                self._episode_start = time
            self.orphans.add(node)
            return
        if kind != "depart":
            self._suspects.add(parent)
            self._suspects.add(node)
        self.orphans.discard(node)
        if (
            not self.orphans
            and self._episode_start is not None
            and self.tree_is_legal()
        ):
            self.recovery_times.append(time - self._episode_start)
            self._episode_start = None


def mst_ratio(
    tree: TreeRegistry,
    metric: Callable[[int, int], float],
) -> float:
    """Tree cost / exact-MST cost on the same reachable members (Fig 5.31).

    Returns 1.0 for trivial trees (fewer than two members).
    """
    members = tree.attached_nodes()
    if len(members) < 2:
        return 1.0
    overlay_cost = sum(
        metric(p, c) for p, c in _reachable_edges(tree)
    )
    reference = mst_parent_map(members, tree.source, metric)
    ref_cost = tree_cost(reference, metric)
    if ref_cost <= 0:
        return 1.0
    return overlay_cost / ref_cost
