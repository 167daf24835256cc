"""Static-join tree construction for the Chapter 7 scale study.

The discrete-event engine (:mod:`repro.sim.engine`) replays every control
message of a session — the right tool at paper scale (hundreds of
members), hopeless at 10k-1M.  This module charts how the *steady-state
trees* of VDM and its comparators scale instead: members join one at a
time (ids ascending, host 0 is the source) and each join iteration
gathers its distances straight from the underlay and asks the same join
kernel the agents ask (:mod:`repro.core.join`: the Fig. 3.6 walk for
VDM, HMTP's greedy closest-child descent with the Scenario II U-turn
check, and the full-node redirect rule BTP descends by) — with no
churn, no refinement, no probe noise, and no message faults.  An exact MST built by a memory-bounded Prim pass joins them as
the cost lower bound.

What the model keeps from the event engine, per join iteration: one
pivot info exchange, parallel child probes, and one connection round
trip.  The **join latency** of a member is therefore

    sum over iterations of [ rtt(new, pivot) + max_child rtt(new, child) ]
    + rtt(new, final_parent)

(the probes of one iteration overlap, successive iterations do not) —
the same shape the paper's Fig. 3.6 walk implies, minus queueing.

Everything here streams: tree state is parent/children lists, metrics
are running accumulators, and underlay queries go through the row-cached
sparse engine — no all-pairs matrix is ever materialized, which is what
lets a single process chart 10k+ members inside a couple of GiB.

There is one join walk and one metrics pass, both plain scalar Python
(DESIGN.md §11): joins are sequential — join *i* decides on the tree
join *i−1* left behind — so there is nothing to vectorise across, and a
pivot has at most ``degree_limit`` children, so there is nothing worth
vectorising within.  What varies by underlay is only where a distance
comes from.  The walk asks a *distance source* for a **handle** on one
host, and the handle gathers that host's distances to a short list of
targets as Python floats.  Each joining member opens one for its own
probes.  A pivot's RTTs to its children are gathered the first time a
decision reads them and kept beside its child list, as the paper's
nodes keep "their children list and distances to them"; a later read
gathers only children attached since.  So a build opens at most
2·(n−1) handles: one per joining member, at most one fill per attach.

There is one distance source, and it needs an index-addressed
router-graph substrate (:class:`repro.sim.sparse.SparseUnderlay`, host
ids ``0..k-1``): a handle reads the host's attachment-router Dijkstra
row with ``row.item``, in ``delay_ms``'s own float association
(``2.0 * ((acc_a + dist) + acc_b)``), and a
:class:`repro.sim.sparse.RowPlan` fed the full join order up front
computes missing rows in multi-source blocks.  The row store outlives
the call: a tree walk, its metrics pass and a Prim pass on one underlay
compute each attachment-router row once between them.  Any other
underlay is a ``TypeError``, raised after the ``ValueError`` of any bad
argument and before the underlay is asked anything.

The per-pair reference — one ``rtt_ms`` / ``delay_ms`` / ``path_links``
call per pair, and a Prim pass relaxing on ``rtt_ms`` — lives in
``tests/scale_reference.py``.  ``tests/test_scale_kernel.py`` pins the
row source to it byte for byte (same parents, join latencies, iteration
counts and metric reprs, across protocols, degree limits and plan block
sizes) by handing it to :func:`_build_scale_tree` and
:func:`_scale_tree_metrics`, which take their distance source as an
argument.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import isfinite

import numpy as np

from repro.core.join import (
    Attach,
    Decision,
    Descend,
    Insert,
    closest_free_else_closest,
    hmtp_decide,
    split_cases,
    vdm_decide,
)
from repro.core.joinloop import MAX_ITERATIONS
from repro.sim.network import NoRouteError, Underlay
from repro.sim.sparse import SparseUnderlay
from repro.topology.transit_stub import TransitStubConfig
from repro.util.validation import check_count, check_finite

__all__ = [
    "ScaleTree",
    "ScaleTreeMetrics",
    "SCALE_PROTOCOLS",
    "build_scale_tree",
    "prim_mst_parents",
    "scale_tree_metrics",
    "scale_ts_config",
]


def scale_ts_config(n_routers: int) -> TransitStubConfig:
    """A transit-stub recipe for an arbitrary router count.

    Scales the *number* of domains, not their size: stub domains stay at
    ~8-12 routers (the paper's shape), so edge counts grow linearly in V
    instead of the quadratic blow-up that inflating per-domain sizes
    causes.  Below ~600 routers the shape collapses to a 2-transit-domain
    miniature (the quick preset's silhouette).
    """
    if check_count("n_routers", n_routers) < 120:
        raise ValueError(f"need at least 120 routers, got {n_routers}")
    if n_routers < 600:
        transit_domains, per_domain, stubs_per = 2, 4, 3
    else:
        transit_domains = max(3, round(n_routers / 410))
        per_domain, stubs_per = 10, 4
    return TransitStubConfig(
        total_nodes=n_routers,
        transit_domains=transit_domains,
        transit_nodes_per_domain=per_domain,
        stub_domains_per_transit=stubs_per,
    )

#: protocols :func:`build_scale_tree` knows how to walk.
SCALE_PROTOCOLS = ("vdm", "hmtp", "btp")


def _max_iterations(n_members: int) -> int:
    """Termination backstop for one join walk.

    HMTP/BTP descend one level per iteration, so a legitimately deep
    tree — a degree-1 BTP chain is the extreme — needs up to
    ``depth + 1 <= n_members`` iterations.  The bound therefore scales
    with the member count instead of clipping legitimate walks at the
    join loop's ``MAX_ITERATIONS`` (sized for paper-scale sessions); it
    exists only to catch non-termination bugs.
    """
    return max(MAX_ITERATIONS, n_members)


@dataclass
class ScaleTree:
    """A fully built static tree plus per-join accounting."""

    protocol: str
    #: parent[host] = parent host id; -1 for the source.
    parents: np.ndarray
    #: modelled join latency per member (ms); 0.0 for the source.
    join_latency_ms: np.ndarray
    #: join-walk iterations per member; 0 for the source.
    iterations: np.ndarray

    @property
    def n_members(self) -> int:
        return int(self.parents.size)


class _SparseRows:
    """The distance source: router-level Dijkstra rows.

    A handle holds the source's attachment-router row (so it survives
    the row's eviction from a tight store) and gathers plain Python
    floats in ``delay_ms``'s own association, ``(acc_a + dist) + acc_b``.
    The constructor installs a :class:`repro.sim.sparse.RowPlan` over the
    attachment routers of ``plan_hosts`` (all members in join order by
    default), so rows the underlay's store does not hold yet are computed
    in multi-source blocks.  Stress walks each overlay edge's predecessor
    chain into canonical ``min * V + max`` router-link keys — the integer
    twin of the ``("router", min, max)`` ids ``path_links`` emits — plus
    one access-link counter per host.
    """

    def __init__(
        self,
        underlay: Underlay,
        n_members: int,
        *,
        plan_hosts: list[int] | None = None,
        predecessors: bool = False,
    ) -> None:
        _check_rows(underlay)
        self.underlay = underlay
        att = underlay._host_cols()[:n_members]
        self.att: list[int] = att.tolist()
        self.acc: list[float] = underlay._acc_array()[:n_members].tolist()
        self.link_usage: dict[int, int] = {}
        self.access_usage = [0] * n_members
        self.plan = underlay.prefetch_rows(
            att if plan_hosts is None else att[plan_hosts],
            predecessors=predecessors,
        )

    def rtts(self, a: int, legs: float = 2.0):
        """Host ``a``'s handle: ``handle(targets)`` lists the RTTs from
        ``a`` to each target."""
        # ``legs`` = 1.0 gathers one-way delays: scaling a float by 1.0
        # or 2.0 is exact, so both are the per-pair queries' bits.
        att, acc = self.att, self.acc
        item = self.underlay.router_dist_row(att[a]).item
        acc_a = acc[a]

        def gather(targets):
            return _finite(
                [legs * ((acc_a + item(att[b])) + acc[b]) for b in targets], a
            )

        return gather

    def delays(self, a: int):
        """Same, one-way delays."""
        return self.rtts(a, 1.0)

    def count_links(self, parent: int, kids: list[int]) -> None:
        """Charge every physical link under the overlay edges
        ``parent -> kid``."""
        att = self.att
        target = att[parent]
        # A memoryview is the fastest int read of a numpy row.
        pred = memoryview(self.underlay._row(target)[1])
        n_routers = self.underlay.n_routers
        usage = self.link_usage
        access = self.access_usage
        access[parent] += len(kids)
        for child in kids:
            access[child] += 1
            cur = att[child]
            while cur != target:
                nxt = pred[cur]
                key = cur * n_routers + nxt if cur < nxt else nxt * n_routers + cur
                usage[key] = usage.get(key, 0) + 1
                cur = nxt

    def link_counts(self) -> list[int]:
        """Transmissions per physical link used, one entry per link."""
        counts = [count for count in self.access_usage if count]
        counts.extend(self.link_usage.values())
        return counts

    def close(self) -> None:
        self.plan.close()


def _finite(values: list[float], a: int) -> list[float]:
    """``values`` gathered from host ``a``, or ``NoRouteError`` when
    any of them is not finite (an unreachable pair reads ``inf`` off a
    Dijkstra row)."""
    if not all(map(isfinite, values)):
        raise NoRouteError(f"no route from host {a}")
    return values


def _check_rows(underlay: Underlay) -> None:
    """Refuse an underlay that serves no host-indexed Dijkstra rows —
    before it is asked anything."""
    if not (isinstance(underlay, SparseUnderlay) and underlay._ids_are_indices):
        raise TypeError(
            "scale walks read Dijkstra rows: they need a SparseUnderlay "
            f"whose host ids are 0..k-1, got {type(underlay).__name__}"
        )


def _check_hosts(underlay: Underlay, n: int) -> None:
    """The module's host contract: members are hosts ``0..n-1``, in the
    underlay's ascending id order, host 0 the source."""
    hosts = underlay.hosts
    if n > len(hosts):
        raise ValueError(f"underlay has {len(hosts)} hosts, cannot place {n} members")
    if list(hosts[:n]) != list(range(n)):
        raise ValueError(f"scale walks need host ids 0..{n - 1}, got {list(hosts[:n])}")


def build_scale_tree(
    underlay: Underlay,
    protocol: str,
    n_members: int,
    *,
    degree_limit: int = 4,
    tie_tolerance: float = 1e-9,
) -> ScaleTree:
    """Join hosts ``1..n_members-1`` sequentially under ``protocol``.

    ``degree_limit`` bounds children per node (the source included), as
    :attr:`OverlayAgent.free_degree` does — a node's parent edge does not
    consume a slot.  Deterministic: every tie-break matches the agent
    code (distance first, lowest id second).  Distances come off the
    underlay's Dijkstra rows, planned in join order; ``underlay`` must
    be an index-addressed :class:`~repro.sim.sparse.SparseUnderlay`.
    """
    return _build_scale_tree(
        underlay, protocol, n_members, degree_limit, tie_tolerance, _SparseRows
    )


def _build_scale_tree(
    underlay: Underlay,
    protocol: str,
    n_members: int,
    degree_limit: int,
    tie_tolerance: float,
    distances: Callable[..., _SparseRows],
) -> ScaleTree:
    """The walk, reading from ``distances(underlay, n_members)`` once
    every argument has been vetted."""
    if protocol not in SCALE_PROTOCOLS:
        raise ValueError(f"unknown scale protocol {protocol!r}")
    check_count("n_members", n_members, 2)
    check_count("degree_limit", degree_limit)
    if check_finite("tie_tolerance", tie_tolerance) < 0:
        raise ValueError(f"tie_tolerance must be >= 0, got {tie_tolerance}")
    _check_hosts(underlay, n_members)
    rows = distances(underlay, n_members)
    source = 0
    parents = [-1] * n_members
    children: list[list[int]] = [[] for _ in range(n_members)]
    # measured[p][i] = rtt(p, children[p][i]) for a prefix of the children:
    # each node keeps its distances to its children, as the agents do.
    measured: list[list[float]] = [[] for _ in range(n_members)]
    latency = [0.0] * n_members
    iters = [0] * n_members
    step = _STEPS[protocol]
    # BTP descends by being turned away: each hop is a connection attempt.
    hop_is_attempt = protocol == "btp"
    max_iter = _max_iterations(n_members)

    def pivot_rtts(p: int) -> list[float]:
        """``p``'s RTTs to its children; only the unmeasured ones are
        gathered, off one handle on ``p``."""
        have, kids = measured[p], children[p]
        if len(have) < len(kids):
            have += rows.rtts(p)(kids[len(have):])
        return have

    try:
        for node in range(1, n_members):
            rtts = rows.rtts(node)
            pivot = source
            dist_to_pivot = rtts((source,))[0]
            lat = 0.0
            n_iter = 0
            while True:
                n_iter += 1
                if n_iter > max_iter:  # pragma: no cover - defensive
                    raise RuntimeError(
                        f"join of {node} did not terminate in {max_iter} steps"
                    )
                kids = children[pivot]
                lat += dist_to_pivot  # pivot info exchange
                if kids:
                    d_new = rtts(kids)
                    lat += max(d_new)  # parallel probes: pay the slowest
                else:
                    d_new = []
                decision = step(
                    pivot_rtts,
                    pivot,
                    kids,
                    dist_to_pivot,
                    d_new,
                    [
                        (dist, child, degree_limit - len(children[child]))
                        for dist, child in zip(d_new, kids)
                    ],
                    degree_limit,
                    tie_tolerance,
                )
                if type(decision) is not Descend:
                    break
                if hop_is_attempt:
                    lat += dist_to_pivot  # the rejected connection attempt
                pivot = decision.child
                dist_to_pivot = d_new[kids.index(pivot)]
            # Commit.  A decision names the pivot or one of the children
            # just probed, so every RTT it needs is already in hand.
            target = decision.target
            lat += (  # connection round trip
                dist_to_pivot if target == pivot else d_new[kids.index(target)]
            )
            if type(decision) is Insert:
                # The newcomer's RTTs to the adopted children are the bits
                # its own handle would read, so they seed its list.
                children[node] = list(decision.adopt)
                measured[node] = [d_new[kids.index(c)] for c in decision.adopt]
                have = measured[pivot]
                for child in decision.adopt:
                    i = kids.index(child)
                    del kids[i]
                    if i < len(have):
                        del have[i]
                    parents[child] = node
            parents[node] = target
            children[target].append(node)
            latency[node] = lat
            iters[node] = n_iter
    finally:
        rows.close()
    return ScaleTree(
        protocol=protocol,
        parents=np.array(parents, dtype=np.int64),
        join_latency_ms=np.array(latency, dtype=np.float64),
        iterations=np.array(iters, dtype=np.int64),
    )


# One join iteration per protocol.  ``d_new`` are the newcomer's RTTs to
# the pivot's children ``kids``, and ``probes`` the same round in the join
# kernel's ``(d_new, child, free)`` shape; ``pivot_rtts(pivot)`` are the
# pivot's own RTTs to ``kids``, aligned with them and measured only once
# a decision first reads them.

_PivotRtts = Callable[[int], list[float]]


def _vdm_step(
    pivot_rtts: _PivotRtts,
    pivot: int,
    kids: list[int],
    dist_to_pivot: float,
    d_new: list[float],
    probes: list[tuple[float, int, int]],
    degree_limit: int,
    tie_tolerance: float,
) -> Decision:
    """Fig. 3.6 with the paper's priorities.  The newcomer has no children
    yet, so its adoption budget is its whole degree limit."""
    case2 = case3 = ()
    if kids:
        case2, case3 = split_cases(
            dist_to_pivot, zip(kids, d_new, pivot_rtts(pivot)), tie_tolerance
        )
    return vdm_decide(
        pivot, degree_limit - len(kids), case2, case3, degree_limit, probes, False
    )


def _hmtp_step(
    pivot_rtts: _PivotRtts,
    pivot: int,
    kids: list[int],
    dist_to_pivot: float,
    d_new: list[float],
    probes: list[tuple[float, int, int]],
    degree_limit: int,
    tie_tolerance: float,
) -> Decision:
    """Greedy descent toward the closest child, with the Scenario II
    U-turn check."""
    return hmtp_decide(
        pivot,
        degree_limit - len(kids),
        dist_to_pivot,
        probes,
        lambda child: pivot_rtts(pivot)[kids.index(child)],
    )


def _btp_step(
    pivot_rtts: _PivotRtts,
    pivot: int,
    kids: list[int],
    dist_to_pivot: float,
    d_new: list[float],
    probes: list[tuple[float, int, int]],
    degree_limit: int,
    tie_tolerance: float,
) -> Decision:
    """Ask the pivot for a slot; a full pivot redirects to its closest
    free child, else through its closest child — ranked by the *pivot's*
    distances to its children, as the rejecting parent's reply is, not by
    the newcomer's."""
    if len(kids) < degree_limit:
        return Attach(pivot)
    return Descend(
        closest_free_else_closest(
            [
                (d_pivot, child, free)
                for d_pivot, (_d_new, child, free) in zip(pivot_rtts(pivot), probes)
            ]
        )[1]
    )


_STEPS = {"vdm": _vdm_step, "hmtp": _hmtp_step, "btp": _btp_step}


def prim_mst_parents(underlay: Underlay, n_members: int) -> np.ndarray:
    """Exact MST over the first ``n_members`` hosts (RTT metric), O(N) memory.

    Classic dense Prim: each time a host enters the tree its attachment
    router's Dijkstra row relaxes the frontier, so the whole pass holds
    three length-N vectors and never a matrix.  Root is host 0 (the
    source).  Deterministic: ``argmin`` takes the lowest index among
    ties.  An unreachable member is ``NoRouteError``.

    The rows are planned the way the join walk's are: Prim touches every
    member's row exactly once (whenever that member enters the tree), so
    a plan over the attachment routers in host order computes them in
    multi-source blocks — and none at all for rows an earlier walk on
    this underlay left in the store.  Relaxations replay ``delay_ms``'s
    float ops, ``2.0 * ((acc_a + dist) + acc_b)``, so the tree is the one
    a per-pair ``rtt_ms`` Prim builds, bit for bit.
    """
    check_count("n_members", n_members, 2)
    _check_hosts(underlay, n_members)
    _check_rows(underlay)
    att = underlay._host_cols()[:n_members]
    acc = underlay._acc_array()[:n_members]
    parents = np.full(n_members, -1, dtype=np.int64)
    best = np.full(n_members, np.inf)
    best_from = np.full(n_members, -1, dtype=np.int64)
    in_tree = np.zeros(n_members, dtype=bool)
    current = 0
    in_tree[0] = True
    with underlay.prefetch_rows(att):
        for _ in range(n_members - 1):
            base = underlay.router_dist_row(int(att[current]))[att]
            if not np.all(np.isfinite(base)):
                raise NoRouteError(f"no route from host {current}")
            rtts = 2.0 * ((acc[current] + base) + acc)
            rtts[current] = 0.0  # delay_ms(a, a) is 0, not twice the access
            improved = ~in_tree & (rtts < best)
            best[improved] = rtts[improved]
            best_from[improved] = current
            masked = np.where(in_tree, np.inf, best)
            current = int(np.argmin(masked))
            parents[current] = best_from[current]
            in_tree[current] = True
    return parents


@dataclass(frozen=True)
class ScaleTreeMetrics:
    """Streaming quality metrics of one static tree."""

    stretch_avg: float
    stretch_max: float
    depth_avg: float
    depth_max: int
    stress_avg: float
    stress_max: int
    links_used: int
    n_receivers: int

    def as_record(self) -> dict[str, float]:
        return {
            "stretch": self.stretch_avg,
            "stretch_max": self.stretch_max,
            "depth": self.depth_avg,
            "stress": self.stress_avg,
            "stress_max": float(self.stress_max),
        }


def scale_tree_metrics(
    underlay: Underlay,
    parents: np.ndarray,
    *,
    include_stress: bool = True,
) -> ScaleTreeMetrics:
    """Stretch, depth, and link stress of a parent-array tree.

    One DFS with running accumulators — the streaming discipline of
    :func:`repro.metrics.collectors.collect_tree_metrics` applied to the
    array representation.  ``include_stress=False`` skips the physical
    path expansion (the only part whose state grows with the *router*
    link count), for cells where only stretch/depth are charted.

    ``parents`` must describe one tree over hosts ``0..n-1``: a 1-D
    integer array, ids in ``[0, n)``, exactly one ``-1`` (the root),
    every member reachable from it — anything else is a ``ValueError``
    before the underlay is asked a distance.

    Overlay delays and physical paths come off the Dijkstra rows
    themselves, planned in the DFS's own visit order: a handle per
    internal node instead of a ``delay_ms`` call per edge, predecessor
    chains instead of ``path_links`` tuples.  Rows the tree walk left in
    the underlay's store are reused (a dist-only row is recomputed once
    with predecessors when stress needs them).
    """
    return _scale_tree_metrics(underlay, parents, include_stress, _SparseRows)


def _scale_tree_metrics(
    underlay: Underlay,
    parents: np.ndarray,
    include_stress: bool,
    distances: Callable[..., _SparseRows],
) -> ScaleTreeMetrics:
    """The metrics pass, reading from ``distances`` (as the walk does)."""
    children, order = _dfs_order(parents)
    n = len(children)
    _check_hosts(underlay, n)
    source = order[0]
    # The internal-node visit order *is* the row consumption order, so
    # the plan is exact.
    rows = distances(
        underlay,
        n,
        plan_hosts=[v for v in order if children[v]],
        predecessors=include_stress,
    )
    try:
        unicast = rows.delays(source)(range(n))
        overlay = [0.0] * n
        depths = [0] * n
        stretch_sum = 0.0
        stretch_max = 0.0
        depth_sum = 0
        depth_max = 0
        for node in order:
            kids = children[node]
            if kids:
                base = overlay[node]
                child_depth = depths[node] + 1
                for child, delay in zip(kids, rows.delays(node)(kids)):
                    overlay[child] = base + delay
                    depths[child] = child_depth
                if include_stress:
                    rows.count_links(node, kids)
            if node == source:
                continue
            depth = depths[node]
            depth_sum += depth
            if depth > depth_max:
                depth_max = depth
            if unicast[node] > 0:
                ratio = overlay[node] / unicast[node]
                stretch_sum += ratio
                if ratio > stretch_max:
                    stretch_max = ratio
        link_counts = rows.link_counts()
    finally:
        rows.close()
    count = n - 1
    return ScaleTreeMetrics(
        stretch_avg=stretch_sum / count if count else 0.0,
        stretch_max=stretch_max,
        depth_avg=depth_sum / count if count else 0.0,
        depth_max=depth_max,
        stress_avg=sum(link_counts) / len(link_counts) if link_counts else 0.0,
        stress_max=max(link_counts, default=0),
        links_used=len(link_counts),
        n_receivers=count,
    )


def _dfs_order(parents: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """Child lists (ascending ids) and the DFS pre-order from the root.

    The one place a parent array is vetted: anything but a 1-D integer
    array, out-of-range ids, forests, and members the root cannot reach
    (detached subtrees, cycles) all raise ``ValueError`` here.
    """
    array = np.asarray(parents)
    if array.ndim != 1 or array.dtype.kind not in "iu":
        raise ValueError(
            f"parents must be a 1-D integer array, got {array.ndim}-D {array.dtype}"
        )
    plist = array.tolist()
    n = len(plist)
    children: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for node, p in enumerate(plist):
        if p == -1:
            roots.append(node)
        elif 0 <= p < n:
            children[p].append(node)
        else:
            raise ValueError(f"parent id {p} of member {node} is outside [0, {n})")
    if len(roots) != 1:
        raise ValueError(f"expected exactly one root, found {len(roots)}")
    order: list[int] = []
    stack = roots
    while stack:
        node = stack.pop()
        order.append(node)
        # children were appended in ascending id order, so a reversed
        # push pops ascending — no sort needed.
        stack.extend(reversed(children[node]))
    if len(order) != n:
        raise ValueError(
            f"{n - len(order)} of {n} members are not reachable from the root "
            "(detached subtree or parent cycle)"
        )
    return children, order
