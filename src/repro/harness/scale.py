"""Static-join tree construction for the Chapter 7 scale study.

The discrete-event engine (:mod:`repro.sim.engine`) replays every control
message of a session — the right tool at paper scale (hundreds of
members), hopeless at 10k-1M.  This module charts how the *steady-state
trees* of VDM and its comparators scale instead: members join one at a
time (ids ascending, host 0 is the source) and each join iteration
gathers its distances straight from the underlay and asks the same join
kernel the agents ask (:mod:`repro.core.join`: the Fig. 3.6 walk for
VDM, HMTP's greedy closest-child descent with the Scenario II U-turn
check; BTP's attach-at-pivot with full-node redirects is local to this
module) — with no churn, no refinement, no probe noise, and no message
faults.  An exact MST built by a memory-bounded Prim pass joins them as
the cost lower bound.

What the model keeps from the event engine, per join iteration: one
pivot info exchange, parallel child probes, and one connection round
trip.  The **join latency** of a member is therefore

    sum over iterations of [ rtt(new, pivot) + max_child rtt(new, child) ]
    + rtt(new, final_parent)

(the probes of one iteration overlap, successive iterations do not) —
the same shape the paper's Fig. 3.6 walk implies, minus queueing.

Everything here streams: tree state is parent/children arrays, metrics
are running accumulators, and underlay queries go through the row-cached
sparse engine — no all-pairs matrix is ever materialized, which is what
lets a single process chart 10k+ members inside a couple of GiB.

Two kernels build the same trees (PR 9, DESIGN.md §13).  The **scalar**
kernel is the reference: a per-child dict walk issuing one ``rtt_ms``
query at a time.  The **batched** kernel (the default,
``REPRO_SCALE_KERNEL`` to ablate) keeps tree state in preallocated
child-slot arrays, gathers all of an iteration's distances in one
vector read, and — on sparse substrates — reads router-level Dijkstra
rows straight from the underlay's row store, with a
:class:`repro.sim.sparse.RowPlan` fed the full join order up front so
missing rows are computed in multi-source blocks.  Joins themselves stay
sequential (join *i*'s decisions depend on the tree join *i−1* left
behind), and the decision over a pivot's handful of children is the
shared scalar kernel.  The store outlives the call: a tree walk, its metrics
pass and a Prim pass on one underlay compute each attachment-router row
once between them.  The batched kernel is **byte-identical** to the
scalar one — same parents, same join latencies, same iteration counts —
because every float op replays the scalar op order elementwise
(``2.0 * ((acc_a + dist) + acc_b)``, probe maxima, lexicographic
``(distance, id)`` tie-breaks); ``tests/test_scale_kernel.py`` pins the
equivalence across protocols, degree limits, and prefetch block sizes.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.core.join import (
    Decision,
    Descend,
    Insert,
    hmtp_decide,
    split_cases,
    vdm_decide,
)
from repro.sim.network import Underlay
from repro.topology.transit_stub import TransitStubConfig
from repro.util.envflags import scale_kernel

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
    if n_routers < 120:
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

_MAX_ITERATIONS = 64  # floor; mirrors JoinProcess.MAX_ITERATIONS


def _max_iterations(n_members: int) -> int:
    """Termination backstop for one join walk.

    HMTP/BTP descend one level per iteration, so a legitimately deep
    tree — a degree-1 BTP chain is the extreme — needs up to
    ``depth + 1 <= n_members`` iterations.  The bound therefore scales
    with the member count instead of clipping legitimate walks at the
    event engine's 64 (which is sized for paper-scale sessions); it
    exists only to catch non-termination bugs.
    """
    return max(_MAX_ITERATIONS, n_members)


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


class _Walk:
    """Per-join bookkeeping: memoized RTTs and the latency accumulator."""

    __slots__ = ("node", "rtt_ms", "_memo", "latency_ms")

    def __init__(self, node: int, underlay: Underlay) -> None:
        self.node = node
        self.rtt_ms = underlay.rtt_ms
        self._memo: dict[int, float] = {}
        self.latency_ms = 0.0

    def rtt(self, other: int) -> float:
        d = self._memo.get(other)
        if d is None:
            d = self.rtt_ms(self.node, other)
            self._memo[other] = d
        return d

    def pay(self, other: int) -> float:
        d = self.rtt(other)
        self.latency_ms += d
        return d

    def pay_probes(self, children: list[int]) -> dict[int, float]:
        """Parallel probes: pay only the slowest one."""
        dists = {c: self.rtt(c) for c in children}
        if dists:
            self.latency_ms += max(dists.values())
        return dists


def build_scale_tree(
    underlay: Underlay,
    protocol: str,
    n_members: int,
    *,
    degree_limit: int = 4,
    tie_tolerance: float = 1e-9,
    kernel: str | None = None,
    prefetch_block: int | None = None,
) -> ScaleTree:
    """Join hosts ``1..n_members-1`` sequentially under ``protocol``.

    ``degree_limit`` bounds children per node (the source included), as
    :attr:`OverlayAgent.free_degree` does — a node's parent edge does not
    consume a slot.  Deterministic: every tie-break matches the agent
    code (distance first, lowest id second).

    ``kernel`` overrides ``REPRO_SCALE_KERNEL`` (``"batched"`` /
    ``"scalar"``); ``prefetch_block`` overrides the default block size
    of the batched kernel's row plan.  Both kernels are byte-identical;
    underlays that can serve neither router rows nor dense delay rows
    (the lazy path) always walk scalar.
    """
    if protocol not in SCALE_PROTOCOLS:
        raise ValueError(f"unknown scale protocol {protocol!r}")
    if n_members < 2:
        raise ValueError(f"need at least 2 members, got {n_members}")
    if degree_limit < 1:
        raise ValueError(f"degree_limit must be >= 1, got {degree_limit}")
    if tie_tolerance < 0:
        raise ValueError(f"tie_tolerance must be >= 0, got {tie_tolerance}")
    if kernel not in (None, "batched", "scalar"):
        raise ValueError(f"kernel must be batched or scalar, got {kernel!r}")
    hosts = underlay.hosts
    if n_members > len(hosts):
        raise ValueError(
            f"underlay has {len(hosts)} hosts, cannot join {n_members}"
        )
    mode = kernel if kernel is not None else scale_kernel()
    if mode == "batched":
        rows = _make_row_provider(underlay, n_members, prefetch_block)
        if rows is not None:
            try:
                return _build_scale_tree_batched(
                    protocol, n_members, degree_limit, tie_tolerance, rows
                )
            except _RowsUnavailable:
                pass  # a host without a dense row mid-walk: scalar handles it
            finally:
                rows.close()
    source = int(hosts[0])
    parents = np.full(n_members, -1, dtype=np.int64)
    latency = np.zeros(n_members, dtype=np.float64)
    iters = np.zeros(n_members, dtype=np.int64)
    children: list[list[int]] = [[] for _ in range(n_members)]

    if protocol == "vdm":
        decide = _vdm_step
    elif protocol == "hmtp":
        decide = _hmtp_step
    else:
        decide = _btp_step

    max_iter = _max_iterations(n_members)
    for node in range(1, n_members):
        walk = _Walk(node, underlay)
        pivot = source
        n_iter = 0
        while True:
            n_iter += 1
            if n_iter > max_iter:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"join of {node} did not terminate in {max_iter} steps"
                )
            walk.pay(pivot)  # pivot info exchange
            probe = walk.pay_probes(children[pivot])
            nxt = decide(
                walk, pivot, probe, parents, children, degree_limit, tie_tolerance
            )
            if nxt is None:
                break
            pivot = nxt
        latency[node] = walk.latency_ms
        iters[node] = n_iter
    return ScaleTree(
        protocol=protocol,
        parents=parents,
        join_latency_ms=latency,
        iterations=iters,
    )


def _free(children: list[list[int]], node: int, degree_limit: int) -> int:
    return degree_limit - len(children[node])


def _probes(
    probe: dict[int, float], children: list[list[int]], degree_limit: int
) -> list[tuple[float, int, int]]:
    """The probe round in the join kernel's ``(d_new, child, free)`` shape."""
    return [
        (dist, child, _free(children, child, degree_limit))
        for child, dist in probe.items()
    ]


def _apply(
    walk: _Walk,
    decision: Decision,
    parents: np.ndarray,
    children: list[list[int]],
) -> int | None:
    """Carry out a kernel decision on the list-of-lists tree.  Returns
    the next pivot, or None when the walk committed."""
    if isinstance(decision, Descend):
        return decision.child
    node = walk.node
    target = decision.target
    walk.pay(target)  # connection round trip
    parents[node] = target
    kids = children[target]
    if isinstance(decision, Insert):
        for child in decision.adopt:
            kids.remove(child)
            parents[child] = node
        children[node] = list(decision.adopt)
    kids.append(node)
    return None


def _vdm_step(
    walk: _Walk,
    pivot: int,
    probe: dict[int, float],
    parents: np.ndarray,
    children: list[list[int]],
    degree_limit: int,
    tie_tolerance: float,
) -> int | None:
    """One VDM join iteration (Fig. 3.6, the paper's priorities).  The
    newcomer has no children yet, so its adoption budget is its whole
    degree limit."""
    case2, case3 = split_cases(
        walk.rtt(pivot),
        [(child, dist, walk.rtt_ms(pivot, child)) for child, dist in probe.items()],
        tie_tolerance,
    )
    decision = vdm_decide(
        pivot,
        _free(children, pivot, degree_limit),
        case2,
        case3,
        degree_limit,
        _probes(probe, children, degree_limit),
        False,
    )
    return _apply(walk, decision, parents, children)


def _hmtp_step(
    walk: _Walk,
    pivot: int,
    probe: dict[int, float],
    parents: np.ndarray,
    children: list[list[int]],
    degree_limit: int,
    tie_tolerance: float,
) -> int | None:
    """One HMTP join iteration: greedy descent toward the closest child,
    with the Scenario II U-turn check."""
    decision = hmtp_decide(
        pivot,
        _free(children, pivot, degree_limit),
        walk.rtt(pivot),
        _probes(probe, children, degree_limit),
        lambda child: walk.rtt_ms(pivot, child),
    )
    return _apply(walk, decision, parents, children)


def _btp_step(
    walk: _Walk,
    pivot: int,
    probe: dict[int, float],
    parents: np.ndarray,
    children: list[list[int]],
    degree_limit: int,
    tie_tolerance: float,
) -> int | None:
    """One BTP join iteration: attach to the pivot; a full pivot redirects
    to its closest free child (by the *pivot's* cached child distances),
    else descends through its closest child."""
    walk.pay(pivot)  # connection attempt (accepted or rejected)
    if _free(children, pivot, degree_limit) > 0:
        parents[walk.node] = pivot
        children[pivot].append(walk.node)
        return None
    pool = [
        child
        for child in children[pivot]
        if _free(children, child, degree_limit) > 0
    ] or children[pivot]
    # _redirect_after_reject orders candidates by the rejecting parent's
    # distance to each child, not the newcomer's.
    return min(pool, key=lambda c: (walk.rtt_ms(pivot, c), c))


# -- batched kernel (PR 9) ------------------------------------------------
#
# Same walks, array-at-a-time.  Byte identity with the scalar kernel
# rests on three invariants, each pinned by tests/test_scale_kernel.py:
# every per-pair value replays the scalar float-op order elementwise
# (``2.0 * ((acc_a + dist) + acc_b)``), every selection replays the
# scalar ``(distance, id)`` lexicographic tie-break, and every row —
# demand or block-computed, fresh or reused from the store — is
# bit-identical.


class _RowsUnavailable(Exception):
    """A dense provider met a host without a delay row; walk scalar."""


class _SparseRowProvider:
    """rtt/delay vectors straight from router-level Dijkstra rows.

    Never materializes a host-indexed row: a query for host ``a`` against
    ``targets`` gathers ``dist_row(router_of(a))[att[targets]]`` and
    applies the access terms elementwise in the scalar association.  The
    constructor installs a :class:`repro.sim.sparse.RowPlan` over the
    caller's known source order (attachment routers in join order by
    default), so rows the underlay's store does not hold yet are
    computed in multi-source blocks.
    """

    __slots__ = ("underlay", "att", "acc", "plan")

    def __init__(
        self,
        underlay,
        n_members: int,
        *,
        block: int | None = None,
        predecessors: bool = False,
        plan_sources=None,
    ) -> None:
        self.underlay = underlay
        self.att = underlay._host_cols()[:n_members]
        self.acc = underlay._acc_array()[:n_members]
        sources = self.att if plan_sources is None else plan_sources
        self.plan = underlay.prefetch_rows(
            sources, block=block, predecessors=predecessors
        )

    def rtt_vec(self, a: int, targets: np.ndarray) -> np.ndarray:
        dist = self.underlay.router_dist_row(int(self.att[a]))
        vals = 2.0 * ((self.acc[a] + dist[self.att[targets]]) + self.acc[targets])
        # All terms are >= 0, so a non-finite entry (unreachable pair)
        # surfaces as an inf/nan sum — one scalar check, not a full
        # isfinite sweep per join step.
        if not math.isfinite(vals.sum()):
            raise nx.NetworkXNoPath(f"no route from host {a}")
        return vals

    def rtt_one(self, a: int, b: int) -> float:
        dist = self.underlay.router_dist_row(int(self.att[a]))
        val = 2.0 * ((self.acc[a] + dist[self.att[b]]) + self.acc[b])
        if not math.isfinite(val):
            raise nx.NetworkXNoPath(f"no route from host {a}")
        return val

    def delay_vec(self, a: int, targets: np.ndarray) -> np.ndarray:
        dist = self.underlay.router_dist_row(int(self.att[a]))
        vals = (self.acc[a] + dist[self.att[targets]]) + self.acc[targets]
        if not math.isfinite(vals.sum()):
            raise nx.NetworkXNoPath(f"no route from host {a}")
        return vals

    def close(self) -> None:
        self.plan.close()


class _DenseRowProvider:
    """rtt/delay vectors over host-indexed ``delay_row`` rows.

    ``rtt_ms(a, b) == 2.0 * delay_row(a)[b]`` bit for bit (the
    ``delay_row`` contract, and the compiled engine's rtt rows are
    ``2.0 * delay`` elementwise), so one row per source serves a whole
    iteration.

    When the underlay exposes its float64 host-delay matrix directly
    (the compiled engine's ``_hdelay``, valid whenever ``delay_row``
    itself is — ``_ids_are_indices``), rows are zero-copy views of it:
    ``delay_row`` is ``_hdelay[a].tolist()`` and a float64 list
    round-trip is exact, so the view holds the same bits without paying
    a per-row list conversion.  Otherwise rows are ndarray-ified once
    and kept in a small LRU.
    """

    __slots__ = ("underlay", "_mat", "_rows", "_cap")

    def __init__(self, underlay: Underlay) -> None:
        self.underlay = underlay
        mat = getattr(underlay, "_hdelay", None)
        self._mat = (
            mat
            if (
                getattr(underlay, "_ids_are_indices", False)
                and isinstance(mat, np.ndarray)
                and mat.dtype == np.float64
            )
            else None
        )
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._cap = 256

    def _row(self, a: int) -> np.ndarray:
        if self._mat is not None:
            return self._mat[a]
        row = self._rows.get(a)
        if row is not None:
            self._rows.move_to_end(a)
            return row
        raw = self.underlay.delay_row(a)
        if raw is None:
            raise _RowsUnavailable(a)
        row = np.asarray(raw, dtype=np.float64)
        self._rows[a] = row
        if len(self._rows) > self._cap:
            self._rows.popitem(last=False)
        return row

    def rtt_vec(self, a: int, targets: np.ndarray) -> np.ndarray:
        return 2.0 * self._row(a)[targets]

    def rtt_one(self, a: int, b: int) -> float:
        return 2.0 * self._row(a)[b]

    def delay_vec(self, a: int, targets: np.ndarray) -> np.ndarray:
        return self._row(a)[targets]

    def close(self) -> None:
        self._rows.clear()


def _sparse_exact_indexed(underlay: Underlay):
    """The underlay as an exact, index-addressed SparseUnderlay, or None."""
    from repro.sim.sparse import SparseUnderlay

    if (
        isinstance(underlay, SparseUnderlay)
        and underlay.exact
        and underlay._ids_are_indices
    ):
        return underlay
    return None


def _make_row_provider(
    underlay: Underlay, n_members: int, prefetch_block: int | None
):
    """Pick the row provider for this underlay, or None (walk scalar)."""
    sparse = _sparse_exact_indexed(underlay)
    if sparse is not None:
        return _SparseRowProvider(sparse, n_members, block=prefetch_block)
    from repro.sim.sparse import SparseUnderlay

    if isinstance(underlay, SparseUnderlay):
        return None  # landmark mode / sparse ids: scalar handles both
    if underlay.delay_row(int(underlay.hosts[0])) is not None:
        return _DenseRowProvider(underlay)
    return None


class _ArrayWalkState:
    """Mutable tree state shared by the per-protocol array steps."""

    __slots__ = ("parents", "slots", "nkids", "rows", "degree_limit", "tie_tol", "lat")

    def __init__(self, parents, slots, nkids, rows, degree_limit, tie_tol):
        self.parents = parents
        self.slots = slots
        self.nkids = nkids
        self.rows = rows
        self.degree_limit = degree_limit
        self.tie_tol = tie_tol
        self.lat = 0.0


def _append_child(st: _ArrayWalkState, parent: int, node: int) -> None:
    c = st.nkids[parent]
    st.slots[parent, c] = node
    st.nkids[parent] = c + 1
    st.parents[node] = parent


def _lex_min(dists: np.ndarray, ids: np.ndarray) -> tuple[float, int]:
    """``min((dist, id))`` — the scalar tuple tie-break, vectorized."""
    dmin = dists.min()
    return dmin, int(ids[dists == dmin].min())


def _probes_arrays(st, kids, d_new) -> list[tuple[float, int, int]]:
    """The probe round in the join kernel's ``(d_new, child, free)``
    shape, in slot (insertion) order."""
    free = st.degree_limit - st.nkids[kids]
    return list(zip(d_new, kids.tolist(), free.tolist()))


def _apply_arrays(st, node, pivot, dist_to_pivot, probes, decision) -> int | None:
    """Carry out a kernel decision on the child-slot arrays.  Returns the
    next pivot, or None when the walk committed."""
    if isinstance(decision, Descend):
        return decision.child
    target = decision.target
    # connection round trip
    st.lat += (
        dist_to_pivot
        if target == pivot
        else next(d for d, child, _free in probes if child == target)
    )
    if isinstance(decision, Insert):
        adopt = decision.adopt
        keep = [child for _d, child, _free in probes if child not in adopt]
        keep.append(node)
        st.slots[pivot, : len(keep)] = keep
        st.nkids[pivot] = len(keep)
        st.parents[list(adopt)] = node
        st.parents[node] = pivot
        st.slots[node, : len(adopt)] = adopt
        st.nkids[node] = len(adopt)
    else:
        _append_child(st, target, node)
    return None


def _vdm_step_arrays(st, node, pivot, kids, dist_to_pivot, d_new):
    probes = _probes_arrays(st, kids, d_new)
    case2 = case3 = ()
    if probes:
        d_pivot = st.rows.rtt_vec(pivot, kids).tolist()
        case2, case3 = split_cases(
            dist_to_pivot,
            [(child, d, dp) for (d, child, _free), dp in zip(probes, d_pivot)],
            st.tie_tol,
        )
    decision = vdm_decide(
        pivot,
        st.degree_limit - len(probes),
        case2,
        case3,
        st.degree_limit,
        probes,
        False,
    )
    return _apply_arrays(st, node, pivot, dist_to_pivot, probes, decision)


def _hmtp_step_arrays(st, node, pivot, kids, dist_to_pivot, d_new):
    probes = _probes_arrays(st, kids, d_new)
    decision = hmtp_decide(
        pivot,
        st.degree_limit - len(probes),
        dist_to_pivot,
        probes,
        lambda child: st.rows.rtt_one(pivot, child),
    )
    return _apply_arrays(st, node, pivot, dist_to_pivot, probes, decision)


def _btp_step_arrays(st, node, pivot, kids, dist_to_pivot, d_new):
    st.lat += dist_to_pivot  # connection attempt (accepted or rejected)
    if st.nkids[pivot] < st.degree_limit:
        _append_child(st, pivot, node)
        return None
    free = st.nkids[kids] < st.degree_limit
    pool = kids[free] if free.any() else kids
    # redirect by the *pivot's* distance to each candidate
    return _lex_min(st.rows.rtt_vec(pivot, pool), pool)[1]


_ARRAY_STEPS = {
    "vdm": _vdm_step_arrays,
    "hmtp": _hmtp_step_arrays,
    "btp": _btp_step_arrays,
}


def _build_scale_tree_batched(
    protocol: str,
    n_members: int,
    degree_limit: int,
    tie_tolerance: float,
    rows,
) -> ScaleTree:
    parents = np.full(n_members, -1, dtype=np.int64)
    latency = np.zeros(n_members, dtype=np.float64)
    iters = np.zeros(n_members, dtype=np.int64)
    slots = np.full((n_members, degree_limit), -1, dtype=np.int64)
    nkids = np.zeros(n_members, dtype=np.int64)
    step = _ARRAY_STEPS[protocol]
    max_iter = _max_iterations(n_members)
    st = _ArrayWalkState(parents, slots, nkids, rows, degree_limit, tie_tolerance)
    tbuf = np.empty(degree_limit + 1, dtype=np.int64)  # reused per step
    for node in range(1, n_members):
        st.lat = 0.0
        pivot = 0  # the source
        n_iter = 0
        while True:
            n_iter += 1
            if n_iter > max_iter:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"join of {node} did not terminate in {max_iter} steps"
                )
            kids = slots[pivot, : nkids[pivot]]  # insertion order
            targets = tbuf[: kids.size + 1]
            targets[0] = pivot
            targets[1:] = kids
            # tolist() is exact; the join kernel is plain scalar Python
            dist_to_pivot, *d_new = rows.rtt_vec(node, targets).tolist()
            st.lat += dist_to_pivot  # pivot info exchange
            if d_new:
                st.lat += max(d_new)  # parallel probes: pay the slowest
            nxt = step(st, node, pivot, kids, dist_to_pivot, d_new)
            if nxt is None:
                break
            pivot = nxt
        latency[node] = st.lat
        iters[node] = n_iter
    return ScaleTree(
        protocol=protocol,
        parents=parents,
        join_latency_ms=latency,
        iterations=iters,
    )


def prim_mst_parents(
    underlay: Underlay, n_members: int, *, kernel: str | None = None
) -> np.ndarray:
    """Exact MST over the first ``n_members`` hosts (RTT metric), O(N) memory.

    Classic dense Prim driven by ``delay_row``: each time a host enters
    the tree its single underlay row relaxes the frontier, so the whole
    pass holds three length-N vectors and never a matrix.  Root is host 0
    (the source).  Deterministic: ``argmin`` takes the lowest index among
    ties.

    On exact sparse underlays the batched kernel plans the rows the way
    the join walk does: Prim touches every member's row exactly once
    (whenever that member enters the tree), so a plan over the attachment
    routers in host order computes the same rows the demand path would,
    just in multi-source blocks — and none at all for rows an earlier
    walk on this underlay left in the store.  Bitwise
    identical either way; ``kernel="scalar"`` (or
    ``REPRO_SCALE_KERNEL=scalar``) forces the demand path.
    """
    if n_members < 2:
        raise ValueError(f"need at least 2 members, got {n_members}")
    hosts = underlay.hosts
    if n_members > len(hosts):
        raise ValueError(
            f"underlay has {len(hosts)} hosts, cannot span {n_members}"
        )
    if kernel not in (None, "batched", "scalar"):
        raise ValueError(f"kernel must be batched or scalar, got {kernel!r}")
    mode = kernel if kernel is not None else scale_kernel()
    sparse = _sparse_exact_indexed(underlay) if mode == "batched" else None
    if sparse is not None:
        return _prim_mst_sparse_batched(sparse, n_members)
    return _prim_mst_scalar(underlay, n_members)


def _prim_mst_scalar(underlay: Underlay, n_members: int) -> np.ndarray:
    hosts = underlay.hosts
    parents = np.full(n_members, -1, dtype=np.int64)
    best = np.full(n_members, np.inf)
    best_from = np.full(n_members, -1, dtype=np.int64)
    in_tree = np.zeros(n_members, dtype=bool)
    current = 0
    in_tree[0] = True
    for _ in range(n_members - 1):
        row = underlay.delay_row(current)
        if row is None:
            rtts = np.array(
                [underlay.rtt_ms(current, int(h)) for h in hosts[:n_members]]
            )
        else:
            rtts = 2.0 * np.asarray(row[:n_members])
        improved = ~in_tree & (rtts < best)
        best[improved] = rtts[improved]
        best_from[improved] = current
        masked = np.where(in_tree, np.inf, best)
        current = int(np.argmin(masked))
        parents[current] = best_from[current]
        in_tree[current] = True
    return parents


def _prim_mst_sparse_batched(underlay, n_members: int) -> np.ndarray:
    """The same Prim pass, rows planned in blocks.

    Replays ``delay_row``'s float ops without the list round-trip
    (``tolist``/``asarray`` is exact, so skipping it changes no bits)
    and its fallback condition: any non-finite entry over the *full*
    host set sends that relaxation through the per-pair ``rtt_ms`` loop,
    exactly as a ``None`` row does in the scalar pass.
    """
    hosts = underlay.hosts
    host_cols = underlay._host_cols()
    acc_all = underlay._acc_array()
    att = host_cols[:n_members]
    acc = acc_all[:n_members]
    parents = np.full(n_members, -1, dtype=np.int64)
    best = np.full(n_members, np.inf)
    best_from = np.full(n_members, -1, dtype=np.int64)
    in_tree = np.zeros(n_members, dtype=bool)
    current = 0
    in_tree[0] = True
    with underlay.prefetch_rows(att):
        for _ in range(n_members - 1):
            dist = underlay.router_dist_row(int(att[current]))
            base_all = dist[host_cols]
            if np.all(np.isfinite(base_all)):
                rtts = 2.0 * ((acc[current] + base_all[:n_members]) + acc)
                rtts[current] = 0.0  # delay_row pins the self entry
            else:
                rtts = np.array(
                    [underlay.rtt_ms(current, int(h)) for h in hosts[:n_members]]
                )
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
    kernel: str | None = None,
) -> ScaleTreeMetrics:
    """Stretch, depth, and link stress of a parent-array tree.

    One DFS with running accumulators — the streaming discipline of
    :func:`repro.metrics.collectors.collect_tree_metrics` applied to the
    array representation.  ``include_stress=False`` skips the physical
    path expansion (the only part whose state grows with the *router*
    link count), for cells where only stretch/depth are charted.

    On exact sparse underlays the batched kernel (default;
    ``kernel="scalar"`` / ``REPRO_SCALE_KERNEL=scalar`` to ablate)
    replaces the per-member ``path_links`` expansion with
    predecessor-array accumulation into ``np.bincount``/``np.unique``
    over canonical link keys, and plans every row — the exact DFS visit
    order, computed by an integer-only pre-pass.  Rows the tree walk left
    in the underlay's store are reused (a dist-only row is recomputed
    once with predecessors when stress needs them).  Bit-identical
    results either way.
    """
    if kernel not in (None, "batched", "scalar"):
        raise ValueError(f"kernel must be batched or scalar, got {kernel!r}")
    mode = kernel if kernel is not None else scale_kernel()
    if mode == "batched":
        result = _scale_tree_metrics_batched(underlay, parents, include_stress)
        if result is not None:
            return result
    n = int(parents.size)
    children: list[list[int]] = [[] for _ in range(n)]
    roots = 0
    for node in range(n):
        p = int(parents[node])
        if p < 0:
            roots += 1
            source = node
        else:
            children[p].append(node)
    if roots != 1:
        raise ValueError(f"expected exactly one root, found {roots}")

    delay_ms = underlay.delay_ms
    source_row = underlay.delay_row(source)
    link_usage: Counter = Counter()
    count_links = link_usage.update
    path_links = underlay.path_links
    stretch_sum = 0.0
    stretch_max = 0.0
    depth_sum = 0
    depth_max = 0
    count = 0
    stack: list[tuple[int, int, float]] = [(source, 0, 0.0)]
    while stack:
        node, depth, overlay = stack.pop()
        kids = children[node]
        child_depth = depth + 1
        # children were appended in ascending id order, so a reversed
        # walk pushes descending and pops ascending — no sort needed.
        for child in reversed(kids):
            stack.append((child, child_depth, overlay + delay_ms(node, child)))
        if node == source:
            continue
        if include_stress:
            count_links(path_links(int(parents[node]), node))
        unicast = (
            source_row[node] if source_row is not None else delay_ms(source, node)
        )
        depth_sum += depth
        count += 1
        if depth > depth_max:
            depth_max = depth
        if unicast > 0:
            ratio = overlay / unicast
            stretch_sum += ratio
            if ratio > stretch_max:
                stretch_max = ratio
    if link_usage:
        transmissions = sum(link_usage.values())
        stress_avg = transmissions / len(link_usage)
        stress_max = max(link_usage.values())
    else:
        stress_avg = 0.0
        stress_max = 0
    return ScaleTreeMetrics(
        stretch_avg=stretch_sum / count if count else 0.0,
        stretch_max=stretch_max,
        depth_avg=depth_sum / count if count else 0.0,
        depth_max=depth_max,
        stress_avg=stress_avg,
        stress_max=stress_max,
        links_used=len(link_usage),
        n_receivers=count,
    )


def _router_link_keys(
    pred: np.ndarray, att: np.ndarray, parent: int, kids: np.ndarray, n_routers: int
) -> np.ndarray:
    """Canonical router-link keys of every parent→child physical path.

    Chases all children's predecessor chains toward the parent's router
    *simultaneously* — one vector step per path hop, shrinking the
    active set as chains arrive.  Each traversed edge ``(u, v)`` becomes
    the canonical key ``min*V + max``, the integer twin of the scalar
    ``("router", min, max)`` link id, so the multiset of keys equals the
    multiset of router links ``path_links`` would emit for these edges.
    """
    target = int(att[parent])
    cur = att[kids][att[kids] != target]
    parts: list[np.ndarray] = []
    cur = cur.astype(np.int64)
    while cur.size:
        nxt = pred[cur].astype(np.int64)  # int64: the keys must not wrap
        parts.append(
            np.minimum(cur, nxt) * n_routers + np.maximum(cur, nxt)
        )
        cur = nxt[nxt != target]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def _scale_tree_metrics_batched(
    underlay: Underlay, parents: np.ndarray, include_stress: bool
) -> ScaleTreeMetrics | None:
    """Vectorized metrics over an exact sparse underlay, or None.

    Same DFS, same visit order, same float-op order as the scalar pass —
    per-node *vectors* replace per-edge underlay calls.  Stress trades
    the Python ``Counter`` for canonical int64 link keys accumulated
    into ``np.unique`` counts; access-link counts come from
    ``np.bincount`` over the parent array.  Returns None for underlays
    the kernel cannot serve (dense, lazy, landmark mode) — the scalar
    pass handles those.
    """
    sparse = _sparse_exact_indexed(underlay)
    if sparse is None:
        return None
    p = np.asarray(parents, dtype=np.int64)
    n = int(p.size)
    roots = np.flatnonzero(p < 0)
    if roots.size != 1:
        raise ValueError(f"expected exactly one root, found {roots.size}")
    source = int(roots[0])
    nodes = np.flatnonzero(p >= 0)
    counts = np.bincount(p[nodes], minlength=n)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    # nodes are ascending, the sort is stable: each parent's children
    # land grouped and in ascending id order — the scalar list layout.
    order = nodes[np.argsort(p[nodes], kind="stable")]

    # Integer-only DFS pre-pass: the internal-node visit order *is* the
    # row consumption order, so the plan is exact.
    visit: list[int] = []
    istack = [source]
    while istack:
        v = istack.pop()
        ks = order[starts[v] : starts[v + 1]]
        if ks.size:
            visit.append(v)
            istack.extend(ks[::-1].tolist())

    source_row = underlay.delay_row(source)
    if source_row is None:
        return None  # unreachable pairs: the scalar pass falls back per pair
    src = np.asarray(source_row)
    rows = _SparseRowProvider(
        sparse,
        n,
        predecessors=include_stress,
        plan_sources=sparse._host_cols()[np.asarray(visit, dtype=np.intp)],
    )
    try:
        att = rows.att
        n_routers = sparse.n_routers
        acc_cnt = np.zeros(n, dtype=np.int64)
        key_parts: list[np.ndarray] = []
        stretch_sum = 0.0
        stretch_max = 0.0
        depth_sum = 0
        depth_max = 0
        count = 0
        stack: list[tuple[int, int, float]] = [(source, 0, 0.0)]
        while stack:
            node, depth, overlay = stack.pop()
            ks = order[starts[node] : starts[node + 1]]
            if ks.size:
                ov = overlay + rows.delay_vec(node, ks)
                child_depth = depth + 1
                for i in range(ks.size - 1, -1, -1):
                    stack.append((int(ks[i]), child_depth, ov[i]))
                if include_stress:
                    acc_cnt[node] += ks.size  # ("access", parent) per edge
                    acc_cnt[ks] += 1  # ("access", child) per edge
                    _, pred = sparse._row(int(att[node]))
                    keys = _router_link_keys(pred, att, node, ks, n_routers)
                    if keys.size:
                        key_parts.append(keys)
            if node == source:
                continue
            unicast = src[node]
            depth_sum += depth
            count += 1
            if depth > depth_max:
                depth_max = depth
            if unicast > 0:
                ratio = overlay / unicast
                stretch_sum += ratio
                if ratio > stretch_max:
                    stretch_max = ratio
    finally:
        rows.close()
    access_counts = acc_cnt[acc_cnt > 0]
    if key_parts:
        _, router_counts = np.unique(np.concatenate(key_parts), return_counts=True)
    else:
        router_counts = np.empty(0, dtype=np.int64)
    links_used = int(access_counts.size + router_counts.size)
    if links_used:
        transmissions = int(access_counts.sum()) + int(router_counts.sum())
        stress_avg = transmissions / links_used
        stress_max = int(
            max(
                int(access_counts.max()) if access_counts.size else 0,
                int(router_counts.max()) if router_counts.size else 0,
            )
        )
    else:
        stress_avg = 0.0
        stress_max = 0
    return ScaleTreeMetrics(
        stretch_avg=float(stretch_sum / count) if count else 0.0,
        stretch_max=float(stretch_max),
        depth_avg=float(depth_sum / count) if count else 0.0,
        depth_max=depth_max,
        stress_avg=stress_avg,
        stress_max=stress_max,
        links_used=links_used,
        n_receivers=count,
    )
