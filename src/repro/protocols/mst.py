"""Minimum-spanning-tree references (Fig. 5.31 and Section 3.1.1).

VDM's stated design goal is "converging to MST using simple, local
methods".  This module provides the centralized references that goal is
measured against:

* :func:`mst_parent_map` — the exact (unconstrained) MST over the session
  members' virtual distances, rooted at the source.  This is the
  comparator of Fig. 5.31, which the paper runs *without* degree limits.
* :func:`degree_constrained_mst` — a greedy Prim-style heuristic honouring
  per-node degree limits.  Exact DCMST is NP-hard (Section 3.1.1 cites
  Garey & Johnson), so as in all the related literature a heuristic stands
  in when degree limits matter.
* :func:`tree_cost` — summed edge weight of any parent map, the "network
  usage" both are compared on.
* :func:`closest_open_member` and :func:`attach_at_pivot` — the same
  greedy rule as the ``"mst"`` row of the protocol table, run *online*:
  each joiner attaches to the globally closest non-saturated tree member,
  looked up through the registry oracle.  This makes the MST reference
  runnable inside a live session (churn, faults, invariant checking)
  alongside the distributed protocols.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from repro.core.join import Attach, Decision

__all__ = [
    "mst_parent_map",
    "degree_constrained_mst",
    "tree_cost",
    "closest_open_member",
    "attach_at_pivot",
]

WeightFn = Callable[[int, int], float]


def _check_members(members: Sequence[int], source: int) -> list[int]:
    nodes = list(dict.fromkeys(members))  # preserve order, drop dupes
    if source not in nodes:
        raise ValueError(f"source {source} must be among the members")
    if len(nodes) < 1:
        raise ValueError("need at least one member")
    return nodes


def mst_parent_map(
    members: Sequence[int],
    source: int,
    weight: WeightFn,
) -> dict[int, int]:
    """Exact MST over the complete member graph, rooted at ``source``.

    Returns a parent map (child -> parent) covering every member except the
    source, in breadth-first order.  Edge weights come from
    ``weight(a, b)``, typically the session RTT metric; a NaN weight is a
    ``ValueError``.

    Kruskal over the member pairs ``(nodes[i], nodes[j])``, ``i < j``,
    stably sorted by weight, so ties go to the earlier pair; then a BFS
    from the source that visits each member's tree neighbours in the
    order their edges were accepted.  That is networkx's
    ``minimum_spanning_tree`` + ``bfs_edges`` answer, dict order
    included, which ``tests/test_mst.py`` holds it to.
    """
    nodes = _check_members(members, source)
    edges = []
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            w = float(weight(a, b))
            if math.isnan(w):
                raise ValueError(f"NaN weight on member pair ({a}, {b})")
            edges.append((w, a, b))
    edges.sort(key=itemgetter(0))
    component = {n: n for n in nodes}

    def find(n: int) -> int:
        while component[n] != n:
            component[n] = n = component[component[n]]
        return n

    neighbours: dict[int, list[int]] = {n: [] for n in nodes}
    for _, a, b in edges:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            component[root_a] = root_b
            neighbours[a].append(b)
            neighbours[b].append(a)
    parents: dict[int, int] = {}
    queue = [source]
    for parent in queue:  # grows while it is walked: a FIFO
        for child in neighbours[parent]:
            if child != source and child not in parents:
                parents[child] = parent
                queue.append(child)
    return parents


def degree_constrained_mst(
    members: Sequence[int],
    source: int,
    weight: WeightFn,
    degree_limit: int | Mapping[int, int],
) -> dict[int, int]:
    """Greedy Prim-style spanning tree honouring children-degree limits.

    ``degree_limit`` caps the number of *children* per node (matching the
    overlay protocols' semantics), given either as a scalar or per-node.
    Grows the tree from the source, always committing the globally
    cheapest edge from a non-saturated tree node to an outside node —
    the standard DCMST heuristic.

    Raises ``ValueError`` if the limits make spanning impossible.
    """
    nodes = _check_members(members, source)
    if isinstance(degree_limit, Mapping):
        limits = {n: int(degree_limit[n]) for n in nodes}
    else:
        limits = {n: int(degree_limit) for n in nodes}
    for n, lim in limits.items():
        if lim < 1:
            raise ValueError(f"degree limit for {n} must be >= 1, got {lim}")

    parents: dict[int, int] = {}
    child_count = {n: 0 for n in nodes}
    in_tree = {source}
    outside = set(nodes) - in_tree

    heap: list[tuple[float, int, int]] = []

    def push_edges(tree_node: int) -> None:
        for other in outside:
            heapq.heappush(heap, (float(weight(tree_node, other)), tree_node, other))

    push_edges(source)
    while outside:
        while heap:
            w, parent, child = heapq.heappop(heap)
            if child not in outside:
                continue
            if child_count[parent] >= limits[parent]:
                continue
            break
        else:
            raise ValueError(
                "degree limits prevent spanning all members "
                f"({len(outside)} left unattached)"
            )
        parents[child] = parent
        child_count[parent] += 1
        outside.discard(child)
        in_tree.add(child)
        push_edges(child)
    return parents


def tree_cost(parents: Mapping[int, int], weight: WeightFn) -> float:
    """Total edge weight of a parent map."""
    return sum(float(weight(child, parent)) for child, parent in parents.items())


def closest_open_member(agent) -> int:
    """Where every MST join starts: the nearest alive attached member with
    a free child slot, else the source — :func:`degree_constrained_mst`'s
    growth rule one join at a time, reconnections included.  The registry
    scan is the point: it shows what the greedy global rule achieves with
    none of VDM's locality constraints."""
    env = agent.env
    tree = env.tree
    me = agent.node_id
    best: int | None = None
    best_key: tuple[float, int] | None = None
    for cand in tree.attached_nodes():
        if cand == me or not env.is_alive(cand):
            continue
        if tree.is_descendant(cand, me):
            continue
        other = env.agents.get(cand)
        if other is None or other.free_degree <= 0:
            continue
        key = (env.virtual_distance(me, cand), cand)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return env.source if best is None else best


def attach_at_pivot(row, agent, pivot, dist_to_pivot, info, probes) -> Decision:
    """MST's decision: attach where the oracle pointed the join."""
    return Attach(pivot)
