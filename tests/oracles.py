"""Independent statements of answers the production code maintains or memoizes.

Each function here recomputes, from scratch and from public state only
(``tree.parent`` / ``children`` / ``source``, ``accountant.node_stats``,
``underlay.delay_ms`` / ``path_links`` / ``path_error``), a value that
``src/`` keeps incrementally, in a buffer, or behind a memo.  The tests
require the two to agree *bit for bit*, so where a float is accumulated
the order of operations below is part of the contract.

Not a test module (pytest does not collect it) and not a caller of the
code under test: it imports nothing from ``repro`` at run time, which
``tests/test_envflags_registry.py`` enforces.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only
    from repro.protocols.base import TreeRegistry
    from repro.sim.delivery import DeliveryAccountant
    from repro.sim.network import Underlay


# ---------------------------------------------------------------------------
# TreeRegistry: reachability, root path, depth by walking the parent chain
# ---------------------------------------------------------------------------


def reachable(tree: TreeRegistry, node: int) -> bool:
    """Whether ``node``'s parent chain reaches the source."""
    seen = set()
    while True:
        if node == tree.source:
            return True
        if node in seen or node not in tree.parent:
            return False
        seen.add(node)
        up = tree.parent[node]
        if up is None:
            return False
        node = up


def path_to_source(tree: TreeRegistry, node: int) -> list[int]:
    """Node ids from ``node`` up to the source, inclusive.

    ``ValueError`` on a broken chain or a parent cycle (visited-set form).
    """
    path = [node]
    seen = {node}
    cur = node
    while cur != tree.source:
        up = tree.parent.get(cur)
        if up is None:
            raise ValueError(f"node {node} has no path to source")
        if up in seen:
            raise ValueError(f"parent cycle detected at {up}")
        seen.add(up)
        path.append(up)
        cur = up
    return path


def depth(tree: TreeRegistry, node: int) -> int:
    """Overlay hops from the source, via the whole root path."""
    return len(path_to_source(tree, node)) - 1


def root_path_member(tree: TreeRegistry, node: int, rng: np.random.Generator) -> int:
    """HMTP's refinement start by indexing the whole root path: one of
    ``node``'s ancestors, drawn with ``rng.integers(len(path) - 1)``; the
    source, without a draw, for the source itself and for an orphaned or
    absent node."""
    try:
        path = path_to_source(tree, node)
    except ValueError:
        return tree.source
    n = len(path) - 1
    if n <= 0:
        return tree.source
    return int(path[1 + int(rng.integers(n))])


# ---------------------------------------------------------------------------
# DeliveryAccountant: path success and window loss, recomputed per query
# ---------------------------------------------------------------------------


def path_success(tree: TreeRegistry, underlay: Underlay, node: int) -> float:
    """Probability a chunk survives the overlay path source -> ``node``.

    Multiplies source-outward: the association of the accountant's
    maintained parent-times-hop product.
    """
    path = path_to_source(tree, node)
    success = 1.0
    for i in range(len(path) - 1, 0, -1):
        success *= 1.0 - underlay.path_error(path[i], path[i - 1])
    return success


def window_loss(
    accountant: DeliveryAccountant, w0: float, w1: float
) -> tuple[float, float]:
    """``(loss_rate, mean_node_loss)`` over ``[w0, w1)``, one own pass each:
    the aggregate loss over every tracked node (eq. 3.7) and the
    unweighted mean of the per-node loss rates.  Any window, backward
    ones included; it refuses the bounds every window query refuses.

    Nodes are visited in the order the accountant first saw them (its
    ledger's insertion order — the one piece of private state read here,
    because the float sums depend on it and no public query exposes it).
    """
    if not (math.isfinite(w0) and math.isfinite(w1) and w0 <= w1):
        raise ValueError(f"bad window: w0={w0}, w1={w1}")
    nodes = list(accountant._ledger)
    expected = 0.0
    received = 0.0
    for node in nodes:
        stats = accountant.node_stats(node, w0, w1)
        expected += stats.expected_chunks
        received += stats.received_chunks
    loss = max(0.0, 1.0 - received / expected) if expected > 0 else 0.0
    rates = []
    for node in nodes:
        stats = accountant.node_stats(node, w0, w1)
        if stats.expected_chunks > 0:
            rates.append(
                max(0.0, 1.0 - stats.received_chunks / stats.expected_chunks)
            )
    return loss, (sum(rates) / len(rates) if rates else 0.0)


def loss_rate(accountant: DeliveryAccountant, w0: float, w1: float) -> float:
    """The first half of :func:`window_loss`."""
    return window_loss(accountant, w0, w1)[0]


def mean_node_loss(accountant: DeliveryAccountant, w0: float, w1: float) -> float:
    """The second half of :func:`window_loss`."""
    return window_loss(accountant, w0, w1)[1]


# ---------------------------------------------------------------------------
# collect_tree_metrics: one independent loop per metric family
# ---------------------------------------------------------------------------


def _reachable_preorder(tree: TreeRegistry) -> list[int]:
    """Reachable non-source nodes, root-down, siblings in ascending order."""
    source = tree.source
    order: list[int] = []
    stack = [source]
    while stack:
        node = stack.pop()
        if node != source and reachable(tree, node):
            order.append(node)
        kids = tree.children.get(node)
        if kids:
            stack.extend(sorted(kids, reverse=True))
    return order


def link_usage(tree: TreeRegistry, underlay: Underlay) -> Counter:
    """Physical link -> copies of each chunk: every reachable overlay
    edge's path, walked now (the accountant maintains it per event)."""
    usage: Counter = Counter()
    for node in _reachable_preorder(tree):
        for link in underlay.path_links(tree.parent[node], node):
            usage[link] += 1
    return usage


def tree_metrics(tree: TreeRegistry, underlay: Underlay) -> dict[str, dict]:
    """Stress, stretch, hopcount and resource usage of the reachable tree,
    as ``dataclasses.asdict(collect_tree_metrics(...))`` spells them.

    Reachability is re-verified per node, the root path walked per stretch
    sample and per hopcount sample; nodes are visited root-down with
    siblings in ascending id order, so every float accumulates in the
    order the single-pass collector uses.
    """
    source = tree.source
    order = _reachable_preorder(tree)
    usage = link_usage(tree, underlay)
    stress = {"average": 0.0, "maximum": 0, "links_used": 0, "total_transmissions": 0}
    if usage:
        transmissions = sum(usage.values())
        stress = {
            "average": transmissions / len(usage),
            "maximum": max(usage.values()),
            "links_used": len(usage),
            "total_transmissions": transmissions,
        }

    ratios: list[float] = []
    leaf_ratios: list[float] = []
    for node in order:
        unicast = underlay.delay_ms(source, node)
        if unicast <= 0:
            continue
        path = path_to_source(tree, node)
        overlay = 0.0
        for i in range(len(path) - 1, 0, -1):  # source-outward
            overlay += underlay.delay_ms(path[i], path[i - 1])
        ratio = overlay / unicast
        ratios.append(ratio)
        if not tree.children.get(node):
            leaf_ratios.append(ratio)
    stretch = {
        "average": 0.0, "minimum": 0.0, "maximum": 0.0, "leaf_average": 0.0, "count": 0
    }
    if ratios:
        stretch = {
            "average": sum(ratios) / len(ratios),
            "minimum": min(ratios),
            "maximum": max(ratios),
            "leaf_average": sum(leaf_ratios) / len(leaf_ratios) if leaf_ratios else 0.0,
            "count": len(ratios),
        }

    depths = [depth(tree, node) for node in order]
    leaf_depths = [
        depth(tree, node) for node in order if not tree.children.get(node)
    ]
    hopcount = {"average": 0.0, "maximum": 0, "leaf_average": 0.0, "count": 0}
    if depths:
        hopcount = {
            "average": sum(depths) / len(depths),
            "maximum": max(depths),
            "leaf_average": sum(leaf_depths) / len(leaf_depths) if leaf_depths else 0.0,
            "count": len(depths),
        }

    total_ms = 0.0
    star_ms = 0.0
    for node in order:
        total_ms += underlay.delay_ms(tree.parent[node], node)
        star_ms += underlay.delay_ms(source, node)
    usage = {"total_ms": 0.0, "normalized": 0.0, "edges": 0}
    if order:
        usage = {
            "total_ms": total_ms,
            "normalized": total_ms / star_ms if star_ms > 0 else 0.0,
            "edges": len(order),
        }
    return {"stress": stress, "stretch": stretch, "hopcount": hopcount, "usage": usage}


# ---------------------------------------------------------------------------
# ProtocolRuntime: measurement noise and the eager message path
# ---------------------------------------------------------------------------


def noise_factor(rng: np.random.Generator, sigma: float, samples: int) -> float:
    """One measurement's noise multiplier: a fresh ``size=samples`` draw
    per call, averaged — what the runtime's block buffer must reproduce."""
    return float(np.mean(rng.lognormal(0.0, sigma, size=samples)))


class IdentityLegs:
    """A ``message_faults`` hook that touches nothing: every leg is
    delivered once, after exactly its propagation delay.

    It publishes no ``message_windows``, so the runtime asks it about
    every leg for ever: assigned to ``env.message_faults`` it forces
    ``tell`` and ``request`` onto the eager path (every leg through the
    hook, a cancellable timeout ``Event`` queued per request), and a run
    with it and a run without must be indistinguishable.
    """

    def delivery_delays(self, src, dst, msg, delay, *, leg):
        return (delay,)


class NoWindows:
    """``hook`` with its ``message_windows`` hidden: the runtime hands it
    every leg of the session instead of only the legs inside a window —
    what a real injector's windowed run must be indistinguishable from.
    """

    def __init__(self, hook):
        self.delivery_delays = hook.delivery_delays


# ---------------------------------------------------------------------------
# Transit-stub generation: one domain's edges by set and sort
# ---------------------------------------------------------------------------


def connected_random_graph(
    n: int, p: float, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Edges of a connected random graph on ``0..n-1``, sorted: a random
    permutation path, plus each other pair with probability ``p``.

    The chain pairs are collected in a set, the others drawn as one
    ``rng.random`` block over the upper-triangle pairs that are not on
    the chain (row-major order), and the union is sorted — the draws and
    the edge list ``_connected_random_graph`` must reproduce, leaving
    ``rng`` at the same point of its stream.
    """
    if n <= 0:
        return []
    order = rng.permutation(n)
    chain = {
        (min(a, b), max(a, b))
        for a, b in zip(order[:-1].tolist(), order[1:].tolist())
    }
    if n < 2:
        return sorted(chain)
    iu, ju = np.triu_indices(n, k=1)
    mask = np.ones(iu.size, dtype=bool)
    for a, b in chain:
        mask[a * (2 * n - a - 1) // 2 + (b - a - 1)] = False
    draws = rng.random(int(mask.sum()))
    sel = np.zeros(iu.size, dtype=bool)
    sel[mask] = draws < p
    return sorted(set(zip(iu[sel].tolist(), ju[sel].tolist())) | chain)
