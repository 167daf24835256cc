"""Shortest-path-tree primitives shared by the router underlays.

A Dijkstra predecessor row is a tree rooted at its source router.  The
two things the underlays do with that tree live here, once:

* :func:`walk_links` — the predecessor hop walk, emitting the
  ``("router", lo, hi)`` link ids of one source → target path.  The lazy
  :class:`~repro.sim.network.RouterUnderlay`, the dense
  :class:`~repro.sim.compiled.CompiledUnderlay` and the CSR
  :class:`~repro.sim.sparse.SparseUnderlay` all reconstruct paths through
  it; :func:`routers_along` recovers the router sequence from the links.
* :func:`path_survival` — the end-to-end survival product of *every*
  tree path of a block of rows at once, propagated level by level down
  the trees instead of replayed path by path.

Predecessor rows follow scipy's convention: a negative entry marks the
source itself and every router the source cannot reach.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["LinkErrors", "path_survival", "routers_along", "walk_links"]

#: (row, router) cells propagated per block of :func:`path_survival`.
#: Bounds its temporaries (~100 bytes per cell, under 2 MiB: they stay
#: cache-resident, and measured fastest of 2^12..2^18) however large
#: rows x routers grows; a transit-stub substrate of the paper's size
#: (792 routers) takes 20 rows per block.
_BLOCK_CELLS = 1 << 14


def walk_links(
    pred: np.ndarray, source: int, target: int, router_ids: Sequence[int]
) -> list[tuple[str, int, int]]:
    """Router link ids of the tree path ``source`` → ``target``, in order.

    ``pred`` is the predecessor row of ``source`` (a contiguous integer
    array; memory-mapped is fine) and ``source``/``target`` index into
    it; ``router_ids[i]`` is the public id of index ``i``.  ``target``
    must be reachable.
    """
    # A memoryview hands back plain Python ints as fast as a list does,
    # without copying the row: no numpy scalar (nor, on a memory-mapped
    # row, ``np.memmap.__getitem__``'s Python wrapper) per hop.
    pred = memoryview(pred)
    links = []
    node = target
    v = router_ids[node]
    while node != source:
        node = pred[node]
        u = router_ids[node]
        links.append(("router", u, v) if u < v else ("router", v, u))
        v = u
    links.reverse()
    return links


def routers_along(start: int, links: Sequence[tuple[str, int, int]]) -> list[int]:
    """The router sequence a chain of router links visits from ``start``."""
    path = [start]
    for _, lo, hi in links:
        path.append(hi if path[-1] == lo else lo)
    return path


class LinkErrors:
    """Vectorised loss-probability lookup over undirected router links.

    Built from one ``(u, v, error)`` triplet per link (router *indices*);
    calling it with index arrays returns the error of each ``(u, v)``
    link in either orientation, ``0.0`` for pairs that are not links.
    """

    def __init__(self, n_routers: int, edge_u, edge_v, edge_error) -> None:
        self._n = int(n_routers)
        keys = self._keys(np.asarray(edge_u), np.asarray(edge_v))
        order = np.argsort(keys)
        self._sorted_keys = keys[order]
        self._errors = np.asarray(edge_error, dtype=np.float64)[order]

    def _keys(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u = u.astype(np.int64, copy=False)
        v = v.astype(np.int64, copy=False)
        return np.minimum(u, v) * self._n + np.maximum(u, v)

    def __call__(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        keys = self._keys(u, v)
        pos = np.searchsorted(self._sorted_keys, keys)
        np.minimum(pos, self._sorted_keys.size - 1, out=pos)
        return np.where(self._sorted_keys[pos] == keys, self._errors[pos], 0.0)


def path_survival(
    pred: np.ndarray,
    rows: np.ndarray,
    sources: np.ndarray,
    start: np.ndarray,
    link_errors: LinkErrors,
    targets: np.ndarray,
) -> np.ndarray:
    """Survival probability of the tree path to each target, per walker.

    Walker ``i`` descends the tree ``pred[rows[i]]`` from its root, router
    ``sources[i]``, entered with survival ``start[i]`` (several walkers
    may share a tree: hosts behind one router with different access
    links).  Entry ``[i, j]`` of the result is the left-to-right product
    ``(start[i] * (1 - e1)) * (1 - e2) ...`` over the links of the path
    ``sources[i]`` → ``targets[j]`` — every prefix of that chain is the
    survival of the path to the predecessor, so one multiplication per
    tree edge covers all paths, in exactly the order a per-path loop
    multiplies.  Unreachable targets read ``nan``.
    """
    out = np.empty((len(rows), len(targets)))
    block = max(1, _BLOCK_CELLS // pred.shape[1])
    for lo in range(0, len(rows), block):
        hi = lo + block
        out[lo:hi] = _propagate(
            pred[rows[lo:hi]], sources[lo:hi], start[lo:hi], link_errors
        )[:, targets]
    return out


def _propagate(
    pred: np.ndarray, sources: np.ndarray, start: np.ndarray, link_errors: LinkErrors
) -> np.ndarray:
    """Survival to *every* router for one block of rows (``nan`` = none)."""
    n_rows, n_routers = pred.shape
    rows = np.arange(n_rows)[:, None]
    has_parent = pred >= 0
    # Roots (the source, unreachable routers) are their own parent.
    parent = np.where(has_parent, pred, np.arange(n_routers)[None, :])

    # Hop depth below the root by pointer doubling: ``depth`` counts the
    # hops up to ``ancestor``, which doubles its reach every pass.  Depth,
    # not distance, orders the levels — zero-delay links tie distances.
    depth = has_parent.astype(np.int32)
    ancestor = parent
    while True:
        above = depth[rows, ancestor]
        if not above.any():
            break
        depth += above
        ancestor = ancestor[rows, ancestor]

    survival = np.full(pred.shape, np.nan)
    survival[rows[:, 0], sources] = start
    cell_row, cell_router = np.nonzero(has_parent)
    cell_parent = parent[cell_row, cell_router]
    cell_depth = depth[cell_row, cell_router]
    hop = 1.0 - link_errors(cell_parent, cell_router)
    # Cells grouped by level; a level only reads the level above it.
    by_level = np.argsort(cell_depth, kind="stable")
    ends = np.cumsum(np.bincount(cell_depth))
    for lo, hi in zip(ends[:-1], ends[1:]):
        cells = by_level[lo:hi]
        r = cell_row[cells]
        survival[r, cell_router[cells]] = survival[r, cell_parent[cells]] * hop[cells]
    return survival
