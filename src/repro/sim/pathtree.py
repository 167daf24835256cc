"""Shortest-path-tree primitives shared by the router underlays.

A Dijkstra predecessor row is a tree rooted at its source router.  The
one thing the underlays do with that tree lives here, once:
:func:`walk_links`, the predecessor hop walk, emits the
``("router", lo, hi)`` link ids of one source → target path.  The CSR
:class:`~repro.sim.sparse.SparseUnderlay` and the tests' lazy networkx
oracle (``tests/lazy_underlay.py``) both reconstruct paths through it;
:func:`routers_along` recovers the router sequence from the links.
A path's loss probability is then the per-pair product over those links
(``Underlay._compute_path_error``), memoized per ordered pair.

Predecessor rows follow scipy's convention: a negative entry marks the
source itself and every router the source cannot reach.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["routers_along", "walk_links"]


def walk_links(
    pred: np.ndarray, source: int, target: int, router_ids: Sequence[int]
) -> list[tuple[str, int, int]]:
    """Router link ids of the tree path ``source`` → ``target``, in order.

    ``pred`` is the predecessor row of ``source`` (a contiguous integer
    array) and ``source``/``target`` index into it; ``router_ids[i]`` is
    the public id of index ``i``.  ``target`` must be reachable.
    """
    # A memoryview hands back plain Python ints as fast as a list does,
    # without copying the row and without a numpy scalar per hop.
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

