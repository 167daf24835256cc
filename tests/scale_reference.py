"""The Chapter 7 walk's per-pair reference, kept beside the tests that use it.

:mod:`repro.harness.scale` reads every distance off an index-addressed
``SparseUnderlay``'s Dijkstra rows.  The equivalence suites pin that row
path, byte for byte, against one underlay query per pair:

* :class:`PairQueries` — a distance source for the private
  ``_build_scale_tree`` / ``_scale_tree_metrics`` seam: one ``rtt_ms`` /
  ``delay_ms`` / ``path_links`` call per pair, no row plan, on any
  underlay (the lazy engine included);
* :func:`prim_mst_pairs` — the same Prim pass, relaxing on one ``rtt_ms``
  per pair;
* :func:`build`, :func:`metrics`, :func:`prim` — the three entry points
  under the suites' ``kernel`` parameter: ``"batched"`` is the public
  function, ``"scalar"`` the reference.  Underlays the row path refuses
  (the lazy engine) get the reference under either value.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.harness.scale import (
    _build_scale_tree,
    _check_hosts,
    _scale_tree_metrics,
    build_scale_tree,
    prim_mst_parents,
    scale_tree_metrics,
)
from repro.sim.sparse import SparseUnderlay
from repro.util.validation import check_count


class PairQueries:
    """One underlay query per pair; keeps no state of its own.

    ``rtt_ms`` / ``delay_ms`` raise ``NoRouteError`` themselves.  The
    row source's plan arguments are accepted and ignored: there is no
    plan to install.
    """

    def __init__(self, underlay, n_members: int, **plan) -> None:
        self.underlay = underlay
        self.link_usage: Counter = Counter()

    def rtts(self, a: int):
        """Host ``a``'s handle: ``handle(targets)`` lists the RTTs from
        ``a`` to each target."""
        rtt_ms = self.underlay.rtt_ms
        return lambda targets: [rtt_ms(a, b) for b in targets]

    def delays(self, a: int):
        """Same, one-way delays."""
        delay_ms = self.underlay.delay_ms
        return lambda targets: [delay_ms(a, b) for b in targets]

    def count_links(self, parent: int, kids: list[int]) -> None:
        """Charge every physical link under the overlay edges
        ``parent -> kid``."""
        path_links = self.underlay.path_links
        for child in kids:
            self.link_usage.update(path_links(parent, child))

    def link_counts(self) -> list[int]:
        """Transmissions per physical link used, one entry per link."""
        return list(self.link_usage.values())

    def close(self) -> None:
        pass


def prim_mst_pairs(underlay, n_members: int) -> np.ndarray:
    """``prim_mst_parents`` with each relaxation row gathered pair by
    pair from ``rtt_ms``: same vetting, same ties, same tree."""
    check_count("n_members", n_members, 2)
    _check_hosts(underlay, n_members)
    parents = np.full(n_members, -1, dtype=np.int64)
    best = np.full(n_members, np.inf)
    best_from = np.full(n_members, -1, dtype=np.int64)
    in_tree = np.zeros(n_members, dtype=bool)
    current = 0
    in_tree[0] = True
    for _ in range(n_members - 1):
        rtts = np.array([underlay.rtt_ms(current, h) for h in range(n_members)])
        improved = ~in_tree & (rtts < best)
        best[improved] = rtts[improved]
        best_from[improved] = current
        masked = np.where(in_tree, np.inf, best)
        current = int(np.argmin(masked))
        parents[current] = best_from[current]
        in_tree[current] = True
    return parents


def _rows(underlay, kernel: str) -> bool:
    """Whether ``kernel`` on ``underlay`` means the public row path."""
    if kernel not in ("batched", "scalar"):
        raise ValueError(f"kernel must be batched or scalar, got {kernel!r}")
    return kernel == "batched" and isinstance(underlay, SparseUnderlay)


def build(
    underlay,
    protocol: str,
    n_members: int,
    kernel: str = "batched",
    *,
    degree_limit: int = 4,
    tie_tolerance: float = 1e-9,
):
    """``build_scale_tree`` from rows, or the same walk on pair queries."""
    if _rows(underlay, kernel):
        return build_scale_tree(
            underlay,
            protocol,
            n_members,
            degree_limit=degree_limit,
            tie_tolerance=tie_tolerance,
        )
    return _build_scale_tree(
        underlay, protocol, n_members, degree_limit, tie_tolerance, PairQueries
    )


def metrics(underlay, parents, kernel: str = "batched", *, include_stress=True):
    """``scale_tree_metrics`` from rows, or the same pass on pair queries."""
    if _rows(underlay, kernel):
        return scale_tree_metrics(underlay, parents, include_stress=include_stress)
    return _scale_tree_metrics(underlay, parents, include_stress, PairQueries)


def prim(underlay, n_members: int, kernel: str = "batched") -> np.ndarray:
    """``prim_mst_parents`` from rows, or :func:`prim_mst_pairs`."""
    if _rows(underlay, kernel):
        return prim_mst_parents(underlay, n_members)
    return prim_mst_pairs(underlay, n_members)
