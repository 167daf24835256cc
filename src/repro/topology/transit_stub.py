"""GT-ITM-style transit-stub topology generation.

Chapter 3 of the paper evaluates VDM on a 792-router transit-stub topology
produced by GT-ITM.  GT-ITM's transit-stub model (Zegura, Calvert, and
Bhattacharjee, 1996) builds a three-level hierarchy:

1. a small number of *transit domains* (backbone ASes), each a connected
   random graph of transit routers, with the domains themselves connected;
2. per transit router, several *stub domains* (edge networks), each a
   connected random graph of stub routers, attached to its transit router;
3. optional extra stub-to-transit and stub-to-stub shortcut edges.

This module regenerates statistically equivalent graphs: the same hierarchy,
with link one-way delays drawn per hierarchy level (long inter-domain links,
medium intra-transit and stub-transit links, short intra-stub links), so the
stress/stretch behaviour of overlay trees on top of it is comparable to the
paper's substrate.

:func:`generate_transit_stub_arrays` emits the topology directly as flat
CSR-ready triplet arrays (edge endpoints, one-way delays in milliseconds,
kinds, plus per-router level/domain arrays) without ever building a
per-node adjacency structure, so generation stays O(E) in memory and is
usable at 100k+ routers.  It draws from the RNG in the exact order of the
original graph-first implementation, so existing seeds reproduce
bit-identically: ``tests/test_transit_stub_arrays.py`` pins it against
the graph-form twin in ``tests/lazy_underlay.py`` and against per-preset
topology digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.rngtools import rng_from_seed
from repro.util.validation import check_count, check_probability

__all__ = [
    "TransitStubConfig",
    "TransitStubArrays",
    "EDGE_KINDS",
    "generate_transit_stub_arrays",
]


#: Edge-kind code -> attribute string (index = the ``edge_kind`` array code).
EDGE_KINDS: tuple[str, ...] = (
    "inter_transit",
    "intra_transit",
    "stub_transit",
    "intra_stub",
)
_KIND_INTER = 0
_KIND_INTRA_TRANSIT = 1
_KIND_STUB_TRANSIT = 2
_KIND_INTRA_STUB = 3


@dataclass(frozen=True)
class TransitStubConfig:
    """Parameters of the transit-stub generator.

    The defaults reproduce the scale of the paper's substrate: 4 transit
    domains x 6 routers with 3 stub domains per transit router sized to hit
    ``total_nodes`` = 792 routers overall.

    Delay ranges are one-way link delays in milliseconds, chosen to mirror
    GT-ITM's convention that inter-domain links are an order of magnitude
    longer than intra-stub links.
    """

    total_nodes: int = 792
    transit_domains: int = 4
    transit_nodes_per_domain: int = 6
    stub_domains_per_transit: int = 3
    intra_transit_edge_prob: float = 0.6
    intra_stub_edge_prob: float = 0.4
    extra_transit_transit_links: int = 2
    delay_inter_transit: tuple[float, float] = (20.0, 50.0)
    delay_intra_transit: tuple[float, float] = (5.0, 20.0)
    delay_stub_transit: tuple[float, float] = (2.0, 10.0)
    delay_intra_stub: tuple[float, float] = (0.5, 3.0)

    def __post_init__(self) -> None:
        for name in (
            "total_nodes",
            "transit_domains",
            "transit_nodes_per_domain",
            "stub_domains_per_transit",
        ):
            check_count(name, getattr(self, name))
        check_count("extra_transit_transit_links", self.extra_transit_transit_links, 0)
        check_probability("intra_transit_edge_prob", self.intra_transit_edge_prob)
        check_probability("intra_stub_edge_prob", self.intra_stub_edge_prob)
        for name in (
            "delay_inter_transit",
            "delay_intra_transit",
            "delay_stub_transit",
            "delay_intra_stub",
        ):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise ValueError(f"{name} must satisfy 0 < lo <= hi, got ({lo}, {hi})")
        n_transit = self.transit_domains * self.transit_nodes_per_domain
        if self.total_nodes <= n_transit:
            raise ValueError(
                f"total_nodes={self.total_nodes} must exceed the "
                f"{n_transit} transit routers"
            )

    @property
    def n_transit(self) -> int:
        return self.transit_domains * self.transit_nodes_per_domain

    @property
    def n_stub_domains(self) -> int:
        return self.n_transit * self.stub_domains_per_transit


def _connected_random_graph(
    n: int, p: float, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Edges of a connected Erdos-Renyi-style graph on nodes 0..n-1.

    Connectivity is guaranteed by first threading a random spanning chain
    (a random permutation path), then adding each remaining pair with
    probability ``p`` — GT-ITM uses the same trick.

    The pair sampling is a single block draw rather than an O(n^2) Python
    loop.  Bit-stream compatibility with the historical scalar loop is
    preserved: ``Generator.random(size=k)`` consumes the underlying bit
    stream exactly like ``k`` scalar ``Generator.random()`` calls, and the
    spanning-chain pairs — which the scalar loop skipped without drawing —
    are masked out of the block before drawing.
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
        # Row-major linear index of pair (a, b) with a < b.
        mask[a * (2 * n - a - 1) // 2 + (b - a - 1)] = False
    draws = rng.random(int(mask.sum()))
    sel = np.zeros(iu.size, dtype=bool)
    sel[mask] = draws < p
    edges = set(zip(iu[sel].tolist(), ju[sel].tolist())) | chain
    return sorted(edges)


def _draw_delays(
    rng: np.random.Generator, bounds: tuple[float, float], count: int
) -> np.ndarray:
    """``count`` one-way link delays; block form of the historical
    per-edge ``rng.uniform(lo, hi)`` scalar draws (same bit stream)."""
    lo, hi = bounds
    return rng.uniform(lo, hi, size=count)


def _stub_domain_sizes(config: TransitStubConfig, rng: np.random.Generator) -> list[int]:
    """Split the stub-router budget across stub domains, each >= 1 node.

    Sizes vary around the mean (GT-ITM draws sizes from a distribution);
    the sum is exact so the generated graph always has ``total_nodes``.
    """
    n_stub_nodes = config.total_nodes - config.n_transit
    n_domains = config.n_stub_domains
    if n_stub_nodes < n_domains:
        raise ValueError(
            f"not enough stub routers ({n_stub_nodes}) for "
            f"{n_domains} stub domains"
        )
    mean = n_stub_nodes / n_domains
    # Draw jittered sizes, then repair the total by rounding residuals.
    raw = rng.uniform(0.5 * mean, 1.5 * mean, size=n_domains)
    sizes = np.maximum(1, np.floor(raw * n_stub_nodes / raw.sum()).astype(int))
    deficit = n_stub_nodes - int(sizes.sum())
    idx = rng.permutation(n_domains)
    i = 0
    while deficit != 0:
        j = idx[i % n_domains]
        if deficit > 0:
            sizes[j] += 1
            deficit -= 1
        elif sizes[j] > 1:
            sizes[j] -= 1
            deficit += 1
        i += 1
    return [int(s) for s in sizes]


@dataclass
class TransitStubArrays:
    """A transit-stub topology as flat arrays (CSR triplet form).

    Node ids are dense ``0..n_nodes-1`` (transit routers first, then stub
    routers in stub-domain order).  ``edge_u``/``edge_v``/``edge_delay``
    list each undirected link once; ``edge_kind`` codes index into
    :data:`EDGE_KINDS`.  ``level`` is 0 for transit, 1 for stub;
    ``node_domain`` is the domain index *within its level*;
    ``transit_domain`` maps every router to the transit domain serving it
    (the correlated-failure footprint).
    """

    n_nodes: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_delay: np.ndarray
    edge_kind: np.ndarray
    level: np.ndarray
    node_domain: np.ndarray
    transit_domain: np.ndarray

    _stub_ids: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_edges(self) -> int:
        return int(self.edge_u.size)

    def stub_ids(self) -> np.ndarray:
        """Stub-router ids in ascending order (hosts attach here)."""
        if self._stub_ids is None:
            self._stub_ids = np.flatnonzero(self.level == 1)
        return self._stub_ids


def generate_transit_stub_arrays(
    config: TransitStubConfig | None = None,
    *,
    seed: int | np.random.Generator | None = None,
) -> TransitStubArrays:
    """Generate a transit-stub topology directly in triplet-array form.

    This is the memory-lean core generator: it never builds a per-node
    adjacency structure, so a 100k-router topology costs O(E) array
    memory.  RNG draws happen in exactly the order of the historical
    graph-building implementation, so for any given seed the edge set,
    delays and domains are those of that implementation, bit for bit.
    """
    config = config or TransitStubConfig()
    rng = rng_from_seed(seed)

    edge_u: list[np.ndarray] = []
    edge_v: list[np.ndarray] = []
    edge_delay: list[np.ndarray] = []
    edge_kind: list[np.ndarray] = []

    def emit(us: np.ndarray, vs: np.ndarray, delays: np.ndarray, kind: int) -> None:
        edge_u.append(np.asarray(us, dtype=np.int64))
        edge_v.append(np.asarray(vs, dtype=np.int64))
        edge_delay.append(np.asarray(delays, dtype=np.float64))
        edge_kind.append(np.full(len(delays), kind, dtype=np.uint8))

    next_id = 0

    # --- transit level -----------------------------------------------------
    transit_ids: list[list[int]] = []  # per domain
    for _dom in range(config.transit_domains):
        ids = list(range(next_id, next_id + config.transit_nodes_per_domain))
        next_id += config.transit_nodes_per_domain
        pairs = _connected_random_graph(len(ids), config.intra_transit_edge_prob, rng)
        if pairs:
            pa = np.asarray(pairs, dtype=np.int64) + ids[0]
            emit(
                pa[:, 0],
                pa[:, 1],
                _draw_delays(rng, config.delay_intra_transit, len(pairs)),
                _KIND_INTRA_TRANSIT,
            )
        transit_ids.append(ids)

    # Connect transit domains: a random chain plus extra random pairs
    # (a single-domain topology has no inter-domain links at all).
    dom_order = rng.permutation(config.transit_domains)
    inter_pairs: list[tuple[int, int]] = list(zip(dom_order[:-1], dom_order[1:]))
    if config.transit_domains >= 2:
        for _ in range(config.extra_transit_transit_links):
            a, b = rng.choice(config.transit_domains, size=2, replace=False)
            inter_pairs.append((int(a), int(b)))
    seen_inter: set[tuple[int, int]] = set()
    for dom_a, dom_b in inter_pairs:
        u = int(rng.choice(transit_ids[int(dom_a)]))
        v = int(rng.choice(transit_ids[int(dom_b)]))
        pair = (min(u, v), max(u, v))
        # The historical generator drew the delay only when the edge was
        # new; replicate that so the RNG stream stays aligned.
        if pair not in seen_inter:
            seen_inter.add(pair)
            emit(
                np.asarray([u]),
                np.asarray([v]),
                _draw_delays(rng, config.delay_inter_transit, 1),
                _KIND_INTER,
            )

    # --- stub level ---------------------------------------------------------
    sizes = _stub_domain_sizes(config, rng)
    all_transit = [t for dom in transit_ids for t in dom]
    n_total = config.total_nodes
    level = np.zeros(n_total, dtype=np.uint8)
    node_domain = np.zeros(n_total, dtype=np.int64)
    transit_domain = np.zeros(n_total, dtype=np.int64)
    for dom, ids in enumerate(transit_ids):
        node_domain[ids] = dom
        transit_domain[ids] = dom

    stub_index = 0
    for transit_node in all_transit:
        t_dom = int(transit_domain[transit_node])
        for _ in range(config.stub_domains_per_transit):
            size = sizes[stub_index]
            first = next_id
            next_id += size
            level[first : first + size] = 1
            node_domain[first : first + size] = stub_index
            transit_domain[first : first + size] = t_dom
            pairs = _connected_random_graph(size, config.intra_stub_edge_prob, rng)
            if pairs:
                pa = np.asarray(pairs, dtype=np.int64) + first
                emit(
                    pa[:, 0],
                    pa[:, 1],
                    _draw_delays(rng, config.delay_intra_stub, len(pairs)),
                    _KIND_INTRA_STUB,
                )
            # Gateway: one stub router uplinks to the transit router.
            gateway = int(rng.choice(list(range(first, first + size))))
            emit(
                np.asarray([gateway]),
                np.asarray([transit_node]),
                _draw_delays(rng, config.delay_stub_transit, 1),
                _KIND_STUB_TRANSIT,
            )
            stub_index += 1

    assert next_id == n_total
    return TransitStubArrays(
        n_nodes=n_total,
        edge_u=np.concatenate(edge_u) if edge_u else np.empty(0, dtype=np.int64),
        edge_v=np.concatenate(edge_v) if edge_v else np.empty(0, dtype=np.int64),
        edge_delay=(
            np.concatenate(edge_delay) if edge_delay else np.empty(0, dtype=np.float64)
        ),
        edge_kind=(
            np.concatenate(edge_kind) if edge_kind else np.empty(0, dtype=np.uint8)
        ),
        level=level,
        node_domain=node_domain,
        transit_domain=transit_domain,
    )
