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
usable at 100k+ routers.  Each domain's pairs are drawn as one mask over
its upper triangle, with no per-pair Python work.  It draws from the RNG
in the exact order of the original graph-first implementation, so
existing seeds reproduce bit-identically: ``tests/test_transit_stub_arrays.py``
pins every output array of the presets and of the scale and degenerate
recipes to digests, and one domain's draw to the set-and-sort reference
in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.util.rngtools import rng_from_seed
from repro.util.validation import check_fields, checked, count, pair, positive, probability

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

_NO_NODES = np.empty(0, dtype=np.int64)


def _delay_pair(name: str, value) -> tuple[float, float]:
    """A one-way delay range: finite reals ``0 < lo <= hi``, as a tuple or a
    list, stored as a tuple of floats so the config stays hashable."""
    lo, hi = pair(positive)(name, value)
    return (float(lo), float(hi))


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

    total_nodes: int = checked(count(), 792)
    transit_domains: int = checked(count(), 4)
    transit_nodes_per_domain: int = checked(count(), 6)
    stub_domains_per_transit: int = checked(count(), 3)
    intra_transit_edge_prob: float = checked(probability, 0.6)
    intra_stub_edge_prob: float = checked(probability, 0.4)
    extra_transit_transit_links: int = checked(count(0), 2)
    delay_inter_transit: tuple[float, float] = checked(_delay_pair, (20.0, 50.0))
    delay_intra_transit: tuple[float, float] = checked(_delay_pair, (5.0, 20.0))
    delay_stub_transit: tuple[float, float] = checked(_delay_pair, (2.0, 10.0))
    delay_intra_stub: tuple[float, float] = checked(_delay_pair, (0.5, 3.0))

    def __post_init__(self) -> None:
        check_fields(self)
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


@lru_cache(maxsize=64)
def _pair_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs ``(iu[i], ju[i])`` of ``0..n-1`` in row-major upper-triangle
    order, and ``index[a, b] == index[b, a]``, the position of pair
    ``{a, b}`` in it.  Read-only; an entry holds 16·n² bytes, and stub
    domains stay at tens of routers at every scale."""
    iu, ju = np.triu_indices(n, k=1)
    index = np.zeros((n, n), dtype=np.intp)
    index[iu, ju] = index[ju, iu] = np.arange(iu.size)
    for table in (iu, ju, index):
        table.flags.writeable = False
    return iu, ju, index


def _connected_random_graph(
    n: int, p: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Edges ``(us[i], vs[i])``, ``us < vs``, of a connected
    Erdos-Renyi-style graph on nodes 0..n-1, in lexicographic order.

    Connectivity is guaranteed by first threading a random spanning chain
    (a random permutation path), then adding each remaining pair with
    probability ``p`` — GT-ITM uses the same trick.

    Chain and drawn pairs are one boolean mask over the row-major upper
    triangle, whose order is already lexicographic.  The pairs off the
    chain take one ``Generator.random`` block, which consumes the bit
    stream exactly like one scalar draw per pair in row-major order, the
    chain pairs drawing nothing.
    """
    if n <= 0:
        return _NO_NODES, _NO_NODES
    order = rng.permutation(n)
    if n < 2:
        return _NO_NODES, _NO_NODES
    iu, ju, index = _pair_tables(n)
    keep = np.zeros(iu.size, dtype=bool)
    keep[index[order[:-1], order[1:]]] = True
    keep[~keep] = rng.random(iu.size - (n - 1)) < p
    return iu[keep], ju[keep]


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
    per_domain = config.transit_nodes_per_domain

    edge_u: list[np.ndarray] = []
    edge_v: list[np.ndarray] = []
    edge_delay: list[np.ndarray] = []
    kinds: list[int] = []
    counts: list[int] = []

    def emit(us: np.ndarray, vs: np.ndarray, delays: np.ndarray, kind: int) -> None:
        edge_u.append(us)
        edge_v.append(vs)
        edge_delay.append(delays)
        kinds.append(kind)
        counts.append(len(delays))

    # --- transit level -----------------------------------------------------
    for dom in range(config.transit_domains):
        first = dom * per_domain
        us, vs = _connected_random_graph(
            per_domain, config.intra_transit_edge_prob, rng
        )
        emit(
            us + first,
            vs + first,
            _draw_delays(rng, config.delay_intra_transit, us.size),
            _KIND_INTRA_TRANSIT,
        )

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
        u = int(dom_a) * per_domain + int(rng.integers(per_domain))
        v = int(dom_b) * per_domain + int(rng.integers(per_domain))
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
    stubs_per = config.stub_domains_per_transit
    n_transit = first = config.n_transit
    for stub_index, size in enumerate(sizes):
        us, vs = _connected_random_graph(size, config.intra_stub_edge_prob, rng)
        emit(
            us + first,
            vs + first,
            _draw_delays(rng, config.delay_intra_stub, us.size),
            _KIND_INTRA_STUB,
        )
        # Gateway: one stub router uplinks to the transit router (transit
        # routers serve ``stubs_per`` consecutive stub domains each).
        # ``integers(size)`` is the one bounded draw that picking from the
        # domain's ids with ``rng.choice`` makes, so the stream is unchanged.
        emit(
            np.asarray([first + int(rng.integers(size))]),
            np.asarray([stub_index // stubs_per]),
            _draw_delays(rng, config.delay_stub_transit, 1),
            _KIND_STUB_TRANSIT,
        )
        first += size

    transit_dom = np.arange(n_transit) // per_domain
    stub_dom = np.repeat(np.arange(len(sizes)), sizes)
    level = np.repeat(np.asarray([0, 1], dtype=np.uint8), [n_transit, stub_dom.size])
    return TransitStubArrays(
        n_nodes=config.total_nodes,
        edge_u=np.concatenate(edge_u),
        edge_v=np.concatenate(edge_v),
        edge_delay=np.concatenate(edge_delay),
        edge_kind=np.repeat(np.asarray(kinds, dtype=np.uint8), counts),
        level=level,
        node_domain=np.concatenate([transit_dom, stub_dom]),
        transit_domain=np.concatenate(
            [transit_dom, transit_dom[stub_dom // stubs_per]]
        ),
    )
