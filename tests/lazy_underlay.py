"""The graph-form oracles of the router-graph engine (networkx).

The simulator serves every router graph from one CSR engine,
:class:`repro.sim.sparse.SparseUnderlay`, and builds transit-stub
substrates straight from triplet arrays.  This module keeps the
graph-form twins the equivalence suites compare it against, so networkx
is a test dependency only:

* :class:`RouterUnderlay` — hosts attached to the routers of an
  ``nx.Graph``, one lazy Dijkstra per source router.  It refuses illegal
  input through the engine's own checks (``network._per_host``,
  ``network._check_links``) and walks paths through the engine's own
  predecessor walk, so a disagreement isolates the CSR engine itself.
* :func:`generate_transit_stub`, :func:`stub_routers` and
  :func:`router_transit_domains` — the transit-stub topology as an
  ``nx.Graph`` with ``level``/``domain`` node and ``delay``/``kind``
  edge attributes, wrapped around
  :func:`repro.topology.transit_stub.generate_transit_stub_arrays`.
* :func:`assign_link_errors` — per-edge loss drawn in ``graph.edges()``
  order, the graph twin of
  :func:`repro.topology.linkmodel.link_error_array`.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np
from scipy.sparse import csgraph

from repro.sim.network import (
    LinkId,
    NoRouteError,
    Underlay,
    _check_links,
    _per_host,
    _split_link,
)
from repro.sim.pathtree import routers_along, walk_links
from repro.topology.linkmodel import LinkErrorConfig
from repro.topology.transit_stub import (
    EDGE_KINDS,
    TransitStubConfig,
    generate_transit_stub_arrays,
)
from repro.util.rngtools import rng_from_seed

__all__ = [
    "RouterUnderlay",
    "assign_link_errors",
    "generate_transit_stub",
    "router_transit_domains",
    "stub_routers",
]


class RouterUnderlay(Underlay):
    """Hosts attached to routers of a weighted graph (e.g. transit-stub).

    Parameters
    ----------
    graph:
        Undirected router graph.  Edges need a ``delay`` attribute (one-way
        ms) and may carry an ``error`` attribute (loss probability,
        default 0).
    attachments:
        Mapping host id -> router id.  Multiple hosts may share a router.
    access_delay_ms:
        Mapping host id -> one-way access-link delay, or a scalar applied
        to every host.
    access_error:
        Loss probability of access links (scalar or per-host mapping).
    """

    def __init__(
        self,
        graph: nx.Graph,
        attachments: dict[int, int],
        *,
        access_delay_ms: float | dict[int, float] = 0.5,
        access_error: float | dict[int, float] = 0.0,
    ) -> None:
        if not attachments:
            raise ValueError("attachments must not be empty")
        for host, router in attachments.items():
            if router not in graph:
                raise KeyError(f"host {host} attached to unknown router {router}")
        self.graph = graph
        self.attachments = dict(attachments)
        self._hosts = sorted(self.attachments)
        self._access_delay = _per_host(self._hosts, access_delay_ms, "access_delay_ms")
        self._access_error = _per_host(self._hosts, access_error, "access_error", 1.0)
        self._router_ids = list(graph.nodes())
        self._router_idx = {r: i for i, r in enumerate(self._router_ids)}
        idx = self._router_idx
        edges = list(graph.edges(data=True))
        # A missing ``delay`` is networkx's default weight of 1 in the CSR.
        _check_links(
            [idx[u] for u, _, _ in edges],
            [idx[v] for _, v, _ in edges],
            [data.get("delay", 1.0) for _, _, data in edges],
            [data.get("error", 0.0) for _, _, data in edges],
        )
        self._csr = nx.to_scipy_sparse_array(
            graph, nodelist=self._router_ids, weight="delay", format="csr"
        )
        # Per-source-router Dijkstra results, filled lazily.
        self._dist: dict[int, np.ndarray] = {}
        self._pred: dict[int, np.ndarray] = {}
        # Per-ordered-host-pair memos; paths never change once built.
        self._delay_cache: dict[tuple[int, int], float] = {}
        self._path_cache: dict[tuple[int, int], tuple[LinkId, ...]] = {}
        self._error_cache: dict[tuple[int, int], float] = {}
        self._domain_map: dict[int, int] | None = None  # read on first use

    @property
    def hosts(self) -> Sequence[int]:
        return self._hosts

    def router_of(self, host: int) -> int:
        self.validate_host(host)
        return self.attachments[host]

    def host_domain(self, host: int) -> int | None:
        """Transit domain of ``host``'s router (transit-stub graphs only)."""
        self.validate_host(host)
        domains = self._domain_map
        if domains is None:
            try:
                domains = router_transit_domains(self.graph)
            except KeyError:
                # Not a transit-stub graph: remember that, probe once.
                domains = {}
            self._domain_map = domains
        return domains.get(self.attachments[host])

    def _ensure_dijkstra(self, router: int) -> None:
        if router not in self._dist:
            dist, pred = csgraph.dijkstra(
                self._csr,
                directed=False,
                indices=self._router_idx[router],
                return_predecessors=True,
            )
            self._dist[router] = dist
            self._pred[router] = pred

    def router_distance(self, r_a: int, r_b: int) -> float:
        """Shortest-path delay between two routers."""
        self._ensure_dijkstra(r_a)
        dist = float(self._dist[r_a][self._router_idx[r_b]])
        if not np.isfinite(dist):
            raise NoRouteError(f"no route between routers {r_a} and {r_b}")
        return dist

    def _router_links(self, r_a: int, r_b: int) -> list[LinkId]:
        self._ensure_dijkstra(r_a)
        target = self._router_idx[r_b]
        if not np.isfinite(self._dist[r_a][target]):
            raise NoRouteError(f"no route between routers {r_a} and {r_b}")
        return walk_links(
            self._pred[r_a], self._router_idx[r_a], target, self._router_ids
        )

    def router_path(self, r_a: int, r_b: int) -> list[int]:
        """The routers of that path, ``r_a`` first."""
        return routers_along(r_a, self._router_links(r_a, r_b))

    def delay_ms(self, a: int, b: int) -> float:
        key = (a, b)
        cached = self._delay_cache.get(key)
        if cached is not None:
            return cached
        self.validate_host(a)
        self.validate_host(b)
        if a == b:
            value = 0.0
        else:
            base = self.router_distance(self.attachments[a], self.attachments[b])
            value = self._access_delay[a] + base + self._access_delay[b]
        self._delay_cache[key] = value
        return value

    def path_links(self, a: int, b: int) -> tuple[LinkId, ...]:
        key = (a, b)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        self.validate_host(a)
        self.validate_host(b)
        if a == b:
            links: tuple[LinkId, ...] = ()
        else:
            hops = self._router_links(self.attachments[a], self.attachments[b])
            links = (("access", a), *hops, ("access", b))
        self._path_cache[key] = links
        return links

    def path_error(self, a: int, b: int) -> float:
        key = (a, b)
        cached = self._error_cache.get(key)
        if cached is not None:
            return cached
        value = self._compute_path_error(self.path_links(a, b))
        self._error_cache[key] = value
        return value

    def link_delay(self, link: LinkId) -> float:
        kind, payload = _split_link(link)
        if kind == "access" and len(payload) == 1:
            return self._access_delay[payload[0]]
        if kind == "router" and len(payload) == 2:
            u, v = payload
            return float(self.graph.edges[u, v]["delay"])
        raise KeyError(f"unknown link id {link!r}")

    def link_error(self, link: LinkId) -> float:
        kind, payload = _split_link(link)
        if kind == "access" and len(payload) == 1:
            return self._access_error[payload[0]]
        if kind == "router" and len(payload) == 2:
            u, v = payload
            return float(self.graph.edges[u, v].get("error", 0.0))
        raise KeyError(f"unknown link id {link!r}")


def generate_transit_stub(
    config: TransitStubConfig | None = None,
    *,
    seed: int | np.random.Generator | None = None,
) -> nx.Graph:
    """The transit-stub topology of
    :func:`~repro.topology.transit_stub.generate_transit_stub_arrays` as
    a connected ``nx.Graph``: integer router ids added ascending, node
    attributes ``level`` ("transit"/"stub") and ``domain`` (a
    ``(level, index)`` tuple), edge attributes ``delay`` (one-way ms)
    and ``kind`` (one of ``EDGE_KINDS``)."""
    config = config or TransitStubConfig()
    arrays = generate_transit_stub_arrays(config, seed=seed)
    graph = nx.Graph()
    for node in range(arrays.n_nodes):
        level = "transit" if arrays.level[node] == 0 else "stub"
        graph.add_node(
            node, level=level, domain=(level, int(arrays.node_domain[node]))
        )
    for u, v, delay, kind in zip(
        arrays.edge_u.tolist(),
        arrays.edge_v.tolist(),
        arrays.edge_delay.tolist(),
        arrays.edge_kind.tolist(),
    ):
        graph.add_edge(u, v, delay=delay, kind=EDGE_KINDS[kind])

    assert graph.number_of_nodes() == config.total_nodes
    assert nx.is_connected(graph)
    return graph


def stub_routers(graph: nx.Graph) -> list[int]:
    """All stub-level router ids (hosts attach at stub routers)."""
    return [n for n, data in graph.nodes(data=True) if data["level"] == "stub"]


def router_transit_domains(graph: nx.Graph) -> dict[int, int]:
    """Map every router to the index of the transit domain serving it.

    A transit router carries its domain in its ``domain`` attribute; a
    stub router belongs to the transit domain its stub domain's gateway
    edge (``kind="stub_transit"``) uplinks to.  Raises ``KeyError`` on a
    graph without transit-stub attributes.
    """
    transit_domain: dict[int, int] = {}
    for node, data in graph.nodes(data=True):
        if data["level"] == "transit":
            transit_domain[node] = int(data["domain"][1])
    # Stub domain -> transit domain, via each gateway edge.
    stub_domain_of: dict[int, int] = {}
    for u, v, data in graph.edges(data=True):
        if data.get("kind") != "stub_transit":
            continue
        stub, transit = (u, v) if graph.nodes[u]["level"] == "stub" else (v, u)
        stub_domain_of[graph.nodes[stub]["domain"][1]] = transit_domain[transit]
    domains = dict(transit_domain)
    for node, data in graph.nodes(data=True):
        if data["level"] == "stub":
            domains[node] = stub_domain_of[data["domain"][1]]
    return domains


def assign_link_errors(
    graph: nx.Graph,
    config: LinkErrorConfig | None = None,
    *,
    seed: int | np.random.Generator | None = None,
) -> None:
    """Attach an ``error`` attribute (loss probability) to every edge,
    drawn in ``graph.edges()`` order.

    With nonzero ``correlation`` c, the error *rank* of each link is a
    blend of its delay rank and an independent random rank: rank =
    |c| * delay_rank + (1-|c|) * random_rank, inverted when c < 0.  Ranks
    map linearly onto [min_error, max_error].
    """
    config = config or LinkErrorConfig()
    rng = rng_from_seed(seed)
    edges = list(graph.edges())
    m = len(edges)
    if m == 0:
        return
    lo, hi = config.min_error, config.max_error

    if config.correlation == 0.0:
        errors = rng.uniform(lo, hi, size=m)
    else:
        delays = np.array([graph.edges[e].get("delay", 1.0) for e in edges])
        delay_rank = np.argsort(np.argsort(delays)) / max(1, m - 1)
        random_rank = rng.permutation(m) / max(1, m - 1)
        c = abs(config.correlation)
        blended = c * delay_rank + (1.0 - c) * random_rank
        if config.correlation < 0:
            blended = 1.0 - blended
        errors = lo + blended * (hi - lo)

    for e, err in zip(edges, errors):
        graph.edges[e]["error"] = float(err)
