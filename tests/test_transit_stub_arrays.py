"""Triplet-array topology generation: identity pins and O(E) memory.

The transit-stub generator was refactored (PR 8) to emit CSR-triplet
arrays directly, with the historical ``nx.Graph`` builder reduced to a
thin wrapper, which now lives in ``tests/lazy_underlay.py``.  The refactor's contract is *bit-identical output for any
seed*: the RNG draw order was preserved, so the edge set, delays, and
domain assignments of every preset topology are unchanged.  This suite
pins that with content digests of each preset's topology (nodes, edges,
delay ``repr``s, domain maps) and of every output array of the scale
and degenerate recipes, holds one domain's draw to the set-and-sort
reference in ``tests/oracles.py`` (the graph form wraps the array
generator, so it is no independent oracle), cross-checks the array and
graph forms against each other, and bounds the allocation cost of
array-form generation at scale — the whole point of the refactor is that
a 100k-router topology never materializes a per-node adjacency structure.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.presets import PRESETS
from repro.harness.scale import scale_ts_config
from repro.topology.transit_stub import (
    EDGE_KINDS,
    TransitStubConfig,
    _connected_random_graph,
    generate_transit_stub_arrays,
)
from repro.util.rngtools import spawn_rng
from tests.lazy_underlay import (
    generate_transit_stub,
    router_transit_domains,
    stub_routers,
)
from tests.oracles import connected_random_graph

#: (graph digest, transit-domain digest) per preset, for the topology each
#: preset's experiments actually run on (seed = spawn_rng(seed, "topology")).
#: Regenerating these is only legitimate when the topology is *meant* to
#: change — a silent diff here means every downstream figure moved.
TOPOLOGY_PINS = {
    "paper": (
        "a14c535ed7dd74674bf48939b4b3534db65e8962b49e1efcfd9673a4eb7d4838",
        "dca88f8a8f40822c1da9130a08daf3fe7472430a01ae1242d53a452b575058e9",
    ),
    "quick": (
        "6fc433817a748f6c834dca5e2cead504d9192343f52ccf3bd8c06580277e9933",
        "05c2a1b538833d7c1a7507634641de62ff99118440f72015d07b5f5b591cdf0a",
    ),
    "smoke": (
        "1a904171c08c3741341330c7eb6ab8725e2a58dfc65f2e7669510f0ae6de1e8d",
        "bac7d4774b1d6351c8e7d2d0aae1e25aa17306e4f3119211ad7ce3fe748b4946",
    ),
}


def _graph_digest(graph) -> str:
    nodes = sorted(
        [int(n), graph.nodes[n]["level"], list(graph.nodes[n]["domain"])]
        for n in graph.nodes
    )
    edges = sorted(
        [
            min(int(u), int(v)),
            max(int(u), int(v)),
            repr(graph.edges[u, v]["delay"]),
            graph.edges[u, v]["kind"],
        ]
        for u, v in graph.edges
    )
    blob = json.dumps({"nodes": nodes, "edges": edges})
    return hashlib.sha256(blob.encode()).hexdigest()


def _domain_digest(graph) -> str:
    items = sorted((int(k), int(v)) for k, v in router_transit_domains(graph).items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


class TestIdentityPins:
    @pytest.mark.parametrize("name", sorted(TOPOLOGY_PINS))
    def test_preset_topology_unchanged(self, name):
        preset = PRESETS[name]
        graph = generate_transit_stub(
            preset.ts_config, seed=spawn_rng(preset.seed, "topology")
        )
        expected_graph, expected_domains = TOPOLOGY_PINS[name]
        assert _graph_digest(graph) == expected_graph
        assert _domain_digest(graph) == expected_domains


#: Every ``TransitStubArrays`` field, in digest order.
_FIELDS = (
    "n_nodes",
    "edge_u",
    "edge_v",
    "edge_delay",
    "edge_kind",
    "level",
    "node_domain",
    "transit_domain",
)

#: Array recipes beyond the presets: the Chapter 7 / scale-walk shapes,
#: and three degenerate shapes (no inter-domain links; single-router
#: transit domains; every stub domain a single router).
ARRAY_CONFIGS = {
    "scale_150": lambda: scale_ts_config(150),
    "scale_1400": lambda: scale_ts_config(1400),
    "scale_10000": lambda: scale_ts_config(10_000),
    "one_transit_domain": lambda: TransitStubConfig(
        total_nodes=60,
        transit_domains=1,
        transit_nodes_per_domain=4,
        stub_domains_per_transit=3,
    ),
    "one_router_per_transit_domain": lambda: TransitStubConfig(
        total_nodes=60,
        transit_domains=3,
        transit_nodes_per_domain=1,
        stub_domains_per_transit=2,
    ),
    "unit_stub_domains": lambda: TransitStubConfig(
        total_nodes=18,
        transit_domains=2,
        transit_nodes_per_domain=3,
        stub_domains_per_transit=2,
    ),
}

#: SHA-256 over all eight fields (dtype, shape and bytes) of each recipe's
#: topology at ``spawn_rng(7, "topology")``, recorded from the set-and-sort
#: generator before its pair draw moved to array form.
ARRAY_PINS = {
    "scale_150": "ce76b3d9bbff82d9d273d5eedeb9612bde1e02ad91071fc715454d7342471042",
    "scale_1400": "ed832f9e90b4b9820d5b72a26e3c52371be2c6cedfa6329233605edda678cba7",
    "scale_10000": "d4a5cdf503e033da782d405f3586df5c34ba966e9039504b31bd4db567fddd9e",
    "one_transit_domain": (
        "dc70caa0ba5207c9570d39053b05319c7cd517a2db79f823bee84afe906dc66d"
    ),
    "one_router_per_transit_domain": (
        "b5ea19cb8f9d1fdc6178c2b3d1ce23b59315867d4dc81a694bd9d99aa91ddd89"
    ),
    "unit_stub_domains": (
        "da82326b2d5b518a9ea7171972b7342cb9ece33de9d37e57e9889b0e176c81e3"
    ),
}


def _arrays_digest(arrays) -> str:
    digest = hashlib.sha256()
    for name in _FIELDS:
        value = np.asarray(getattr(arrays, name))
        digest.update(f"{name}:{value.dtype.str}:{value.shape}".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


class TestArrayPins:
    @pytest.mark.parametrize("name", sorted(ARRAY_PINS))
    def test_recipe_arrays_unchanged(self, name):
        arrays = generate_transit_stub_arrays(
            ARRAY_CONFIGS[name](), seed=spawn_rng(7, "topology")
        )
        assert _arrays_digest(arrays) == ARRAY_PINS[name]

    def test_unit_stub_domains_recipe_is_degenerate(self):
        arrays = generate_transit_stub_arrays(
            ARRAY_CONFIGS["unit_stub_domains"](), seed=spawn_rng(7, "topology")
        )
        stub = arrays.level == 1
        assert np.bincount(arrays.node_domain[stub]).tolist() == [1] * 12
        assert EDGE_KINDS.index("intra_stub") not in arrays.edge_kind.tolist()


class TestDomainGraph:
    """One domain's edges against the set-and-sort reference in
    ``tests/oracles.py``: equal edges, and the stream left at the same
    point, so every later domain draws what it drew before."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 40),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_and_stream(self, n, p, seed):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = connected_random_graph(n, p, ref_rng)
        us, vs = _connected_random_graph(n, p, rng)
        assert list(zip(us.tolist(), vs.tolist())) == expected
        assert rng.random() == ref_rng.random()


class TestArrayGraphAgreement:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_arrays_match_graph_form(self, name):
        preset = PRESETS[name]
        seed_args = dict(seed=spawn_rng(preset.seed, "topology"))
        arr = generate_transit_stub_arrays(preset.ts_config, **seed_args)
        seed_args = dict(seed=spawn_rng(preset.seed, "topology"))
        graph = generate_transit_stub(preset.ts_config, **seed_args)

        assert arr.n_nodes == graph.number_of_nodes()
        assert arr.n_edges == graph.number_of_edges()
        for i in range(arr.n_edges):
            u, v = int(arr.edge_u[i]), int(arr.edge_v[i])
            data = graph.edges[u, v]
            assert data["delay"] == float(arr.edge_delay[i])
            assert data["kind"] == EDGE_KINDS[int(arr.edge_kind[i])]
        for n in graph.nodes:
            level = "transit" if arr.level[n] == 0 else "stub"
            assert graph.nodes[n]["level"] == level
            kind, idx = graph.nodes[n]["domain"]
            assert int(arr.node_domain[n]) == idx

    def test_stub_ids_match_graph_helper(self):
        preset = PRESETS["quick"]
        arr = generate_transit_stub_arrays(
            preset.ts_config, seed=spawn_rng(preset.seed, "topology")
        )
        graph = generate_transit_stub(
            preset.ts_config, seed=spawn_rng(preset.seed, "topology")
        )
        assert arr.stub_ids().tolist() == stub_routers(graph)

    def test_transit_domain_matches_graph_helper(self):
        preset = PRESETS["quick"]
        arr = generate_transit_stub_arrays(
            preset.ts_config, seed=spawn_rng(preset.seed, "topology")
        )
        graph = generate_transit_stub(
            preset.ts_config, seed=spawn_rng(preset.seed, "topology")
        )
        domains = router_transit_domains(graph)
        for n, dom in domains.items():
            assert int(arr.transit_domain[n]) == dom


class TestScaleCost:
    def test_30k_router_generation_is_linear_memory(self):
        # A 30k-router topology must cost O(E) array memory — tens of MiB
        # of transient allocations, never a V^2 structure (which would be
        # 7.2 GiB of float64 here).
        cfg = scale_ts_config(30_000)
        tracemalloc.start()
        try:
            arr = generate_transit_stub_arrays(cfg, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert arr.n_nodes == 30_000
        # edge growth is linear: a few links per router
        assert arr.n_edges < 6 * arr.n_nodes
        assert peak < 128 * 2**20
        # connectivity witnesses without building adjacency: every router
        # appears in at least one edge
        touched = np.zeros(arr.n_nodes, dtype=bool)
        touched[arr.edge_u] = True
        touched[arr.edge_v] = True
        assert touched.all()

    def test_scale_config_rejects_tiny_populations(self):
        with pytest.raises(ValueError):
            scale_ts_config(100)

    def test_scale_config_total_nodes_track_request(self):
        for n in (120, 600, 10_000, 100_000):
            assert scale_ts_config(n).total_nodes == n
