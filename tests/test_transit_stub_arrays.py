"""Triplet-array topology generation: identity pins and O(E) memory.

The transit-stub generator was refactored (PR 8) to emit CSR-triplet
arrays directly, with the historical ``nx.Graph`` builder reduced to a
thin wrapper, which now lives in ``tests/lazy_underlay.py``.  The refactor's contract is *bit-identical output for any
seed*: the RNG draw order was preserved, so the edge set, delays, and
domain assignments of every preset topology are unchanged.  This suite
pins that with content digests of each preset's topology (nodes, edges,
delay ``repr``s, domain maps), cross-checks the array and graph forms
against each other, and bounds the allocation cost of array-form
generation at scale — the whole point of the refactor is that a
100k-router topology never materializes a per-node adjacency structure.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.harness.presets import PRESETS
from repro.harness.scale import scale_ts_config
from repro.topology.transit_stub import EDGE_KINDS, generate_transit_stub_arrays
from repro.util.rngtools import spawn_rng
from tests.lazy_underlay import (
    generate_transit_stub,
    router_transit_domains,
    stub_routers,
)

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
