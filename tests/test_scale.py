"""The Chapter 7 static-join scale model (harness/scale.py).

Structural guarantees first: every protocol walk produces a valid
spanning tree (one root, acyclic, degree-bounded) with positive modelled
join latencies, deterministically, and identically on sparse and lazy
substrates — the scale model must not care which engine serves its
queries (the lazy engine serves no rows, so it is walked through the
per-pair reference of ``tests/scale_reference.py``).  Then the baselines: Prim's MST is pinned against its
optimality property (no protocol tree can beat its total RTT weight) and
against a brute-force Kruskal on a small instance; tree metrics are
pinned against a naive reference implementation.  Finally the ch7 sweep
itself is smoke-run end to end through the figure registry, and one
10 000-router cell runs under an address-space cap no V^2 array fits in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.harness.scale import (
    SCALE_PROTOCOLS,
    build_scale_tree,
    prim_mst_parents,
    scale_tree_metrics,
    scale_ts_config,
)
from repro.sim.sparse import SparseUnderlay
from repro.topology.transit_stub import (
    TransitStubConfig,
    generate_transit_stub_arrays,
)
from tests import scale_reference as ref
from tests.helpers import transit_stub_attachments
from tests.lazy_underlay import RouterUnderlay, generate_transit_stub

TINY_TS = TransitStubConfig(
    total_nodes=60,
    transit_domains=2,
    transit_nodes_per_domain=2,
    stub_domains_per_transit=2,
)


def _underlays(seed=11, n_hosts=24):
    """The same substrate served lazily and sparsely."""
    arr = generate_transit_stub_arrays(TINY_TS, seed=seed)
    graph = generate_transit_stub(TINY_TS, seed=seed)
    attachments = transit_stub_attachments(graph, n_hosts, seed)
    lazy = RouterUnderlay(graph, attachments)
    sparse = SparseUnderlay(
        arr.n_nodes, arr.edge_u, arr.edge_v, arr.edge_delay, attachments
    )
    return lazy, sparse


def _assert_valid_tree(tree, n_members, degree_limit):
    parents = tree.parents
    assert parents.shape == (n_members,)
    assert parents[0] == -1 and (parents[1:] >= 0).all()
    # acyclic and fully attached: every member reaches the source
    for node in range(1, n_members):
        seen = set()
        cur = node
        while cur != 0:
            assert cur not in seen
            seen.add(cur)
            cur = int(parents[cur])
    # degree bound
    counts = np.bincount(parents[parents >= 0], minlength=n_members)
    assert counts.max() <= degree_limit
    assert tree.join_latency_ms[0] == 0.0
    assert (tree.join_latency_ms[1:] > 0).all()
    assert tree.iterations[0] == 0
    assert (tree.iterations[1:] >= 1).all()


def _tree_weight(underlay, parents):
    return sum(
        underlay.rtt_ms(int(parents[n]), n) for n in range(1, parents.size)
    )


class TestTreeConstruction:
    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_valid_tree_every_protocol(self, protocol):
        _, sparse = _underlays()
        tree = build_scale_tree(sparse, protocol, 24, degree_limit=3)
        _assert_valid_tree(tree, 24, degree_limit=3)

    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_deterministic(self, protocol):
        _, sparse = _underlays()
        a = build_scale_tree(sparse, protocol, 20)
        b = build_scale_tree(sparse, protocol, 20)
        np.testing.assert_array_equal(a.parents, b.parents)
        np.testing.assert_array_equal(a.join_latency_ms, b.join_latency_ms)
        np.testing.assert_array_equal(a.iterations, b.iterations)

    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_engine_independent(self, protocol):
        # lazy and sparse substrates answer identically, so the walks —
        # pure functions of the answers — must produce identical trees.
        lazy, sparse = _underlays()
        on_lazy = ref.build(lazy, protocol, 24)
        on_sparse = build_scale_tree(sparse, protocol, 24)
        np.testing.assert_array_equal(on_lazy.parents, on_sparse.parents)
        np.testing.assert_array_equal(
            on_lazy.join_latency_ms, on_sparse.join_latency_ms
        )

    def test_degree_limit_one_builds_a_chain(self):
        _, sparse = _underlays()
        tree = build_scale_tree(sparse, "btp", 8, degree_limit=1)
        counts = np.bincount(tree.parents[tree.parents >= 0], minlength=8)
        assert counts.max() == 1

    def test_rejects_bad_arguments(self):
        _, sparse = _underlays()
        with pytest.raises(ValueError):
            build_scale_tree(sparse, "mst", 10)
        with pytest.raises(ValueError):
            build_scale_tree(sparse, "vdm", 1)
        with pytest.raises(ValueError):
            build_scale_tree(sparse, "vdm", 10, degree_limit=0)
        with pytest.raises(ValueError):
            build_scale_tree(sparse, "vdm", 10_000)


class TestMst:
    def test_mst_weight_lower_bounds_every_protocol(self):
        _, sparse = _underlays(seed=13)
        mst = prim_mst_parents(sparse, 24)
        mst_weight = _tree_weight(sparse, mst)
        for protocol in SCALE_PROTOCOLS:
            tree = build_scale_tree(sparse, protocol, 24)
            assert mst_weight <= _tree_weight(sparse, tree.parents) + 1e-9

    def test_matches_bruteforce_kruskal(self):
        import networkx as nx

        _, sparse = _underlays(seed=29, n_hosts=12)
        parents = prim_mst_parents(sparse, 12)
        g = nx.Graph()
        for a in range(12):
            for b in range(a + 1, 12):
                g.add_edge(a, b, weight=sparse.rtt_ms(a, b))
        expected = nx.minimum_spanning_tree(g).size(weight="weight")
        assert _tree_weight(sparse, parents) == pytest.approx(expected)

    def test_engine_independent(self):
        lazy, sparse = _underlays(seed=5)
        np.testing.assert_array_equal(
            ref.prim(lazy, 20), prim_mst_parents(sparse, 20)
        )

    def test_rejects_bad_arguments(self):
        _, sparse = _underlays()
        with pytest.raises(ValueError):
            prim_mst_parents(sparse, 1)
        with pytest.raises(ValueError):
            prim_mst_parents(sparse, 10_000)


class TestMetrics:
    def _reference(self, underlay, parents, include_stress=True):
        """Naive re-derivation: per-node root paths and full Counters."""
        from collections import Counter

        n = parents.size
        stretch, depths = [], []
        usage = Counter()
        for node in range(1, n):
            # each tree edge carries one copy of the packet: its physical
            # links count once, regardless of how many descendants follow
            if include_stress:
                usage.update(underlay.path_links(int(parents[node]), node))
            overlay = 0.0
            depth = 0
            cur = node
            while cur != 0:
                p = int(parents[cur])
                overlay += underlay.delay_ms(p, cur)
                depth += 1
                cur = p
            unicast = underlay.delay_ms(0, node)
            if unicast > 0:
                stretch.append(overlay / unicast)
            depths.append(depth)
        return stretch, depths, usage

    def test_matches_naive_reference(self):
        _, sparse = _underlays(seed=3)
        tree = build_scale_tree(sparse, "vdm", 24)
        m = scale_tree_metrics(sparse, tree.parents)
        stretch, depths, usage = self._reference(sparse, tree.parents)
        assert m.stretch_avg == pytest.approx(sum(stretch) / len(stretch))
        assert m.stretch_max == pytest.approx(max(stretch))
        assert m.depth_avg == pytest.approx(sum(depths) / len(depths))
        assert m.depth_max == max(depths)
        assert m.links_used == len(usage)
        assert m.stress_max == max(usage.values())
        assert m.stress_avg == pytest.approx(
            sum(usage.values()) / len(usage)
        )
        assert m.n_receivers == 23

    def test_stress_can_be_skipped(self):
        _, sparse = _underlays(seed=3)
        tree = build_scale_tree(sparse, "hmtp", 16)
        m = scale_tree_metrics(sparse, tree.parents, include_stress=False)
        full = scale_tree_metrics(sparse, tree.parents)
        assert m.stress_avg == 0.0 and m.links_used == 0
        assert m.stretch_avg == full.stretch_avg
        assert m.depth_max == full.depth_max

    def test_rejects_forests(self):
        _, sparse = _underlays()
        parents = np.array([-1, 0, -1, 2])
        with pytest.raises(ValueError):
            scale_tree_metrics(sparse, parents)

    @pytest.mark.parametrize("kernel", ["batched", "scalar"])
    @pytest.mark.parametrize(
        "parents",
        [[-1, 0, 3, 2, 0], [-1, 0, 2, 0], [-1, 0, 4, 2, 3, 0]],
        ids=["two-cycle", "self-parent", "three-cycle"],
    )
    def test_rejects_members_the_root_cannot_reach(self, parents, kernel):
        # One root, so "exactly one root" passes — but members 2.. hang
        # off a cycle.  The parent commit returned a normal-looking
        # record over the members it happened to reach.
        for underlay in _underlays():
            with pytest.raises(ValueError, match="not reachable from the root"):
                ref.metrics(underlay, np.array(parents), kernel=kernel)

    @pytest.mark.parametrize("kernel", ["batched", "scalar"])
    @pytest.mark.parametrize("bad", [4, 99, -2])
    def test_rejects_out_of_range_parent_ids(self, bad, kernel):
        for underlay in _underlays():
            with pytest.raises(ValueError, match="outside"):
                ref.metrics(underlay, np.array([-1, 0, bad, 1]), kernel=kernel)


class TestScaleConfig:
    def test_total_nodes_track_request(self):
        for n in (120, 599, 600, 4100, 41_000):
            assert scale_ts_config(n).total_nodes == n

    @pytest.mark.parametrize("n", [600.5, 600.0, float("nan")])
    def test_rejects_non_integral_router_counts(self, n):
        # 600.5 went straight into TransitStubConfig, whose generator
        # then never returned.
        with pytest.raises(ValueError, match="n_routers"):
            scale_ts_config(n)

    def test_domain_count_grows_linearly(self):
        small = scale_ts_config(10_000)
        large = scale_ts_config(100_000)
        assert large.transit_domains == pytest.approx(
            10 * small.transit_domains, rel=0.05
        )


class TestCh7Sweep:
    def test_smoke_sweep_end_to_end(self, tmp_path, monkeypatch):
        from repro.harness import experiments as exp
        from repro.harness.registry import run_experiment
        from repro.util import artifacts

        monkeypatch.setenv(artifacts.CACHE_DIR_ENV, str(tmp_path / "cache"))
        exp.clear_cache()
        try:
            table = run_experiment("fig7_stretch", "smoke")
            names = {s.name for s in table.series}
            assert names >= {"VDM", "HMTP", "BTP", "MST"}
            joinlat = run_experiment("fig7_joinlat", "smoke")
            lat_names = {s.name for s in joinlat.series}
            assert "MST" not in lat_names  # no join walk to model
            for name in ("VDM", "HMTP", "BTP"):
                for point in joinlat.get(name).values:
                    assert point.mean > 0
        finally:
            exp.clear_cache()


# What the child of ``TestAddressSpaceCap`` runs: a 10 000-router sparse
# substrate with 1 000 members, the VDM tree from rows and — on a fresh
# twin — from the per-pair reference, then the metrics pass, with
# ``row_stats()`` read after each phase.  The reference comes from the
# tests' own ``scale_reference`` module, hence the repo root on the path.  A dense all-pairs engine needs
# ~7.8 GiB here and dies on the cap; one V x V float64 array (763 MiB) would fit
# under it, so where /proc reports address space the child also says how
# far its own grew past the imports.
_CAPPED_CELL = """
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from repro.harness.scale import build_scale_tree, scale_tree_metrics, scale_ts_config
from repro.harness.substrates import build_transit_stub_underlay
from repro.util.memprof import _read_status_kib as vm_kib  # None without /proc
from tests import scale_reference as ref

def substrate():
    return build_transit_stub_underlay(
        n_hosts=1000, seed=2011, ts_config=scale_ts_config(10_000)
    )

def record(tree):
    return [tree.parents.tolist(), tree.join_latency_ms.tolist(),
            tree.iterations.tolist()]

mapped_kib = vm_kib("VmSize")
underlay = substrate()
rows = build_scale_tree(underlay, "vdm", 1000)
after_tree = underlay.row_stats()
metrics = scale_tree_metrics(underlay, rows.parents)
after_metrics = underlay.row_stats()
pairs = ref.build(substrate(), "vdm", 1000, kernel="scalar")
print(json.dumps({
    "n_routers": underlay.n_routers, "stretch": metrics.stretch_avg,
    "rows": record(rows), "pairs": record(pairs),
    "after_tree": after_tree, "after_metrics": after_metrics,
    "grew_kib": mapped_kib and vm_kib("VmPeak") - mapped_kib,
}))
"""


class TestAddressSpaceCap:
    @pytest.mark.slow
    def test_10k_router_cell_fits_2gib_and_reuses_its_rows(self, tmp_path):
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("no RLIMIT_AS on this platform")
        env = dict(os.environ, REPRO_SUBSTRATE_CACHE="0")
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        child = subprocess.run(
            [sys.executable, "-c", _CAPPED_CELL],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr[-2000:]
        cell = json.loads(child.stdout)
        assert cell["n_routers"] == 10_000 and cell["stretch"] > 0
        assert cell["rows"] == cell["pairs"]  # parents, latencies, iterations
        if cell["grew_kib"] is not None:  # never by one V x V float64 array
            assert cell["grew_kib"] * 1024 < 10_000**2 * 8, cell["grew_kib"]
        # Row reuse: the walk computed each attachment-router row once, in
        # plan blocks, and kept them; every row the metrics pass computed
        # is a predecessor upgrade of one it held, never a fresh distance
        # row.
        tree, metrics = cell["after_tree"], cell["after_metrics"]
        assert tree["demand_rows"] == 0 and tree["plan_rows"] > 0, tree
        assert metrics["evictions"] == 0, metrics
        computed = (metrics["plan_rows"] + metrics["demand_rows"]) - (
            tree["plan_rows"] + tree["demand_rows"]
        )
        assert computed == metrics["pred_upgrades"] - tree["pred_upgrades"] > 0
