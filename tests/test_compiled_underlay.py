"""CompiledUnderlay equivalence: compiled answers == lazy answers, bit for bit.

The compilation layer is only allowed to change *when* shortest paths
are computed, never *what* any query returns.  This suite pins that: a
hypothesis sweep over random transit-stub configurations compares every
ordered host pair across both implementations, the artifact cache
round-trip is checked to be lossless, and a whole smoke-scale experiment
group is rendered from the builder's compiled substrates and from their
lazy twins (``tests.helpers.lazy_transit_stub_underlay``) and compared as
table JSON.

The pair-error table is compiled by one propagation down the
shortest-path trees (``repro.sim.pathtree``).  The per-pair replay it
replaced lives on here as :func:`_replay_pair_errors`, the oracle the
table must equal byte for byte.
"""

from __future__ import annotations

import shutil

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.harness import cells, experiments as exp
from repro.harness.presets import PRESETS
from repro.harness.substrates import (
    _planetlab_loss_matrix,
    _transit_stub_attachments,
    build_planetlab_underlay,
    build_transit_stub_underlay,
)
from repro.sim import compiled as compiled_module
from repro.sim import network as network_module
from repro.sim.compiled import ARTIFACT_SCHEMA, CompiledUnderlay
from repro.sim.network import RouterUnderlay
from repro.sim.sparse import SparseUnderlay
from repro.topology.linkmodel import LinkErrorConfig, assign_link_errors
from repro.topology.transit_stub import TransitStubConfig, generate_transit_stub
from repro.util import artifacts
from repro.util.rngtools import spawn_rng
from tests.helpers import lazy_transit_stub_underlay

TINY_TS = TransitStubConfig(
    total_nodes=60,
    transit_domains=2,
    transit_nodes_per_domain=2,
    stub_domains_per_transit=2,
)


def _build_pair(seed, n_hosts, errors):
    """The same graph + attachments through both implementations."""
    graph = generate_transit_stub(TINY_TS, seed=spawn_rng(seed, "topology"))
    if errors is not None:
        assign_link_errors(graph, errors, seed=spawn_rng(seed, "errors"))
    attachments = _transit_stub_attachments(graph, n_hosts, seed)
    return (
        RouterUnderlay(graph, attachments),
        CompiledUnderlay(graph, attachments),
    )


def _assert_equivalent(lazy, compiled):
    hosts = sorted(compiled.attachments)
    for a in hosts:
        for b in hosts:
            assert compiled.delay_ms(a, b) == lazy.delay_ms(a, b)
            assert compiled.rtt_ms(a, b) == lazy.rtt_ms(a, b)
            assert compiled.path_links(a, b) == lazy.path_links(a, b)
            assert compiled.path_error(a, b) == lazy.path_error(a, b)


def _sparse_twin(graph, attachments, **access):
    """A ``SparseUnderlay`` of the same recipe (router ids must be 0..n-1)."""
    edges = list(graph.edges(data=True))
    return SparseUnderlay(
        graph.number_of_nodes(),
        np.asarray([u for u, _, _ in edges], dtype=np.int64),
        np.asarray([v for _, v, _ in edges], dtype=np.int64),
        np.asarray([d["delay"] for _, _, d in edges], dtype=np.float64),
        attachments,
        edge_error=np.asarray([d.get("error", 0.0) for _, _, d in edges]),
        **access,
    )


def _replay_pair_errors(underlay):
    """The parent's compile step, kept as the oracle: replay
    ``_compute_path_error`` over the reconstructed path of every ordered
    host pair (``nan`` where there is no route)."""
    hosts = underlay.hosts
    err = np.zeros((len(hosts), len(hosts)))
    for i, a in enumerate(hosts):
        for j, b in enumerate(hosts):
            if i != j:
                try:
                    err[i, j] = underlay._compute_path_error(underlay.path_links(a, b))
                except nx.NetworkXNoPath:
                    err[i, j] = np.nan
    return err


def _assert_same_table(actual, expected):
    """Byte equality, with ``nan`` cells compared by position."""
    assert np.array_equal(np.isnan(actual), np.isnan(expected))
    assert (
        np.nan_to_num(actual, nan=-1.0).tobytes()
        == np.nan_to_num(expected, nan=-1.0).tobytes()
    )


class TestEquivalence:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_hosts=st.integers(min_value=4, max_value=16),
        max_error=st.sampled_from([None, 0.02, 0.1]),
    )
    def test_compiled_matches_lazy_bitwise(self, seed, n_hosts, max_error):
        errors = None if max_error is None else LinkErrorConfig(max_error=max_error)
        lazy, compiled = _build_pair(seed, n_hosts, errors)
        _assert_equivalent(lazy, compiled)

    def test_reference_oracle_agrees_on_one_instance(self):
        _, compiled = _build_pair(11, 10, LinkErrorConfig(max_error=0.05))
        hosts = sorted(compiled.attachments)
        for a in hosts:
            for b in hosts:
                assert compiled.delay_ms(a, b) == RouterUnderlay.delay_ms(
                    compiled, a, b
                )
                assert compiled.path_links(a, b) == RouterUnderlay.path_links(
                    compiled, a, b
                )
                assert compiled.path_error(a, b) == RouterUnderlay.path_error(
                    compiled, a, b
                )

    def test_router_queries_match(self):
        lazy, compiled = _build_pair(3, 8, None)
        routers = sorted(set(compiled.attachments.values()))
        targets = list(compiled.graph.nodes)[:20]
        for r in routers:
            for t in targets:
                assert compiled.router_distance(r, t) == lazy.router_distance(r, t)
                assert compiled.router_path(r, t) == lazy.router_path(r, t)

    def test_non_attachment_router_falls_back_to_lazy(self):
        lazy, compiled = _build_pair(5, 6, None)
        att = set(compiled.attachments.values())
        other = next(r for r in compiled.graph.nodes if r not in att)
        target = next(iter(att))
        assert compiled.router_distance(other, target) == lazy.router_distance(
            other, target
        )

    def test_unknown_host_error_parity(self):
        lazy, compiled = _build_pair(2, 5, None)
        known = next(iter(compiled.attachments))
        with pytest.raises(KeyError) as lazy_err:
            lazy.delay_ms(known, 9999)
        with pytest.raises(KeyError) as compiled_err:
            compiled.delay_ms(known, 9999)
        assert str(compiled_err.value) == str(lazy_err.value)


@st.composite
def _lossy_recipes(draw):
    """Small lossy substrates that a 60-router transit-stub with a dozen
    hosts does not produce: paths of >= 8 links (the ``np.prod`` branch of
    ``_compute_path_error``), unit-weight grids whose shortest paths tie
    and differ by direction, zero-delay links (hop depth != distance
    order), hosts sharing a router, per-host access errors,
    non-contiguous host ids, islands no route reaches."""
    shape = draw(st.sampled_from(["chain", "ring", "grid", "random"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if shape == "chain":
        graph = nx.path_graph(draw(st.integers(min_value=9, max_value=16)))
    elif shape == "ring":
        graph = nx.cycle_graph(draw(st.integers(min_value=16, max_value=24)))
    elif shape == "grid":
        graph = nx.convert_node_labels_to_integers(
            nx.grid_2d_graph(
                draw(st.integers(min_value=2, max_value=5)),
                draw(st.integers(min_value=2, max_value=5)),
            )
        )
    else:
        n = draw(st.integers(min_value=4, max_value=14))
        graph = nx.gnm_random_graph(n, n + 3, seed=int(rng.integers(2**31)))
    if draw(st.booleans()):
        island = nx.path_graph(draw(st.integers(min_value=1, max_value=3)))
        graph = nx.disjoint_union(graph, island)
    unit_weights = shape == "grid" or draw(st.booleans())
    for _, _, data in graph.edges(data=True):
        delay = 1.0 if unit_weights else rng.choice([0.0, 0.5, 1.0, 2.75])
        data["delay"] = float(delay)
        if rng.random() < 0.8:  # the rest carry no ``error`` attribute at all
            data["error"] = float(rng.choice([0.0, rng.uniform(0.0, 0.3)]))
    n_hosts = draw(st.integers(min_value=2, max_value=8))
    hosts = sorted(int(h) for h in rng.choice(500, size=n_hosts, replace=False))
    routers = rng.choice(graph.number_of_nodes(), size=n_hosts).tolist()
    routers[1] = routers[0]  # at least one shared attachment router
    if shape in ("chain", "ring"):
        routers[-1] = (routers[0] + 8) % graph.number_of_nodes()  # >= 10 links
    attachments = dict(zip(hosts, routers))
    access_error = {h: float(rng.choice([0.0, rng.uniform(0.0, 0.2)])) for h in hosts}
    access_error[hosts[0]] = 0.125  # never a zero-error substrate
    access_delay = {h: float(rng.uniform(0.1, 2.0)) for h in hosts}
    return graph, attachments, {
        "access_delay_ms": access_delay,
        "access_error": access_error,
    }


def _routers_or_no_path(underlay, r_a, r_b):
    try:
        return underlay.router_path(r_a, r_b)
    except nx.NetworkXNoPath as exc:
        return str(exc)


class TestTreePropagation:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(recipe=_lossy_recipes())
    def test_table_equals_the_per_pair_replay_bytewise(self, recipe):
        graph, attachments, access = recipe
        lazy = RouterUnderlay(graph, attachments, **access)
        compiled = CompiledUnderlay(graph, attachments, **access)
        assert not compiled.zero_error
        _assert_same_table(compiled._perr, _replay_pair_errors(lazy))

    def test_long_chain_covers_the_vectorised_product_branch(self):
        graph = nx.path_graph(14)
        for u, v, data in graph.edges(data=True):
            data["delay"] = 1.0
            data["error"] = 0.01 * (u + 1)
        attachments = {0: 0, 1: 13, 2: 3}
        lazy = RouterUnderlay(graph, attachments, access_error=0.05)
        compiled = CompiledUnderlay(graph, attachments, access_error=0.05)
        assert len(lazy.path_links(0, 1)) == 15 >= network_module._VECTORIZE_MIN_LINKS
        assert len(lazy.path_links(0, 2)) == 5 < network_module._VECTORIZE_MIN_LINKS
        assert compiled._perr.tobytes() == _replay_pair_errors(lazy).tobytes()

    def test_more_rows_than_one_block_propagates_the_same_bytes(self, monkeypatch):
        lazy, compiled = _build_pair(29, 12, LinkErrorConfig(max_error=0.1))
        expected = _replay_pair_errors(lazy)
        assert compiled._perr.tobytes() == expected.tobytes()
        # one row per block: every block boundary the row loop can have
        monkeypatch.setattr("repro.sim.pathtree._BLOCK_CELLS", 1)
        _, blocked = _build_pair(29, 12, LinkErrorConfig(max_error=0.1))
        assert blocked._perr.tobytes() == expected.tobytes()

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(recipe=_lossy_recipes())
    def test_three_underlays_walk_the_same_paths(self, recipe):
        graph, attachments, access = recipe
        underlays = (
            RouterUnderlay(graph, attachments, **access),
            CompiledUnderlay(graph, attachments, **access),
            _sparse_twin(graph, attachments, **access),
        )
        lazy = underlays[0]
        for a in lazy.hosts:
            for b in lazy.hosts:
                r_a, r_b = attachments[a], attachments[b]
                routers = _routers_or_no_path(lazy, r_a, r_b)
                for other in underlays[1:]:
                    assert _routers_or_no_path(other, r_a, r_b) == routers
                    if isinstance(routers, str):  # no route: same error text
                        with pytest.raises(nx.NetworkXNoPath, match=routers):
                            other.path_links(a, b)
                    else:
                        assert other.path_links(a, b) == lazy.path_links(a, b)

    def test_transit_stub_paths_agree_across_all_three(self):
        graph = generate_transit_stub(TINY_TS, seed=spawn_rng(13, "topology"))
        assign_link_errors(
            graph, LinkErrorConfig(max_error=0.05), seed=spawn_rng(13, "errors")
        )
        attachments = _transit_stub_attachments(graph, 12, 13)
        lazy = RouterUnderlay(graph, attachments)
        _assert_equivalent(lazy, CompiledUnderlay(graph, attachments))
        _assert_equivalent(lazy, _sparse_twin(graph, attachments))

    def test_disconnected_lossy_graph_compiles_and_raises_per_query(self, tmp_path):
        # Parent: NetworkXNoPath out of the constructor.  The lazy underlay
        # builds and raises only on the unreachable *query*; so must this.
        graph = nx.Graph()
        graph.add_edge(0, 1, delay=1.0, error=0.1)
        graph.add_edge(2, 3, delay=2.0, error=0.2)
        attachments = {10: 0, 11: 1, 12: 2, 13: 3}
        lazy = RouterUnderlay(graph, attachments, access_error=0.01)
        compiled = CompiledUnderlay(graph, attachments, access_error=0.01)
        arrays, meta = compiled.to_artifact()
        key = artifacts.artifact_key({"test": "disconnected"})
        artifacts.store_artifact(key, arrays, meta, base_dir=tmp_path)
        restored = CompiledUnderlay.from_artifact(
            artifacts.load_artifact(key, base_dir=tmp_path)
        )
        for underlay in (compiled, restored):
            _assert_same_table(underlay._perr, _replay_pair_errors(lazy))
            for a in lazy.hosts:
                for b in lazy.hosts:
                    if (a < 12) == (b < 12):
                        assert underlay.path_error(a, b) == lazy.path_error(a, b)
                        assert underlay.path_links(a, b) == lazy.path_links(a, b)
                        continue
                    with pytest.raises(nx.NetworkXNoPath) as expected:
                        lazy.path_error(a, b)
                    for query in (underlay.path_error, underlay.path_links):
                        with pytest.raises(nx.NetworkXNoPath) as raised:
                            query(a, b)
                        assert str(raised.value) == str(expected.value)

    def test_compile_replays_no_path_and_stores_the_replay_bytes(
        self, tmp_path, monkeypatch
    ):
        """The count contract: compiling a lossy transit-stub makes 0 calls
        to the per-pair machinery (the replay: n(n-1) path walks and error
        replays, ~11 n(n-1) ``link_error`` lookups), and what it stores is
        file for file what the replay would have stored under the same
        key.  The key is pinned with the schema: a layout change moves
        both, so an entry of the previous layout is never looked up."""
        calls = {"_compute_path_error": 0, "link_error": 0, "walk_links": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            for name in ("_compute_path_error", "link_error"):
                method = getattr(CompiledUnderlay, name)
                patch.setattr(CompiledUnderlay, name, counted(name, method))
            for module in (compiled_module, network_module):
                patch.setattr(
                    module, "walk_links", counted("walk_links", module.walk_links)
                )
            patch.setenv(artifacts.CACHE_DIR_ENV, str(tmp_path / "new"))
            patch.delenv(artifacts.CACHE_ENABLED_ENV, raising=False)
            built = build_transit_stub_underlay(
                n_hosts=8,
                seed=4,
                ts_config=TINY_TS,
                link_errors=LinkErrorConfig(max_error=0.05),
            )
            assert calls == {"_compute_path_error": 0, "link_error": 0, "walk_links": 0}
            built.path_links(0, 1)
            RouterUnderlay.path_error(built, 0, 1)
            assert all(calls.values())  # the counters do see these calls

        (entry,) = [p for p in (tmp_path / "new").iterdir() if p.is_dir()]
        assert ARTIFACT_SCHEMA == 4 and entry.name == (
            "8d2c731b0eaff2297d962566ad2f887a7a24bb1bd78fdbc551dabf060c144a28"
        )
        # ... which is not where schema 3 (a ``dtype`` field) kept this recipe
        assert entry.name != (
            "26f3259cecbd1b3396d5279cb9bb68f25946ac069eb64d854490a8df48a225ed"
        )
        arrays, meta = built.to_artifact()
        lazy = RouterUnderlay(built.graph, built.attachments)
        oracle = artifacts.store_artifact(
            entry.name,
            {**arrays, "pair_error": _replay_pair_errors(lazy)},
            meta,
            base_dir=tmp_path / "old",
        )
        names = sorted(f.name for f in entry.iterdir())
        assert names == sorted(f.name for f in oracle.iterdir())
        assert "pair_error.npy" in names
        for name in names:
            assert (entry / name).read_bytes() == (oracle / name).read_bytes(), name


class TestArtifactRoundtrip:
    def _roundtrip(self, compiled, cache_root):
        arrays, meta = compiled.to_artifact()
        key = artifacts.artifact_key({"test": id(compiled)})
        artifacts.store_artifact(key, arrays, meta, base_dir=cache_root)
        loaded = artifacts.load_artifact(key, base_dir=cache_root)
        assert loaded is not None
        return CompiledUnderlay.from_artifact(loaded)

    def test_roundtrip_preserves_every_query(self, tmp_path):
        for errors in (None, LinkErrorConfig(max_error=0.05)):
            _, compiled = _build_pair(17, 9, errors)
            restored = self._roundtrip(compiled, tmp_path)
            _assert_equivalent(compiled, restored)

    def test_restored_lazy_oracle_still_agrees(self, tmp_path):
        # The oracle re-runs Dijkstra on the *reconstructed* graph, so this
        # pins that graph reconstruction preserved the CSR layout.
        _, compiled = _build_pair(23, 8, LinkErrorConfig(max_error=0.05))
        restored = self._roundtrip(compiled, tmp_path)
        hosts = sorted(restored.attachments)
        for a in hosts[:5]:
            for b in hosts:
                assert restored.delay_ms(a, b) == RouterUnderlay.delay_ms(
                    restored, a, b
                )
                assert restored.path_error(a, b) == RouterUnderlay.path_error(
                    restored, a, b
                )

    def test_restored_instance_walks_without_a_memmap_read_per_hop(
        self, tmp_path, monkeypatch
    ):
        # ``np.memmap.__getitem__`` is a Python-level wrapper; the walk
        # reads a memory-mapped predecessor row through a memoryview, so
        # a path costs the same two memmap subscripts (the distance check,
        # the row) however many hops it has.
        _, compiled = _build_pair(23, 8, LinkErrorConfig(max_error=0.05))
        restored = self._roundtrip(compiled, tmp_path)
        assert isinstance(restored._bpred, np.memmap)
        reads = []
        getitem = np.memmap.__getitem__
        monkeypatch.setattr(
            np.memmap,
            "__getitem__",
            lambda self, index: reads.append(index) or getitem(self, index),
        )
        hosts = sorted(restored.attachments)
        longest = max(
            ((a, b) for a in hosts for b in hosts),
            key=lambda pair: len(compiled.path_links(*pair)),
        )
        assert len(compiled.path_links(*longest)) > 4
        assert restored.path_links(*longest) == compiled.path_links(*longest)
        assert len(reads) == 2

    def test_rejects_foreign_artifact(self):
        art = artifacts.Artifact(key="x" * 64, meta={"kind": "planetlab"}, arrays={})
        with pytest.raises(ValueError):
            CompiledUnderlay.from_artifact(art)

    def test_rejects_schema_drift(self):
        _, compiled = _build_pair(2, 5, None)
        arrays, meta = compiled.to_artifact()
        art = artifacts.Artifact(
            key="x" * 64, meta={**meta, "schema": ARTIFACT_SCHEMA + 1}, arrays=arrays
        )
        with pytest.raises(ValueError):
            CompiledUnderlay.from_artifact(art)

    def test_rejects_missing_pair_error(self):
        _, compiled = _build_pair(2, 5, LinkErrorConfig(max_error=0.05))
        arrays, meta = compiled.to_artifact()
        arrays = {k: v for k, v in arrays.items() if k != "pair_error"}
        art = artifacts.Artifact(key="x" * 64, meta=meta, arrays=arrays)
        with pytest.raises(ValueError):
            CompiledUnderlay.from_artifact(art)


class TestBuilders:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(artifacts.CACHE_DIR_ENV, str(tmp_path / "cache"))
        monkeypatch.delenv(artifacts.CACHE_ENABLED_ENV, raising=False)

    def test_builder_compiles(self):
        ul = build_transit_stub_underlay(n_hosts=6, seed=1, ts_config=TINY_TS)
        assert isinstance(ul, CompiledUnderlay)

    def test_second_build_hits_cache_and_matches(self, tmp_path):
        first = build_transit_stub_underlay(
            n_hosts=8,
            seed=4,
            ts_config=TINY_TS,
            link_errors=LinkErrorConfig(max_error=0.05),
        )
        second = build_transit_stub_underlay(
            n_hosts=8,
            seed=4,
            ts_config=TINY_TS,
            link_errors=LinkErrorConfig(max_error=0.05),
        )
        # the reload serves queries from memory-mapped pages
        assert isinstance(second._hdelay, np.memmap)
        _assert_equivalent(first, second)

    def test_builder_matches_lazy_mode(self):
        compiled = build_transit_stub_underlay(n_hosts=7, seed=9, ts_config=TINY_TS)
        lazy = lazy_transit_stub_underlay(n_hosts=7, seed=9, ts_config=TINY_TS)
        assert type(lazy) is RouterUnderlay
        assert compiled.attachments == lazy.attachments
        _assert_equivalent(lazy, compiled)

    def test_corrupt_cache_entry_rebuilds(self, tmp_path):
        build_transit_stub_underlay(n_hosts=6, seed=2, ts_config=TINY_TS)
        cache = tmp_path / "cache"
        (entry,) = [p for p in cache.iterdir() if p.is_dir()]
        (entry / "manifest.json").write_text("{broken")
        rebuilt = build_transit_stub_underlay(n_hosts=6, seed=2, ts_config=TINY_TS)
        assert isinstance(rebuilt, CompiledUnderlay)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_entry_of_an_older_schema_is_a_miss_not_a_crash(self, tmp_path, sparse):
        recipe = dict(n_hosts=6, seed=2, ts_config=TINY_TS, sparse=sparse)
        first = build_transit_stub_underlay(**recipe)
        (entry,) = [p for p in (tmp_path / "cache").iterdir() if p.is_dir()]
        shutil.rmtree(entry)
        arrays, meta = first.to_artifact()
        stale = {**meta, "schema": meta["schema"] - 1}
        assert artifacts.store_artifact(entry.name, arrays, stale) == entry
        rebuilt = build_transit_stub_underlay(**recipe)
        assert isinstance(rebuilt, SparseUnderlay if sparse else CompiledUnderlay)
        _assert_equivalent(first, rebuilt)

    def test_planetlab_cache_roundtrip(self):
        cold = build_planetlab_underlay(n_select=20, seed=5, n_us=60, loss_sigma=0.8)
        warm = build_planetlab_underlay(n_select=20, seed=5, n_us=60, loss_sigma=0.8)
        np.testing.assert_array_equal(
            np.asarray(warm.underlay._rtt), np.asarray(cold.underlay._rtt)
        )
        assert warm.source == cold.source
        assert warm.nodes == cold.nodes
        hosts = list(range(cold.n_hosts))[:6]
        for a in hosts:
            for b in hosts:
                assert warm.underlay.delay_ms(a, b) == cold.underlay.delay_ms(a, b)
                assert warm.underlay.path_error(a, b) == cold.underlay.path_error(
                    a, b
                )


class TestLossVectorization:
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
        sigma=st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
    )
    def test_block_draw_matches_scalar_loop_bitwise(self, n, seed, sigma):
        # the historical per-pair loop, verbatim
        loss_rng = spawn_rng(seed, "loss")
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                rate = min(0.2, loss_rng.lognormal(np.log(0.005), sigma))
                expected[i, j] = expected[j, i] = rate
        actual = _planetlab_loss_matrix(n, seed, sigma)
        np.testing.assert_array_equal(actual, expected)


class TestExperimentEquivalence:
    def test_smoke_group_identical_with_and_without_compilation(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(artifacts.CACHE_DIR_ENV, str(tmp_path / "cache"))
        preset = PRESETS["smoke"]

        def render():
            exp.clear_cache()
            tables = exp.ch3_churn_tables(preset)
            exp.clear_cache()
            return {name: tables[name].to_json() for name in sorted(tables)}

        compiled_out = render()
        warm_out = render()  # second pass reads the artifact cache
        monkeypatch.setattr(
            cells, "build_transit_stub_underlay", lazy_transit_stub_underlay
        )
        lazy_out = render()
        assert compiled_out == lazy_out
        assert warm_out == lazy_out
