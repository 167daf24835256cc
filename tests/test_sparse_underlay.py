"""SparseUnderlay equivalence: sparse answers == lazy/dense, bit for bit.

The sparse engine is only allowed to change *how much memory* shortest
paths cost, never *what* any query returns.  This suite pins that with a
hypothesis sweep over random substrates (every ordered host pair compared
against both the lazy ``RouterUnderlay`` and the dense
``CompiledUnderlay`` oracles), checks the LRU row store is a transparent
policy knob (under random interleavings of every row consumer and plan
shape), round-trips the sparse artifact format — which holds what the
constructor was given and nothing computed from it — and verifies
``link_error_array`` reproduces the graph-order error draws on triplet
arrays.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.harness.substrates import (
    _transit_stub_attachments,
    build_transit_stub_underlay,
)
from repro.sim.compiled import CompiledUnderlay
from repro.sim.network import RouterUnderlay
from repro.sim.sparse import SPARSE_SCHEMA, SparseUnderlay
from repro.topology.linkmodel import (
    LinkErrorConfig,
    assign_link_errors,
    link_error_array,
)
from repro.topology.transit_stub import (
    TransitStubConfig,
    generate_transit_stub,
    generate_transit_stub_arrays,
)
from repro.util import artifacts
from repro.util.rngtools import spawn_rng
from tests.helpers import lazy_transit_stub_underlay

TINY_TS = TransitStubConfig(
    total_nodes=60,
    transit_domains=2,
    transit_nodes_per_domain=2,
    stub_domains_per_transit=2,
)

MID_TS = TransitStubConfig(
    total_nodes=180,
    transit_domains=2,
    transit_nodes_per_domain=4,
    stub_domains_per_transit=2,
)


def _build(seed, n_hosts, errors, ts=TINY_TS, **sparse_kwargs):
    """The same topology + attachments through all three implementations."""
    arr = generate_transit_stub_arrays(ts, seed=spawn_rng(seed, "topology"))
    graph = generate_transit_stub(ts, seed=spawn_rng(seed, "topology"))
    edge_error = None
    if errors is not None:
        assign_link_errors(graph, errors, seed=spawn_rng(seed, "errors"))
        edge_error = link_error_array(
            arr.edge_u,
            arr.edge_v,
            arr.edge_delay,
            errors,
            seed=spawn_rng(seed, "errors"),
        )
    attachments = _transit_stub_attachments(graph, n_hosts, seed)
    lazy = RouterUnderlay(graph, attachments)
    compiled = CompiledUnderlay(graph, attachments)
    sparse = SparseUnderlay(
        arr.n_nodes,
        arr.edge_u,
        arr.edge_v,
        arr.edge_delay,
        attachments,
        edge_error=edge_error,
        router_domain=arr.transit_domain,
        **sparse_kwargs,
    )
    return lazy, compiled, sparse


def _assert_equivalent(ref, sparse):
    hosts = sorted(sparse.attachments)
    for a in hosts:
        for b in hosts:
            assert sparse.delay_ms(a, b) == ref.delay_ms(a, b)
            assert sparse.rtt_ms(a, b) == ref.rtt_ms(a, b)
            assert sparse.path_links(a, b) == ref.path_links(a, b)
            assert sparse.path_error(a, b) == ref.path_error(a, b)


class TestEquivalence:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_hosts=st.integers(min_value=4, max_value=16),
        max_error=st.sampled_from([None, 0.02, 0.1]),
    )
    def test_sparse_matches_both_oracles_bitwise(self, seed, n_hosts, max_error):
        errors = None if max_error is None else LinkErrorConfig(max_error=max_error)
        lazy, compiled, sparse = _build(seed, n_hosts, errors)
        _assert_equivalent(lazy, sparse)
        _assert_equivalent(compiled, sparse)

    def test_delay_row_matches_compiled(self):
        _, compiled, sparse = _build(7, 12, None)
        for a in sorted(sparse.attachments):
            assert sparse.delay_row(a) == compiled.delay_row(a)

    def test_link_queries_match(self):
        lazy, _, sparse = _build(13, 8, LinkErrorConfig(max_error=0.05))
        hosts = sorted(sparse.attachments)
        for a in hosts[:4]:
            for b in hosts:
                for link in sparse.path_links(a, b):
                    assert sparse.link_delay(link) == lazy.link_delay(link)
                    assert sparse.link_error(link) == lazy.link_error(link)

    def test_host_domain_matches(self):
        lazy, _, sparse = _build(3, 10, None)
        for h in sorted(sparse.attachments):
            assert sparse.host_domain(h) == lazy.host_domain(h)

    def test_lru_capacity_is_transparent(self):
        # A 4-row cache on a 12-host substrate evicts constantly; answers
        # must not depend on capacity (policy knob, never correctness).
        lazy, _, tight = _build(21, 12, LinkErrorConfig(), row_cache=4)
        _assert_equivalent(lazy, tight)

    def test_unknown_host_error_parity(self):
        lazy, _, sparse = _build(2, 5, None)
        known = next(iter(sparse.attachments))
        with pytest.raises(KeyError) as lazy_err:
            lazy.delay_ms(known, 9999)
        with pytest.raises(KeyError) as sparse_err:
            sparse.delay_ms(known, 9999)
        assert str(sparse_err.value) == str(lazy_err.value)


class TestLinkErrorArray:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        correlation=st.sampled_from([0.0, 0.6, -0.4]),
    )
    def test_array_draws_match_graph_assignment(self, seed, correlation):
        cfg = LinkErrorConfig(max_error=0.1, correlation=correlation)
        arr = generate_transit_stub_arrays(TINY_TS, seed=spawn_rng(seed, "t"))
        graph = generate_transit_stub(TINY_TS, seed=spawn_rng(seed, "t"))
        assign_link_errors(graph, cfg, seed=spawn_rng(seed, "e"))
        errors = link_error_array(
            arr.edge_u, arr.edge_v, arr.edge_delay, cfg, seed=spawn_rng(seed, "e")
        )
        for i in range(arr.n_edges):
            u, v = int(arr.edge_u[i]), int(arr.edge_v[i])
            assert graph[u][v]["error"] == errors[i]

    def test_zero_width_config_means_zero_errors(self):
        arr = generate_transit_stub_arrays(TINY_TS, seed=1)
        cfg = LinkErrorConfig(max_error=0.0)
        errors = link_error_array(arr.edge_u, arr.edge_v, arr.edge_delay, cfg)
        assert errors.shape == (arr.n_edges,) and not errors.any()


class TestArtifactRoundtrip:
    def _roundtrip(self, sparse, cache_root):
        arrays, meta = sparse.to_artifact()
        key = artifacts.artifact_key({"test": id(sparse)})
        artifacts.store_artifact(key, arrays, meta, base_dir=cache_root)
        loaded = artifacts.load_artifact(key, base_dir=cache_root)
        assert loaded is not None
        return SparseUnderlay.from_artifact(loaded)

    def test_roundtrip_preserves_every_query(self, tmp_path):
        for errors in (None, LinkErrorConfig(max_error=0.05)):
            _, _, sparse = _build(31, 9, errors)
            restored = self._roundtrip(sparse, tmp_path)
            _assert_equivalent(sparse, restored)

    def test_roundtrip_preserves_domains(self, tmp_path):
        _, _, sparse = _build(3, 6, None)
        restored = self._roundtrip(sparse, tmp_path)
        hosts = sorted(sparse.attachments)
        domains = [sparse.host_domain(h) for h in hosts]
        assert None not in domains
        assert [restored.host_domain(h) for h in hosts] == domains

    def test_artifact_is_the_inputs_and_costs_no_dijkstra(self):
        _, _, sparse = _build(3, 6, LinkErrorConfig(max_error=0.05))
        arrays, meta = sparse.to_artifact()
        assert set(arrays) == {
            *("edge_u", "edge_v", "edge_delay", "edge_error", "router_domain"),
            *("hosts", "host_router", "access_delay", "access_error"),
        }
        assert sorted(meta) == ["kind", "n_routers", "schema", "zero_error"]
        stats = sparse.row_stats()
        assert stats["resident_rows"] == stats["plan_rows"] == 0
        assert stats["demand_rows"] == 0

    def test_rejects_foreign_artifact(self):
        art = artifacts.Artifact(key="x" * 64, meta={"kind": "transit-stub"}, arrays={})
        with pytest.raises(ValueError):
            SparseUnderlay.from_artifact(art)

    def test_rejects_schema_drift(self):
        _, _, sparse = _build(2, 5, None)
        arrays, meta = sparse.to_artifact()
        art = artifacts.Artifact(
            key="x" * 64, meta={**meta, "schema": SPARSE_SCHEMA + 1}, arrays=arrays
        )
        with pytest.raises(ValueError):
            SparseUnderlay.from_artifact(art)


class TestBuilders:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(artifacts.CACHE_DIR_ENV, str(tmp_path / "cache"))
        monkeypatch.delenv(artifacts.CACHE_ENABLED_ENV, raising=False)

    def test_explicit_sparse_argument(self):
        ul = build_transit_stub_underlay(
            n_hosts=6, seed=1, ts_config=TINY_TS, sparse=True
        )
        assert isinstance(ul, SparseUnderlay)

    def test_default_stays_dense(self):
        ul = build_transit_stub_underlay(n_hosts=6, seed=1, ts_config=TINY_TS)
        assert isinstance(ul, CompiledUnderlay)

    def test_builder_sparse_matches_builder_lazy(self):
        # End-to-end builder parity: same seed, same link errors, the
        # sparse product answers byte-identically to the lazy twin —
        # including attachments, which the sparse path derives from
        # arrays rather than the graph.
        errors = LinkErrorConfig(max_error=0.05)
        sparse = build_transit_stub_underlay(
            n_hosts=10, seed=4, ts_config=TINY_TS, link_errors=errors, sparse=True
        )
        lazy = lazy_transit_stub_underlay(
            n_hosts=10, seed=4, ts_config=TINY_TS, link_errors=errors
        )
        assert sparse.attachments == lazy.attachments
        _assert_equivalent(lazy, sparse)

    def test_second_build_hits_cache_and_matches(self):
        first = build_transit_stub_underlay(
            n_hosts=8, seed=4, ts_config=TINY_TS, sparse=True
        )
        second = build_transit_stub_underlay(
            n_hosts=8, seed=4, ts_config=TINY_TS, sparse=True
        )
        _assert_equivalent(first, second)


class TestRowPrefetch:
    """Row plans: exact rows, computed in multi-source blocks."""

    def _fresh(self, seed=19, n_hosts=40):
        _, _, sparse = _build(seed, n_hosts, None, ts=MID_TS)
        return sparse

    def _plan_routers(self, sparse, n=None):
        hosts = sorted(sparse.attachments)[: n or len(sparse.attachments)]
        return [sparse.attachments[h] for h in hosts]

    @pytest.mark.parametrize("block", [1, 3, 16, 10**6])
    def test_prefetched_rows_bitwise_match_demand_rows(self, block):
        demand = self._fresh()
        planned = self._fresh()
        routers = self._plan_routers(planned)
        with planned.prefetch_rows(routers, block=block) as plan:
            for router in routers:
                a = planned.router_dist_row(router)
                b = demand.router_dist_row(router)
                assert a.tobytes() == b.tobytes()
            assert planned.demand_rows == 0
            assert plan.stats()["sources_computed"] == len(set(routers))

    def test_predecessor_plan_serves_full_rows(self):
        demand = self._fresh()
        planned = self._fresh()
        routers = self._plan_routers(planned)
        with planned.prefetch_rows(routers, block=8, predecessors=True):
            for router in routers[:20]:
                dist, pred = planned._row(router)
                ref_dist, ref_pred = demand._row(router)
                assert dist.tobytes() == ref_dist.tobytes()
                assert pred.tobytes() == ref_pred.tobytes()
            assert planned.demand_rows == 0

    def test_dist_only_plan_does_not_serve_pred_queries(self):
        planned = self._fresh()
        routers = self._plan_routers(planned)
        with planned.prefetch_rows(routers, block=8):
            planned._row(routers[0])  # needs predecessors: demand path
            assert planned.demand_rows == 1

    def test_multi_source_call_matches_single_source_bitwise(self):
        # The exactness anchor: scipy computes each source of a
        # multi-source dijkstra independently, and distances are
        # unchanged by return_predecessors.
        from scipy.sparse import csgraph

        sparse = self._fresh()
        routers = np.asarray(self._plan_routers(sparse, 8), dtype=np.int64)
        block = csgraph.dijkstra(sparse._csr, directed=False, indices=routers)
        for i, router in enumerate(routers.tolist()):
            single_pred, _ = csgraph.dijkstra(
                sparse._csr,
                directed=False,
                indices=router,
                return_predecessors=True,
            )
            single = csgraph.dijkstra(sparse._csr, directed=False, indices=router)
            assert block[i].tobytes() == single.tobytes()
            assert single.tobytes() == single_pred.tobytes()

    def test_unplanned_router_misses_to_demand(self):
        sparse = self._fresh()
        routers = self._plan_routers(sparse)
        unplanned = next(
            r for r in range(sparse.n_routers) if r not in set(routers)
        )
        with sparse.prefetch_rows(routers, block=4) as plan:
            sparse.router_dist_row(unplanned)
            assert sparse.demand_rows == 1
            assert plan.stats()["misses"] == 1

    def test_block_zero_is_inert(self):
        sparse = self._fresh()
        routers = self._plan_routers(sparse)
        with sparse.prefetch_rows(routers, block=0) as plan:
            sparse.router_dist_row(routers[0])
            assert plan.stats()["blocks"] == 0
            assert sparse.demand_rows == 1

    def test_default_block_and_negative_block_rejected(self):
        sparse = self._fresh()
        with sparse.prefetch_rows(self._plan_routers(sparse)) as plan:
            assert plan.stats()["block"] == 64
        with pytest.raises(ValueError, match="block"):
            sparse.prefetch_rows(self._plan_routers(sparse), block=-2)

    def test_retention_budget_evicts_but_stays_correct(self):
        _, _, sparse = _build(19, 40, None, ts=MID_TS, row_cache=2)
        demand = self._fresh()
        routers = self._plan_routers(sparse)
        # A budget of 4 rows forces eviction long before the plan ends.
        tiny = 4 * sparse.n_routers * 8
        with sparse.prefetch_rows(routers, block=2, retain_bytes=tiny):
            for router in routers:
                a = sparse.router_dist_row(router)
                assert a.tobytes() == demand.router_dist_row(router).tobytes()
                assert sparse.row_stats()["resident_rows"] <= 4
        stats = sparse.row_stats()
        assert stats["capacity_rows"] == 4
        assert stats["evictions"] == len(set(routers)) - 4

    def test_installing_a_new_plan_closes_the_old(self):
        sparse = self._fresh()
        routers = self._plan_routers(sparse)
        first = sparse.prefetch_rows(routers, block=4)
        sparse.router_dist_row(routers[0])
        second = sparse.prefetch_rows(routers, block=4)
        assert sparse._plan is second
        first.close()  # closing a detached plan must not detach its successor
        assert sparse._plan is second
        sparse.router_dist_row(routers[0])  # first's row outlived first
        assert (first.hits, second.hits, second.sources_computed) == (1, 1, 0)
        second.close()
        assert sparse._plan is None


@lru_cache(maxsize=None)
def _store_substrate(seed=23, n_hosts=14):
    arr = generate_transit_stub_arrays(TINY_TS, seed=spawn_rng(seed, "topology"))
    graph = generate_transit_stub(TINY_TS, seed=spawn_rng(seed, "topology"))
    return arr, _transit_stub_attachments(graph, n_hosts, seed)


def _store_underlay(**kwargs):
    arr, attachments = _store_substrate()
    return SparseUnderlay(
        arr.n_nodes, arr.edge_u, arr.edge_v, arr.edge_delay, attachments, **kwargs
    )


_N_ROUTERS = TINY_TS.total_nodes
_ROUTER = st.integers(0, _N_ROUTERS - 1)
_STORE_OPS = st.one_of(
    st.tuples(st.just("dist"), _ROUTER),
    st.tuples(st.just("row"), _ROUTER),
    st.tuples(st.just("path"), _ROUTER, _ROUTER),
    st.tuples(st.just("delay_row"), st.integers(0, 13)),
    st.tuples(
        st.just("plan"),
        st.lists(_ROUTER, max_size=24),
        st.sampled_from([0, 1, 3, 64, 10**6]),
        st.booleans(),
        st.sampled_from([0, 4 * _N_ROUTERS * 8, 1 << 28]),
    ),
    st.tuples(st.just("close")),
)


class TestRowStore:
    """One store, one lookup: what is cached never changes what is returned."""

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(_STORE_OPS, max_size=40),
        row_cache=st.sampled_from([1, 4, 128]),
    )
    def test_random_interleavings_match_a_demand_only_underlay(self, ops, row_cache):
        store = _store_underlay(row_cache=row_cache)
        ref = _store_underlay(row_cache=_N_ROUTERS)  # never plans, never evicts
        threads = threading.active_count()
        plan = None
        for op in ops:
            if op[0] == "dist":
                got, want = store.router_dist_row(op[1]), ref.router_dist_row(op[1])
                assert got.tobytes() == want.tobytes()
            elif op[0] == "row":
                for got, want in zip(store._row(op[1]), ref._row(op[1])):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
            elif op[0] == "path":
                assert store.router_path(op[1], op[2]) == ref.router_path(op[1], op[2])
            elif op[0] == "delay_row":
                assert store.delay_row(op[1]) == ref.delay_row(op[1])
            elif op[0] == "plan":
                _, sources, block, preds, budget = op
                plan = store.prefetch_rows(
                    sources, block=block, predecessors=preds, retain_bytes=budget
                )
                assert store.row_stats()["capacity_rows"] >= 2 * block
            elif plan is not None:
                plan.close()
                assert store._plan is None
            stats = store.row_stats()
            assert stats["resident_rows"] <= stats["capacity_rows"]
            assert threading.active_count() == threads
        assert ref.row_stats()["plan_rows"] == ref.row_stats()["evictions"] == 0

    @pytest.mark.parametrize("predecessors", [False, True])
    def test_second_identical_plan_computes_nothing(self, predecessors):
        store = _store_underlay()
        sources = list(range(0, _N_ROUTERS, 2))
        for expected in (len(sources), 0):
            with store.prefetch_rows(
                sources, block=3, predecessors=predecessors
            ) as plan:
                for router in sources:
                    store._lookup(router, predecessors)
            assert plan.sources_computed == expected
            assert (plan.hits, plan.misses) == (len(sources), 0)
        assert store.row_stats()["plan_rows"] == len(sources)
        assert store.demand_rows == 0

    def test_block_skips_sources_the_store_already_holds(self):
        store = _store_underlay()
        store.router_dist_row(1)  # demand row, before any plan
        with store.prefetch_rows([0, 1, 2, 3], block=4) as plan:
            store.router_dist_row(2)
        assert plan.sources_computed == 3
        assert store.row_stats()["pred_upgrades"] == 0

    def test_predecessor_upgrade_leaves_distances_unchanged(self):
        store = _store_underlay()
        sources = [5, 9, 12]
        with store.prefetch_rows(sources, block=2):
            before = {r: store.router_dist_row(r).tobytes() for r in sources}
        with store.prefetch_rows(sources, block=2, predecessors=True) as plan:
            for router in sources:
                assert store.router_dist_row(router).tobytes() == before[router]
                assert store._rows[router][1] is None  # dist-only still answers
            for router in sources:
                dist, pred = store._row(router)
                assert dist.tobytes() == before[router]
                assert pred is not None
        assert plan.sources_computed == len(sources)
        assert store.row_stats()["pred_upgrades"] == len(sources)
        assert store.row_stats()["resident_rows"] == len(sources)
        assert store.demand_rows == 0

    def test_env_flag_still_bounds_a_plan_less_underlay(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE_ROWS", "4")
        store = _store_underlay()
        for router in range(12):
            store.router_dist_row(router)
            store._row(router)
            assert store.row_stats()["resident_rows"] <= 4
        stats = store.row_stats()
        assert stats["capacity_rows"] == 4
        assert stats["evictions"] == 8
        assert stats["demand_rows"] == 24 and stats["pred_upgrades"] == 12

    def test_plan_raises_capacity_for_the_rest_of_the_underlays_life(self):
        store = _store_underlay(row_cache=4)
        row_bytes = _N_ROUTERS * 8
        with store.prefetch_rows([0, 1], block=1, retain_bytes=10 * row_bytes):
            assert store.row_stats()["capacity_rows"] == 10
        assert store.row_stats()["capacity_rows"] == 10
        with store.prefetch_rows([0, 1], block=1, retain_bytes=0):
            assert store.row_stats()["capacity_rows"] == 10  # never shrinks
        # Predecessor rows are 12 bytes a router: the same budget holds fewer.
        other = _store_underlay(row_cache=4)
        other.prefetch_rows(
            [0], block=1, predecessors=True, retain_bytes=12 * row_bytes
        )
        assert other.row_stats()["capacity_rows"] == 8

    def test_a_plan_starts_no_thread(self):
        store = _store_underlay()
        before = threading.active_count()
        with store.prefetch_rows(list(range(_N_ROUTERS)), block=4) as plan:
            assert threading.active_count() == before
            for router in range(_N_ROUTERS):
                store.router_dist_row(router)
                assert threading.active_count() == before
        assert plan.sources_computed == _N_ROUTERS
        assert threading.active_count() == before
