"""SparseUnderlay equivalence: the router-graph engine == the lazy oracle.

The one router-graph engine may change *how much memory* shortest paths
cost, never *what* any query returns.  This suite pins that with
hypothesis sweeps over random substrates — transit-stub draws and small
lossy graphs with tied, zero-delay and unreachable paths — comparing
every ordered host pair against the lazy ``RouterUnderlay`` (and, for
transit-stub draws, a demand-only engine); checks the
LRU row store is a transparent policy (under random interleavings of
every row consumer and plan shape) whose capacity the input size sets;
round-trips the artifact format — which holds what the constructor was
given and nothing computed from it — through the builder's cache,
corrupt and stale entries included; refuses illegal router links; and
verifies ``link_error_array`` reproduces the graph-order error draws on
triplet arrays.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import uuid
from collections import Counter
from functools import lru_cache
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.factories import vdm
from repro.harness import cells, experiments as exp
from repro.harness.presets import PRESETS
from repro.harness.substrates import build_transit_stub_underlay
from repro.sim import network as network_module
from repro.sim.network import NoRouteError
from repro.sim.session import MulticastSession, SessionConfig
from repro.sim.sparse import _RETAIN_BYTES, SPARSE_SCHEMA, SparseUnderlay
from repro.topology.linkmodel import LinkErrorConfig, link_error_array
from repro.topology.transit_stub import (
    TransitStubConfig,
    generate_transit_stub_arrays,
)
from repro.util import artifacts
from repro.util.rngtools import spawn_rng
from tests.helpers import lazy_transit_stub_underlay, transit_stub_attachments
from tests.lazy_underlay import (
    RouterUnderlay,
    assign_link_errors,
    generate_transit_stub,
)

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
    """The same topology + attachments through both implementations."""
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
    attachments = transit_stub_attachments(graph, n_hosts, seed)
    lazy = RouterUnderlay(graph, attachments)
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
    return lazy, sparse


def _assert_equivalent(ref, sparse):
    hosts = sorted(sparse.attachments)
    for a in hosts:
        for b in hosts:
            assert sparse.delay_ms(a, b) == ref.delay_ms(a, b)
            assert sparse.rtt_ms(a, b) == ref.rtt_ms(a, b)
            assert sparse.path_links(a, b) == ref.path_links(a, b)
            assert sparse.path_error(a, b) == ref.path_error(a, b)


def _roundtrip(sparse, cache_root):
    arrays, meta = sparse.to_artifact()
    key = artifacts.artifact_key({"test": uuid.uuid4().hex})
    artifacts.store_artifact(key, arrays, meta, base_dir=cache_root)
    loaded = artifacts.load_artifact(key, base_dir=cache_root)
    assert loaded is not None
    return SparseUnderlay.from_artifact(loaded)


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
        # the standing plan (every attachment row resident), and a store
        # too small for one: demand rows, evicted and recomputed
        row_cache=st.sampled_from([None, 2]),
    )
    def test_sparse_matches_both_oracles_bitwise(
        self, seed, n_hosts, max_error, row_cache
    ):
        # The lazy RouterUnderlay, and the engine with the simplest store:
        # no plan, every row a demand row, never evicted.
        errors = None if max_error is None else LinkErrorConfig(max_error=max_error)
        lazy, sparse = _build(seed, n_hosts, errors, row_cache=row_cache)
        _, reference = _build(seed, n_hosts, errors)
        _demand_only(reference)
        _assert_equivalent(lazy, sparse)
        _assert_equivalent(reference, sparse)
        assert reference.row_stats()["plan_rows"] == 0

    def test_delay_row_matches_lazy(self):
        lazy, sparse = _build(7, 12, None)
        for a in sorted(sparse.attachments):
            row = sparse.delay_row(a)
            assert row == [lazy.delay_ms(a, b) for b in sorted(sparse.attachments)]

    def test_link_queries_match(self):
        lazy, sparse = _build(13, 8, LinkErrorConfig(max_error=0.05))
        hosts = sorted(sparse.attachments)
        for a in hosts[:4]:
            for b in hosts:
                for link in sparse.path_links(a, b):
                    assert sparse.link_delay(link) == lazy.link_delay(link)
                    assert sparse.link_error(link) == lazy.link_error(link)

    def test_router_queries_match(self):
        # Attachment routers (the standing plan's rows) and one router no
        # host sits behind (a demand row beside the plan).
        lazy, sparse = _build(3, 8, None)
        att = sorted(set(sparse.attachments.values()))
        other = next(r for r in range(sparse.n_routers) if r not in att)
        for r in [*att, other]:
            for t in range(20):
                assert sparse.router_distance(r, t) == lazy.router_distance(r, t)
                assert sparse.router_path(r, t) == lazy.router_path(r, t)
        assert sparse.demand_rows == 1

    def test_path_links_share_one_tuple_per_link_id(self):
        # Ids are interned per underlay: every path through a link holds
        # the same tuple (values still equal the lazy oracle's, above).
        lazy, sparse = _build(5, 12, None)
        first = {}
        uses = Counter()
        hosts = sorted(sparse.attachments)
        for a in hosts:
            for b in hosts:
                links = sparse.path_links(a, b)
                assert links == lazy.path_links(a, b)
                for link in links:
                    assert first.setdefault(link, link) is link
                    uses[link] += 1
        assert any(n > 1 and link[0] == "router" for link, n in uses.items())

    def test_host_domain_matches(self):
        lazy, sparse = _build(3, 10, None)
        for h in sorted(sparse.attachments):
            assert sparse.host_domain(h) == lazy.host_domain(h)

    def test_lru_capacity_is_transparent(self):
        # A 4-row cache on a 12-host substrate evicts constantly; answers
        # must not depend on capacity (policy knob, never correctness).
        lazy, tight = _build(21, 12, LinkErrorConfig(), row_cache=4)
        _assert_equivalent(lazy, tight)

    def test_unknown_host_error_parity(self):
        lazy, sparse = _build(2, 5, None)
        known = next(iter(sparse.attachments))
        with pytest.raises(KeyError) as lazy_err:
            lazy.delay_ms(known, 9999)
        with pytest.raises(KeyError) as sparse_err:
            sparse.delay_ms(known, 9999)
        assert str(sparse_err.value) == str(lazy_err.value)


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


def _answers(underlay, a, b):
    """Every per-pair answer, or the no-route error text."""
    try:
        return (
            underlay.delay_ms(a, b),
            underlay.path_links(a, b),
            underlay.path_error(a, b),
            underlay.router_path(underlay.attachments[a], underlay.attachments[b]),
        )
    except NoRouteError as exc:
        return str(exc)


class TestLossyPaths:
    """Loss is a per-pair product over the path the predecessor walk
    reconstructs, so tied paths must be walked identically."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(recipe=_lossy_recipes(), restored=st.booleans())
    def test_every_pair_matches_the_lazy_oracle(self, recipe, restored):
        graph, attachments, access = recipe
        lazy = RouterUnderlay(graph, attachments, **access)
        sparse = _sparse_twin(graph, attachments, **access)
        with tempfile.TemporaryDirectory() as root:
            if restored:  # the lossy artifact round-trip
                sparse = _roundtrip(sparse, Path(root))
            assert not sparse.zero_error
            for a in lazy.hosts:
                for b in lazy.hosts:
                    assert _answers(sparse, a, b) == _answers(lazy, a, b)

    def test_long_chain_covers_the_vectorised_product_branch(self):
        graph = nx.path_graph(14)
        for u, v, data in graph.edges(data=True):
            data["delay"] = 1.0
            data["error"] = 0.01 * (u + 1)
        attachments = {0: 0, 1: 13, 2: 3}
        lazy = RouterUnderlay(graph, attachments, access_error=0.05)
        sparse = _sparse_twin(graph, attachments, access_error=0.05)
        assert len(lazy.path_links(0, 1)) == 15 >= network_module._VECTORIZE_MIN_LINKS
        assert len(lazy.path_links(0, 2)) == 5 < network_module._VECTORIZE_MIN_LINKS
        _assert_equivalent(lazy, sparse)

    def test_disconnected_lossy_graph_builds_and_raises_per_query(self, tmp_path):
        # The lazy underlay builds and raises only on the unreachable
        # *query*; so must the engine, fresh and restored.
        graph = nx.Graph()
        graph.add_edge(0, 1, delay=1.0, error=0.1)
        graph.add_edge(2, 3, delay=2.0, error=0.2)
        attachments = {10: 0, 11: 1, 12: 2, 13: 3}
        lazy = RouterUnderlay(graph, attachments, access_error=0.01)
        fresh = _sparse_twin(graph, attachments, access_error=0.01)
        for underlay in (fresh, _roundtrip(fresh, tmp_path)):
            for a in lazy.hosts:
                for b in lazy.hosts:
                    if (a < 12) == (b < 12):
                        assert underlay.path_error(a, b) == lazy.path_error(a, b)
                        continue
                    with pytest.raises(NoRouteError) as expected:
                        lazy.path_error(a, b)
                    for query in (underlay.path_error, underlay.path_links):
                        with pytest.raises(NoRouteError) as raised:
                            query(a, b)
                        assert str(raised.value) == str(expected.value)


def _line(**overrides):
    """``SparseUnderlay`` on the 3-router line 0 -1ms- 1 -3ms- 2."""
    kwargs = dict(
        n_routers=3,
        edge_u=[0, 1],
        edge_v=[1, 2],
        edge_delay=[1.0, 3.0],
        attachments={0: 0, 1: 1, 2: 2},
        access_delay_ms=0.0,
    )
    kwargs.update(overrides)
    return SparseUnderlay(**kwargs)


def _line_graph(delay=1.0, error=0.0):
    graph = nx.Graph()
    graph.add_edge(0, 1, delay=delay, error=error)
    graph.add_edge(1, 2, delay=3.0)
    return RouterUnderlay(graph, {0: 0, 1: 1, 2: 2}, access_delay_ms=0.0)


class TestIllegalLinks:
    """Router links are checked at construction, by one check both
    engines share.  (Both used to take anything: a negative delay hung
    the first query inside ``csgraph.dijkstra``, a duplicate link summed
    its delays — ``delay_ms(0, 1)`` of 5.0 for two 4.0 ms links — a
    ``nan``/``inf`` delay became ``NetworkXNoPath`` at query time, an
    error of 1.5 came back from ``path_error``, and a short
    ``router_domain`` an ``IndexError`` inside ``host_domain``.)"""

    @pytest.mark.parametrize("delay", [-1.0, float("nan"), float("inf")])
    def test_bad_delay_rejected(self, delay):
        with pytest.raises(ValueError, match=r"delay of router link \(0, 1\)"):
            _line(edge_delay=[delay, 3.0])
        with pytest.raises(ValueError, match="delay of router link"):
            _line_graph(delay=delay)

    @pytest.mark.parametrize("edges", [([0, 0], [1, 1]), ([0, 1], [1, 0])])
    def test_duplicate_link_rejected(self, edges):
        u, v = edges
        with pytest.raises(ValueError, match=r"\(0, 1\) is given more than once"):
            _line(edge_u=u + [1], edge_v=v + [2], edge_delay=[4.0, 4.0, 3.0])

    @pytest.mark.parametrize("error", [1.5, 1.7, -0.5, float("nan")])
    def test_bad_error_rejected(self, error):
        with pytest.raises(ValueError, match=r"error of router link \(1, 2\)"):
            _line(edge_error=[0.0, error])
        with pytest.raises(ValueError, match="error of router link"):
            _line_graph(error=error)

    def test_short_router_domain_rejected(self):
        with pytest.raises(ValueError, match="router_domain"):
            _line(router_domain=[0, 0])

    def test_the_bounds_themselves_are_legal(self):
        sparse = _line(edge_delay=[0.0, 3.0], edge_error=[0.0, 1.0])
        assert sparse.delay_ms(0, 1) == 0.0 and sparse.path_error(0, 2) == 1.0


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
    def test_roundtrip_preserves_every_query(self, tmp_path):
        for errors in (None, LinkErrorConfig(max_error=0.05)):
            lazy, sparse = _build(31, 9, errors)
            restored = _roundtrip(sparse, tmp_path)
            _assert_equivalent(sparse, restored)
            _assert_equivalent(lazy, restored)

    def test_roundtrip_preserves_domains(self, tmp_path):
        _, sparse = _build(3, 6, None)
        restored = _roundtrip(sparse, tmp_path)
        hosts = sorted(sparse.attachments)
        domains = [sparse.host_domain(h) for h in hosts]
        assert None not in domains
        assert [restored.host_domain(h) for h in hosts] == domains

    def test_artifact_is_the_inputs_and_costs_no_dijkstra(self):
        _, sparse = _build(3, 6, LinkErrorConfig(max_error=0.05))
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
        _, sparse = _build(2, 5, None)
        arrays, meta = sparse.to_artifact()
        art = artifacts.Artifact(
            key="x" * 64, meta={**meta, "schema": SPARSE_SCHEMA + 1}, arrays=arrays
        )
        with pytest.raises(ValueError):
            SparseUnderlay.from_artifact(art)


_LOSSY = LinkErrorConfig(max_error=0.05)


class TestBuilders:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(artifacts.CACHE_DIR_ENV, str(tmp_path / "cache"))
        monkeypatch.delenv(artifacts.CACHE_ENABLED_ENV, raising=False)

    def _entry(self, tmp_path):
        (entry,) = [p for p in (tmp_path / "cache").iterdir() if p.is_dir()]
        return entry

    def test_explicit_sparse_argument(self):
        # ``sparse=`` once picked an engine; it is accepted and ignored.
        built = [
            build_transit_stub_underlay(
                n_hosts=6, seed=1, ts_config=TINY_TS, sparse=sparse
            )
            for sparse in (None, False, True)
        ]
        assert all(type(ul) is SparseUnderlay for ul in built)
        for other in built[1:]:
            _assert_equivalent(built[0], other)

    def test_default_stays_dense(self):
        # The builder's substrate equals its lazy twin, and a paper-size
        # store keeps every attachment row: one standing plan computes
        # them all in blocks, and nothing is computed on demand.
        ul = build_transit_stub_underlay(n_hosts=6, seed=1, ts_config=TINY_TS)
        lazy = lazy_transit_stub_underlay(n_hosts=6, seed=1, ts_config=TINY_TS)
        assert ul.attachments == lazy.attachments
        _assert_equivalent(lazy, ul)
        stats = ul.row_stats()
        att = len(set(ul.attachments.values()))
        assert stats["resident_rows"] == stats["plan_rows"] == att
        assert stats["demand_rows"] == stats["evictions"] == 0

    def test_builder_sparse_matches_builder_lazy(self):
        # End-to-end builder parity: same seed, same link errors, the
        # builder's product answers byte-identically to the lazy twin —
        # including attachments, which the builder derives from arrays
        # rather than the graph.
        sparse = build_transit_stub_underlay(
            n_hosts=10, seed=4, ts_config=TINY_TS, link_errors=_LOSSY
        )
        lazy = lazy_transit_stub_underlay(
            n_hosts=10, seed=4, ts_config=TINY_TS, link_errors=_LOSSY
        )
        assert sparse.attachments == lazy.attachments
        _assert_equivalent(lazy, sparse)

    def test_second_build_hits_cache_and_matches(self):
        for errors in (None, _LOSSY):
            recipe = dict(n_hosts=8, seed=4, ts_config=TINY_TS, link_errors=errors)
            first = build_transit_stub_underlay(**recipe)
            second = build_transit_stub_underlay(**recipe)
            _assert_equivalent(first, second)

    @pytest.mark.parametrize("errors", [None, _LOSSY], ids=["plain", "lossy"])
    def test_corrupt_cache_entry_rebuilds(self, tmp_path, errors):
        recipe = dict(n_hosts=6, seed=2, ts_config=TINY_TS, link_errors=errors)
        first = build_transit_stub_underlay(**recipe)
        (self._entry(tmp_path) / "manifest.json").write_text("{broken")
        rebuilt = build_transit_stub_underlay(**recipe)
        _assert_equivalent(first, rebuilt)
        assert artifacts.load_artifact(self._entry(tmp_path).name) is not None

    @pytest.mark.parametrize("errors", [None, _LOSSY], ids=["plain", "lossy"])
    def test_entry_of_an_older_schema_is_a_miss_not_a_crash(self, tmp_path, errors):
        recipe = dict(n_hosts=6, seed=2, ts_config=TINY_TS, link_errors=errors)
        first = build_transit_stub_underlay(**recipe)
        entry = self._entry(tmp_path)
        shutil.rmtree(entry)
        arrays, meta = first.to_artifact()
        stale = {**meta, "schema": meta["schema"] - 1}
        assert artifacts.store_artifact(entry.name, arrays, stale) == entry
        rebuilt = build_transit_stub_underlay(**recipe)
        _assert_equivalent(first, rebuilt)

    def test_domains_survive_a_warm_load(self):
        recipe = dict(n_hosts=10, seed=3, ts_config=TINY_TS)
        cold = build_transit_stub_underlay(**recipe)
        warm = build_transit_stub_underlay(**recipe)
        lazy = lazy_transit_stub_underlay(**recipe)
        domains = [lazy.host_domain(h) for h in lazy.hosts]
        assert None not in domains
        assert [cold.host_domain(h) for h in cold.hosts] == domains
        assert [warm.host_domain(h) for h in warm.hosts] == domains

    def test_smoke_group_identical_on_the_builder_and_its_lazy_twin(
        self, monkeypatch
    ):
        preset = PRESETS["smoke"]

        def render():
            exp.clear_cache()
            tables = exp.ch3_churn_tables(preset)
            exp.clear_cache()
            return {name: tables[name].to_json() for name in sorted(tables)}

        cold_out = render()
        warm_out = render()  # second pass reads the artifact cache
        monkeypatch.setattr(
            cells, "build_transit_stub_underlay", lazy_transit_stub_underlay
        )
        lazy_out = render()
        assert cold_out == lazy_out
        assert warm_out == lazy_out


class TestStoreCapacity:
    """The row store's capacity is the input size's answer: a byte budget
    over the row size, the same on every construction path."""

    def test_capacity_is_the_byte_budget_over_a_predecessor_row(self, tmp_path):
        _, fresh = _build(5, 12, None, ts=MID_TS)
        restored = _roundtrip(fresh, tmp_path)
        expected = _RETAIN_BYTES // (12 * MID_TS.total_nodes)
        for underlay in (fresh, restored):
            assert underlay.row_stats()["capacity_rows"] == expected
            att = sorted(set(underlay.attachments.values()))
            assert underlay._plan.stats()["planned_sources"] == len(att)

    def test_no_standing_plan_when_the_rows_do_not_fit(self):
        _, tight = _build(5, 12, None, ts=MID_TS, row_cache=4)
        assert tight._plan is None
        tight.delay_ms(0, 1)
        assert tight.row_stats()["demand_rows"] == 1

    def test_a_scale_walks_plan_replaces_the_standing_plan(self):
        _, sparse = _build(5, 12, None, ts=MID_TS)
        standing = sparse._plan
        with sparse.prefetch_rows([0, 1], block=1) as plan:
            assert sparse._plan is plan
        assert standing.stats()["sources_computed"] == 0

    def test_paper_size_churn_session_computes_no_demand_row(self):
        # A 128-row store (the old default) holds no standing plan over
        # this substrate's 400 attachment routers: every row would be a
        # demand row, and a churn session touches more than 128 of them.
        underlay = build_transit_stub_underlay(
            n_hosts=400, seed=5, ts_config=PRESETS["paper"].ts_config
        )
        assert len(set(underlay.attachments.values())) > 128
        config = SessionConfig(
            n_nodes=150,
            degree=(2, 4),
            join_phase_s=400.0,
            total_s=1200.0,
            slot_s=200.0,
            settle_s=50.0,
            churn_rate=0.1,
            seed=11,
        )
        MulticastSession(underlay, vdm(), config).run()
        stats = underlay.row_stats()
        assert stats["plan_rows"] > 128
        assert stats["evictions"] == stats["demand_rows"] == 0


class TestRowPrefetch:
    """Row plans: exact rows, computed in multi-source blocks."""

    def _fresh(self, seed=19, n_hosts=40):
        _, sparse = _build(seed, n_hosts, None, ts=MID_TS)
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
        _, sparse = _build(19, 40, None, ts=MID_TS, row_cache=2)
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
    return arr, transit_stub_attachments(graph, n_hosts, seed)


def _store_underlay(**kwargs):
    arr, attachments = _store_substrate()
    return SparseUnderlay(
        arr.n_nodes, arr.edge_u, arr.edge_v, arr.edge_delay, attachments, **kwargs
    )


def _demand_only(underlay):
    """``underlay`` with its standing plan replaced by nothing: every store
    miss is a demand row."""
    underlay.prefetch_rows((), block=0).close()
    return underlay


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
        ref = _demand_only(_store_underlay())  # never plans, never evicts
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
        store = _demand_only(_store_underlay())
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

    def test_an_explicit_capacity_bounds_a_plan_less_underlay(self):
        store = _store_underlay(row_cache=4)
        assert store._plan is None  # 4 rows hold no standing plan
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


def _store_state(underlay):
    """What a refused call must leave alone: the installed plan and the
    store's counters."""
    return underlay._plan, underlay.row_stats()


class TestRouterIds:
    """Router ids are integral and in ``0 … n_routers−1``: anything else is
    a ``KeyError`` naming it, never another router's answer."""

    BAD = [-1, -_N_ROUTERS, _N_ROUTERS, True, False, np.bool_(True), 1.0, 1.5]

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    @pytest.mark.parametrize(
        "query",
        [
            lambda u, r: u.router_dist_row(r),
            lambda u, r: u.router_distance(r, 2),
            lambda u, r: u.router_distance(0, r),
            lambda u, r: u.router_path(r, 2),
            lambda u, r: u.router_path(0, r),
        ],
        ids=["dist_row", "distance_src", "distance_dst", "path_src", "path_dst"],
    )
    def test_bad_id_is_refused_and_touches_nothing(self, query, bad):
        store = _store_underlay()
        store.router_dist_row(0)
        before = _store_state(store)
        with pytest.raises(KeyError, match="unknown router"):
            query(store, bad)
        assert _store_state(store) == before
        assert list(store._rows) == [0]

    def test_numpy_ints_are_router_ids(self):
        store, ref = _store_underlay(), _store_underlay()
        for np_id in (np.int64(3), np.int32(3), np.uint16(3)):
            assert store.router_dist_row(np_id).tobytes() == (
                ref.router_dist_row(3).tobytes()
            )
            assert store.router_distance(0, np_id) == ref.router_distance(0, 3)
            assert store.router_path(np_id, 5) == ref.router_path(3, 5)
        assert list(store._rows) == list(ref._rows)


class TestPlanRefusals:
    """``prefetch_rows`` checks every argument before it closes the
    standing plan: a refusal names the parameter and changes nothing."""

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"sources": [1.7, 2.2, -1]}, "sources"),
            ({"sources": [0, -1]}, "sources"),
            ({"sources": [0, _N_ROUTERS]}, "sources"),
            ({"sources": [0, True]}, "sources"),
            ({"sources": np.array([0.0, 1.0])}, "sources"),
            ({"sources": np.array([0, -1])}, "sources"),
            ({"sources": np.array([[0, 1]])}, "sources"),
            ({"block": -1}, "block"),
            ({"block": 1.5}, "block"),
            ({"block": 2.0}, "block"),
            ({"block": True}, "block"),
            ({"block": float("nan")}, "block"),
            ({"retain_bytes": float("nan")}, "retain_bytes"),
            ({"retain_bytes": -1}, "retain_bytes"),
            ({"retain_bytes": 1.5}, "retain_bytes"),
            ({"retain_bytes": False}, "retain_bytes"),
        ],
        ids=repr,
    )
    def test_refusal_leaves_the_standing_plan(self, kwargs, name):
        store = _store_underlay()
        assert store._plan is not None
        before = _store_state(store)
        args = {"sources": [0, 1], **kwargs}
        with pytest.raises(ValueError, match=name):
            store.prefetch_rows(args.pop("sources"), **args)
        assert _store_state(store) == before

    def test_integral_arguments_of_any_kind_are_accepted(self):
        store = _store_underlay()
        with store.prefetch_rows(
            np.array([2, 0, 2], dtype=np.int32),
            block=np.int64(2),
            retain_bytes=np.uint32(0),
        ) as plan:
            assert plan.stats()["planned_sources"] == 2
        with store.prefetch_rows(np.array([], dtype=np.float64)) as plan:
            assert plan.stats()["planned_sources"] == 0
