"""The compiled substrate: what the builder compiles, caches and reloads.

``build_transit_stub_underlay`` compiles a recipe (the ``topology``,
``errors`` and ``attach`` streams of one seed) into the router-graph
engine and stores that engine's artifact in the cache; the same recipe
then loads straight from the entry.  This suite checks that product, cold
and warm, against its lazy twin (``tests.helpers.lazy_transit_stub_underlay``)
bit for bit; round-trips the builder's artifact, refusing a foreign or
newer entry; and checks that per-pair loss equals the replay of
``_compute_path_error`` over the lazy oracle's paths.
``tests/test_sparse_underlay.py`` checks the engine class itself.
"""

from __future__ import annotations

import contextlib
import tempfile
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.harness import substrates
from repro.harness.substrates import (
    build_planetlab_underlay,
    build_transit_stub_underlay,
)
from repro.sim.network import NoRouteError
from repro.sim.sparse import SPARSE_SCHEMA, SparseUnderlay
from repro.topology.linkmodel import LinkErrorConfig
from repro.topology.transit_stub import TransitStubConfig
from repro.util import artifacts
from repro.util.rngtools import spawn_rng
from tests.helpers import lazy_transit_stub_underlay, transit_stub_attachments
from tests.lazy_underlay import (
    RouterUnderlay,
    assign_link_errors,
    generate_transit_stub,
)
from tests.test_sparse_underlay import (
    _assert_equivalent,
    _lossy_recipes,
    _roundtrip,
    _sparse_twin,
)

TINY_TS = TransitStubConfig(
    total_nodes=60,
    transit_domains=2,
    transit_nodes_per_domain=2,
    stub_domains_per_transit=2,
)

_LOSSY = LinkErrorConfig(max_error=0.05)


@contextlib.contextmanager
def _fresh_cache():
    """An empty artifact cache for the builder, for this block only."""
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
        patch.setenv(artifacts.CACHE_DIR_ENV, root)
        patch.delenv(artifacts.CACHE_ENABLED_ENV, raising=False)
        yield Path(root)


def _only_entry(cache_root):
    (entry,) = [p for p in cache_root.iterdir() if p.is_dir()]
    return entry


def _recipe(seed, n_hosts, errors):
    return dict(n_hosts=n_hosts, seed=seed, ts_config=TINY_TS, link_errors=errors)


def _pair(seed, n_hosts, errors):
    """The lazy twin and the builder's product, from one recipe."""
    recipe = _recipe(seed, n_hosts, errors)
    return lazy_transit_stub_underlay(**recipe), build_transit_stub_underlay(**recipe)


def _pair_table(hosts, value):
    """``value(a, b)`` of every ordered host pair (``nan`` where there is
    no route, 0 on the diagonal)."""
    err = np.zeros((len(hosts), len(hosts)))
    for i, a in enumerate(hosts):
        for j, b in enumerate(hosts):
            if i != j:
                try:
                    err[i, j] = value(a, b)
                except NoRouteError:
                    err[i, j] = np.nan
    return err


def _replay_pair_errors(underlay):
    """The per-pair oracle: ``_compute_path_error`` replayed over the
    path of every ordered host pair."""
    return _pair_table(
        underlay.hosts,
        lambda a, b: underlay._compute_path_error(underlay.path_links(a, b)),
    )


def _assert_same_table(actual, expected):
    """Byte equality, with ``nan`` cells compared by position."""
    assert np.array_equal(np.isnan(actual), np.isnan(expected))
    assert (
        np.nan_to_num(actual, nan=-1.0).tobytes()
        == np.nan_to_num(expected, nan=-1.0).tobytes()
    )


def _routers_or_no_path(underlay, r_a, r_b):
    try:
        return underlay.router_path(r_a, r_b)
    except NoRouteError as exc:
        return str(exc)


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
    def test_compiled_matches_lazy_bitwise(self, seed, n_hosts, max_error):
        errors = None if max_error is None else LinkErrorConfig(max_error=max_error)
        recipe = _recipe(seed, n_hosts, errors)
        lazy = lazy_transit_stub_underlay(**recipe)
        with _fresh_cache():
            cold = build_transit_stub_underlay(**recipe)
            warm = build_transit_stub_underlay(**recipe)  # from the entry
            for compiled in (cold, warm):
                assert compiled.attachments == lazy.attachments
                _assert_equivalent(lazy, compiled)

    def test_router_queries_match(self):
        # Every attachment router's row comes from the standing plan.
        lazy, compiled = _pair(3, 8, None)
        routers = sorted(set(compiled.attachments.values()))
        for r in routers:
            for t in range(20):
                assert compiled.router_distance(r, t) == lazy.router_distance(r, t)
                assert compiled.router_path(r, t) == lazy.router_path(r, t)
        assert compiled.demand_rows == 0

    def test_non_attachment_router_falls_back_to_lazy(self):
        # A router no host sits behind is outside the standing plan: its
        # row is computed on demand, and answers as the lazy oracle does.
        lazy, compiled = _pair(5, 6, None)
        att = sorted(set(compiled.attachments.values()))
        other = next(r for r in range(compiled.n_routers) if r not in att)
        target = att[0]
        assert compiled.router_distance(other, target) == lazy.router_distance(
            other, target
        )
        assert compiled.router_path(other, target) == lazy.router_path(other, target)
        assert compiled.demand_rows == 1

    def test_unknown_host_error_parity(self):
        lazy, compiled = _pair(2, 5, None)
        known = next(iter(compiled.attachments))
        with pytest.raises(KeyError) as lazy_err:
            lazy.delay_ms(known, 9999)
        with pytest.raises(KeyError) as compiled_err:
            compiled.delay_ms(known, 9999)
        assert str(compiled_err.value) == str(lazy_err.value)


class TestTreePropagation:
    """Loss is a per-pair product over the path the predecessor tree gives,
    so tied paths must be walked as the lazy oracle walks them."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(recipe=_lossy_recipes())
    def test_table_equals_the_per_pair_replay_bytewise(self, recipe):
        graph, attachments, access = recipe
        lazy = RouterUnderlay(graph, attachments, **access)
        engine = _sparse_twin(graph, attachments, **access)
        assert not engine.zero_error
        _assert_same_table(
            _pair_table(engine.hosts, engine.path_error), _replay_pair_errors(lazy)
        )

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(recipe=_lossy_recipes())
    def test_three_underlays_walk_the_same_paths(self, recipe):
        # The lazy oracle, the engine with its standing plan, and the
        # engine with a one-row store (every row a demand row, evicted).
        graph, attachments, access = recipe
        underlays = (
            RouterUnderlay(graph, attachments, **access),
            _sparse_twin(graph, attachments, **access),
            _sparse_twin(graph, attachments, row_cache=1, **access),
        )
        lazy = underlays[0]
        for a in lazy.hosts:
            for b in lazy.hosts:
                r_a, r_b = attachments[a], attachments[b]
                routers = _routers_or_no_path(lazy, r_a, r_b)
                for other in underlays[1:]:
                    assert _routers_or_no_path(other, r_a, r_b) == routers
                    if isinstance(routers, str):  # no route: same error text
                        with pytest.raises(NoRouteError, match=routers):
                            other.path_links(a, b)
                    else:
                        assert other.path_links(a, b) == lazy.path_links(a, b)

    def test_transit_stub_paths_agree_across_all_three(self):
        # The lazy oracle and the engine on the same graph, and the
        # builder's engine compiled from the recipe's arrays.
        graph = generate_transit_stub(TINY_TS, seed=spawn_rng(13, "topology"))
        assign_link_errors(graph, _LOSSY, seed=spawn_rng(13, "errors"))
        attachments = transit_stub_attachments(graph, 12, 13)
        lazy = RouterUnderlay(graph, attachments)
        _assert_equivalent(lazy, _sparse_twin(graph, attachments))
        _assert_equivalent(
            lazy, build_transit_stub_underlay(**_recipe(13, 12, _LOSSY))
        )


class TestArtifactRoundtrip:
    def test_roundtrip_preserves_every_query(self, tmp_path):
        for errors in (None, _LOSSY):
            _, compiled = _pair(17, 9, errors)
            restored = _roundtrip(compiled, tmp_path)
            _assert_equivalent(compiled, restored)

    def test_restored_lazy_oracle_still_agrees(self, tmp_path):
        # A lazy oracle built on the graph of the stored triplets re-runs
        # Dijkstra on it, so this pins that the triplets are the graph.
        _, compiled = _pair(23, 8, _LOSSY)
        restored = _roundtrip(compiled, tmp_path)
        arrays, meta = compiled.to_artifact()
        graph = nx.Graph()
        graph.add_nodes_from(range(meta["n_routers"]))
        for u, v, delay, error in zip(
            arrays["edge_u"].tolist(),
            arrays["edge_v"].tolist(),
            arrays["edge_delay"].tolist(),
            arrays["edge_error"].tolist(),
        ):
            graph.add_edge(u, v, delay=delay, error=error)
        hosts = arrays["hosts"].tolist()
        lazy = RouterUnderlay(
            graph,
            restored.attachments,
            access_delay_ms=dict(zip(hosts, arrays["access_delay"].tolist())),
            access_error=dict(zip(hosts, arrays["access_error"].tolist())),
        )
        for a in hosts[:5]:
            for b in hosts:
                assert restored.delay_ms(a, b) == lazy.delay_ms(a, b)
                assert restored.path_error(a, b) == lazy.path_error(a, b)

    def test_rejects_foreign_artifact(self):
        # A real entry of another kind: the PlanetLab builder's.
        with _fresh_cache() as root:
            build_planetlab_underlay(n_select=20, seed=5, n_us=60, loss_sigma=0.8)
            art = artifacts.load_artifact(_only_entry(root).name)
            assert art is not None and art.meta["kind"] == "planetlab"
            with pytest.raises(ValueError, match="not a sparse router"):
                SparseUnderlay.from_artifact(art)

    def test_rejects_schema_drift(self):
        # The builder's own entry, read back as a newer layout.
        with _fresh_cache() as root:
            build_transit_stub_underlay(**_recipe(2, 5, None))
            art = artifacts.load_artifact(_only_entry(root).name)
            assert SparseUnderlay.from_artifact(art) is not None
            drifted = artifacts.Artifact(
                key=art.key,
                meta={**art.meta, "schema": SPARSE_SCHEMA + 1},
                arrays=art.arrays,
            )
            with pytest.raises(ValueError, match="schema"):
                SparseUnderlay.from_artifact(drifted)


class TestBuilders:
    def test_builder_compiles(self):
        # One build: the engine, and one cache entry holding its artifact.
        with _fresh_cache() as root:
            built = build_transit_stub_underlay(**_recipe(1, 6, None))
            assert type(built) is SparseUnderlay
            stored = artifacts.load_artifact(_only_entry(root).name)
            arrays, meta = built.to_artifact()
            assert stored.meta == meta
            assert sorted(stored.arrays) == sorted(arrays)
            for name, array in arrays.items():
                assert np.asarray(stored.arrays[name]).tobytes() == array.tobytes()

    def test_second_build_hits_cache_and_matches(self, monkeypatch):
        recipe = _recipe(4, 8, _LOSSY)
        with _fresh_cache():
            first = build_transit_stub_underlay(**recipe)

            def no_topology(*args, **kwargs):
                raise AssertionError("a cache hit generates no topology")

            monkeypatch.setattr(substrates, "generate_transit_stub_arrays", no_topology)
            second = build_transit_stub_underlay(**recipe)
            _assert_equivalent(first, second)

    def test_builder_matches_lazy_mode(self):
        lazy, compiled = _pair(9, 7, None)
        assert type(lazy) is RouterUnderlay
        assert compiled.attachments == lazy.attachments
        _assert_equivalent(lazy, compiled)
