"""Tests for the transit-stub generator, geo model, and link-error model."""


import networkx as nx
import numpy as np
import pytest

from repro.topology.geo import GeoSite, great_circle_km, rtt_ms_between
from repro.topology.linkmodel import LinkErrorConfig, path_success_probability
from repro.topology.transit_stub import TransitStubConfig
from tests.lazy_underlay import (
    assign_link_errors,
    generate_transit_stub,
    stub_routers,
)


class TestTransitStubConfig:
    def test_defaults_match_paper_scale(self):
        cfg = TransitStubConfig()
        assert cfg.total_nodes == 792
        assert cfg.n_transit == 24
        assert cfg.n_stub_domains == 72

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError, match="must exceed"):
            TransitStubConfig(total_nodes=10)

    def test_rejects_bad_delay_range(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            TransitStubConfig(delay_intra_stub=(5.0, 1.0))

    @pytest.mark.parametrize(
        "value",
        [
            (0.5, float("inf")),  # died at generation in numpy's uniform
            (float("nan"), 3.0),
            (0.0, 3.0),
            (1.0, 2.0, 3.0),  # "too many values to unpack"
            (1.0,),
            2.0,
            None,
        ],
    )
    def test_rejects_malformed_delay_pair(self, value):
        with pytest.raises(ValueError, match="delay_intra_stub"):
            TransitStubConfig(delay_intra_stub=value)

    def test_delay_pair_list_is_stored_as_tuple(self):
        # A list kept as given made the config unhashable, and the figure
        # sweep's cache lookup died on it.
        cfg = TransitStubConfig(delay_intra_stub=[0.5, 3.0])
        assert cfg.delay_intra_stub == (0.5, 3.0)
        assert isinstance(cfg.delay_intra_stub, tuple)
        assert hash(cfg) == hash(TransitStubConfig())
        assert cfg == TransitStubConfig()

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            TransitStubConfig(intra_stub_edge_prob=1.5)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("total_nodes", 100.5),  # the generator's size deficit never hit 0
            ("total_nodes", 100.0),
            ("transit_domains", 1.5),
            ("transit_nodes_per_domain", 2.0),
            ("stub_domains_per_transit", float("nan")),
            ("stub_domains_per_transit", 0),
            ("extra_transit_transit_links", -1),  # was silently 0
            ("extra_transit_transit_links", 1.5),
        ],
    )
    def test_rejects_non_integral_or_out_of_range_counts(self, field, value):
        # Refused at construction, so a regression fails here instead of
        # hanging the generator.
        base = dict(
            total_nodes=100,
            transit_domains=1,
            transit_nodes_per_domain=2,
            stub_domains_per_transit=2,
        )
        with pytest.raises(ValueError, match=field):
            TransitStubConfig(**{**base, field: value})

    def test_zero_extra_transit_links_accepted(self):
        cfg = TransitStubConfig(extra_transit_transit_links=0)
        assert cfg.extra_transit_transit_links == 0


SMALL = TransitStubConfig(
    total_nodes=60,
    transit_domains=2,
    transit_nodes_per_domain=2,
    stub_domains_per_transit=2,
)


class TestGeneration:
    def test_exact_node_count(self):
        g = generate_transit_stub(SMALL, seed=0)
        assert g.number_of_nodes() == 60

    def test_connected(self):
        g = generate_transit_stub(SMALL, seed=0)
        assert nx.is_connected(g)

    def test_deterministic(self):
        g1 = generate_transit_stub(SMALL, seed=3)
        g2 = generate_transit_stub(SMALL, seed=3)
        assert sorted(g1.edges()) == sorted(g2.edges())
        assert all(
            g1.edges[e]["delay"] == g2.edges[e]["delay"] for e in g1.edges()
        )

    def test_different_seeds_differ(self):
        g1 = generate_transit_stub(SMALL, seed=1)
        g2 = generate_transit_stub(SMALL, seed=2)
        assert sorted(g1.edges()) != sorted(g2.edges())

    def test_levels_partition(self):
        g = generate_transit_stub(SMALL, seed=0)
        transit = [n for n, d in g.nodes(data=True) if d["level"] == "transit"]
        stub = stub_routers(g)
        assert len(transit) == SMALL.n_transit
        assert len(transit) + len(stub) == 60

    def test_delay_classes_respected(self):
        g = generate_transit_stub(SMALL, seed=0)
        bounds = {
            "inter_transit": SMALL.delay_inter_transit,
            "intra_transit": SMALL.delay_intra_transit,
            "stub_transit": SMALL.delay_stub_transit,
            "intra_stub": SMALL.delay_intra_stub,
        }
        for u, v, data in g.edges(data=True):
            lo, hi = bounds[data["kind"]]
            assert lo <= data["delay"] <= hi

    def test_every_stub_domain_has_gateway(self):
        g = generate_transit_stub(SMALL, seed=0)
        # Each stub domain must touch the transit level via >= 1 edge.
        domains: dict = {}
        for n, data in g.nodes(data=True):
            if data["level"] == "stub":
                domains.setdefault(data["domain"], []).append(n)
        for dom, members in domains.items():
            has_uplink = any(
                g.nodes[m2]["level"] == "transit"
                for m in members
                for m2 in g.neighbors(m)
            )
            assert has_uplink, f"stub domain {dom} has no uplink"

    def test_paper_scale_generation(self):
        g = generate_transit_stub(seed=0)
        assert g.number_of_nodes() == 792
        assert nx.is_connected(g)
        assert len(stub_routers(g)) == 792 - 24


class TestGeo:
    def test_known_distance_boston_la(self):
        boston = GeoSite("boston", "us", 42.36, -71.06)
        la = GeoSite("la", "us", 34.05, -118.24)
        dist = great_circle_km(boston, la)
        assert 4150 < dist < 4250  # ~4180 km

    def test_zero_distance_same_point(self):
        a = GeoSite("a", "us", 40.0, -100.0)
        b = GeoSite("b", "us", 40.0, -100.0)
        assert great_circle_km(a, b) == pytest.approx(0.0)

    def test_rtt_positive_for_distinct_hosts(self):
        a = GeoSite("a", "us", 40.0, -100.0, access_ms=1.0)
        b = GeoSite("b", "us", 40.0, -100.0, access_ms=1.0)
        assert rtt_ms_between(a, b) == pytest.approx(4.0)  # access terms only

    def test_rtt_scales_with_distance(self):
        a = GeoSite("a", "us", 0.0, 0.0)
        near = GeoSite("n", "us", 1.0, 0.0)
        far = GeoSite("f", "us", 30.0, 0.0)
        assert rtt_ms_between(a, far) > rtt_ms_between(a, near)

    def test_rtt_symmetric(self):
        a = GeoSite("a", "us", 10.0, 20.0, access_ms=0.5)
        b = GeoSite("b", "eu", 50.0, 8.0, access_ms=2.0)
        assert rtt_ms_between(a, b) == pytest.approx(rtt_ms_between(b, a))

    def test_bad_coordinates_rejected(self):
        with pytest.raises(ValueError, match="latitude"):
            GeoSite("x", "us", 91.0, 0.0)
        with pytest.raises(ValueError, match="longitude"):
            GeoSite("x", "us", 0.0, 181.0)

    def test_bad_inflation_rejected(self):
        a = GeoSite("a", "us", 0.0, 0.0)
        b = GeoSite("b", "us", 1.0, 1.0)
        with pytest.raises(ValueError, match="route_inflation"):
            rtt_ms_between(a, b, route_inflation=0.5)


class TestLinkErrors:
    def _graph(self):
        return generate_transit_stub(SMALL, seed=0)

    def test_uncorrelated_within_bounds(self):
        g = self._graph()
        assign_link_errors(g, LinkErrorConfig(max_error=0.02), seed=1)
        errs = [d["error"] for _, _, d in g.edges(data=True)]
        assert all(0.0 <= e <= 0.02 for e in errs)
        assert len(set(errs)) > 1

    def test_deterministic(self):
        g1, g2 = self._graph(), self._graph()
        assign_link_errors(g1, seed=5)
        assign_link_errors(g2, seed=5)
        for e in g1.edges():
            assert g1.edges[e]["error"] == g2.edges[e]["error"]

    def _rank_corr(self, g):
        delays = np.array([d["delay"] for _, _, d in g.edges(data=True)])
        errors = np.array([d["error"] for _, _, d in g.edges(data=True)])
        dr = np.argsort(np.argsort(delays))
        er = np.argsort(np.argsort(errors))
        return np.corrcoef(dr, er)[0, 1]

    def test_positive_correlation(self):
        g = self._graph()
        assign_link_errors(g, LinkErrorConfig(correlation=1.0), seed=2)
        assert self._rank_corr(g) > 0.95

    def test_negative_correlation(self):
        g = self._graph()
        assign_link_errors(g, LinkErrorConfig(correlation=-1.0), seed=2)
        assert self._rank_corr(g) < -0.95

    def test_zero_correlation_roughly_independent(self):
        g = self._graph()
        assign_link_errors(g, LinkErrorConfig(correlation=0.0), seed=2)
        assert abs(self._rank_corr(g)) < 0.5

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            LinkErrorConfig(min_error=0.05, max_error=0.01)
        with pytest.raises(ValueError):
            LinkErrorConfig(correlation=2.0)

    def test_path_success(self):
        assert path_success_probability([]) == 1.0
        assert path_success_probability([0.5, 0.5]) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            path_success_probability([1.5])
