"""Tests for the experiment harness: substrates, registry, CLI."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import experiments
from repro.harness.__main__ import main as cli_main
from repro.harness.presets import PRESETS
from repro.harness.registry import REGISTRY, run_experiment
from repro.harness.substrates import (
    _planetlab_loss_matrix,
    build_planetlab_underlay,
    build_transit_stub_underlay,
)
from repro.metrics.report import SeriesTable
from repro.topology.transit_stub import TransitStubConfig
from repro.util import artifacts
from repro.util.rngtools import spawn_rng

SMOKE = PRESETS["smoke"]


@pytest.fixture(autouse=True)
def fresh_cache():
    experiments.clear_cache()
    yield
    experiments.clear_cache()


class TestSubstrates:
    def test_transit_stub_underlay(self):
        ul = build_transit_stub_underlay(
            n_hosts=20,
            seed=1,
            ts_config=TransitStubConfig(
                total_nodes=60, transit_domains=2,
                transit_nodes_per_domain=2, stub_domains_per_transit=2,
            ),
        )
        assert len(ul.hosts) == 20
        assert ul.delay_ms(0, 1) > 0

    def test_transit_stub_more_hosts_than_stubs(self):
        cfg = TransitStubConfig(
            total_nodes=40, transit_domains=2,
            transit_nodes_per_domain=2, stub_domains_per_transit=2,
        )
        ul = build_transit_stub_underlay(n_hosts=100, seed=1, ts_config=cfg)
        assert len(ul.hosts) == 100

    def test_transit_stub_deterministic(self):
        a = build_transit_stub_underlay(n_hosts=10, seed=5)
        b = build_transit_stub_underlay(n_hosts=10, seed=5)
        assert a.delay_ms(0, 9) == b.delay_ms(0, 9)

    def test_too_few_hosts_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_transit_stub_underlay(n_hosts=1, seed=0)

    def test_planetlab_substrate(self):
        sub = build_planetlab_underlay(n_select=20, seed=2, n_us=50)
        assert sub.n_hosts == 20
        assert sub.source in sub.underlay.hosts
        assert len(sub.nodes) == 20

    def test_planetlab_with_loss(self):
        sub = build_planetlab_underlay(
            n_select=10, seed=2, n_us=40, loss_sigma=0.5
        )
        errs = [
            sub.underlay.path_error(a, b)
            for a in sub.underlay.hosts
            for b in sub.underlay.hosts
            if a < b
        ]
        assert any(e > 0 for e in errs)
        assert all(0 <= e <= 1 for e in errs)

    def test_planetlab_overselect_rejected(self):
        with pytest.raises(ValueError, match="cannot select"):
            build_planetlab_underlay(n_select=100, seed=2, n_us=30)

    def test_planetlab_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(artifacts.CACHE_DIR_ENV, str(tmp_path / "cache"))
        monkeypatch.delenv(artifacts.CACHE_ENABLED_ENV, raising=False)
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

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
        sigma=st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
    )
    def test_loss_block_draw_matches_scalar_loop_bitwise(self, n, seed, sigma):
        # the historical per-pair loop, verbatim
        loss_rng = spawn_rng(seed, "loss")
        expected = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                rate = min(0.2, loss_rng.lognormal(np.log(0.005), sigma))
                expected[i, j] = expected[j, i] = rate
        actual = _planetlab_loss_matrix(n, seed, sigma)
        np.testing.assert_array_equal(actual, expected)


class TestRegistry:
    def test_covers_every_paper_figure(self):
        expected = (
            [f"fig3_{n}" for n in range(25, 37)]
            + [f"fig4_{n}" for n in range(6, 10)]
            + [f"fig5_{n}" for n in range(7, 32)]
            + ["abl"]
        )
        assert set(expected) <= set(REGISTRY)

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError, match="unknown figure"):
            run_experiment("fig9_99", SMOKE)

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError, match="unknown preset"):
            run_experiment("fig3_25", "huge")

    def test_run_ch3_smoke(self):
        table = run_experiment("fig3_25", SMOKE)
        assert isinstance(table, SeriesTable)
        assert {s.name for s in table.series} == {"VDM", "HMTP"}
        assert len(table.x_values) == len(SMOKE.churn_rates)

    def test_group_caching_shares_runs(self):
        t1 = run_experiment("fig3_25", SMOKE)
        t2 = run_experiment("fig3_26", SMOKE)  # same sweep group
        # The cache key is the group: identical x axes, distinct metrics.
        assert t1.x_values == t2.x_values
        assert t1 is not t2

    def test_cache_is_keyed_by_preset_value(self):
        """A preset differing only in a swept axis is another sweep, whatever
        its name; only the worker count (execution policy) shares an entry."""
        first = experiments.ch3_degree_tables(SMOKE)
        narrowed = dataclasses.replace(SMOKE, degree_values=(3,))
        assert experiments.ch3_degree_tables(narrowed)["stress"].x_values == [3.0]
        serial = dataclasses.replace(SMOKE, jobs=1)
        assert experiments.ch3_degree_tables(serial)["stress"] is first["stress"]

    def test_run_ch5_mst_smoke(self):
        table = run_experiment("fig5_31", SMOKE)
        ratios = table.get("VDM/MST").means()
        assert all(r >= 0.99 for r in ratios)

    def test_sample_tree_renders(self):
        text = experiments.ch5_sample_tree(SMOKE)
        assert "Sample VDM tree" in text
        assert "cross-region" in text


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig3_25" in out and "fig5_31" in out

    def test_no_args_prints_help(self, capsys):
        assert cli_main([]) == 2

    def test_run_figure(self, capsys):
        assert cli_main(["fig5_31", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "VDM/MST" in out

    def test_json_output(self, capsys):
        assert cli_main(["fig5_31", "--preset", "smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "series" in payload

    def test_sample_tree(self, capsys):
        assert cli_main(["--sample-tree", "--preset", "smoke"]) == 0
        assert "Sample VDM tree" in capsys.readouterr().out
