"""Tests for the metric collectors and replication statistics."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.metrics.collectors import collect_tree_metrics, mst_ratio
from repro.metrics.stats import mean_ci, summarize
from repro.protocols.base import TreeRegistry
from repro.sim.network import MatrixUnderlay

from tests import oracles
from tests.helpers import line_matrix
from tests.lazy_underlay import RouterUnderlay


def _collect(tree, ul):
    """The one collector, fed the walked-once link multiset."""
    return collect_tree_metrics(tree, ul, oracles.link_usage(tree, ul))


def chain_world():
    """Line hosts 0-10-20-30 with the chain tree 0->1->2->3."""
    ul = MatrixUnderlay(line_matrix([0.0, 10.0, 20.0, 30.0]))
    tree = TreeRegistry(0)
    tree.attach(1, 0, 0.0)
    tree.attach(2, 1, 0.0)
    tree.attach(3, 2, 0.0)
    return ul, tree


def star_world():
    ul = MatrixUnderlay(line_matrix([0.0, 10.0, 20.0, 30.0]))
    tree = TreeRegistry(0)
    for n in (1, 2, 3):
        tree.attach(n, 0, 0.0)
    return ul, tree


class TestStretch:
    def test_chain_stretch_one_on_a_line(self):
        ul, tree = chain_world()
        s = _collect(tree, ul).stretch
        # On a line the chain is exactly the unicast path.
        assert s.average == pytest.approx(1.0)
        assert s.minimum == pytest.approx(1.0)
        assert s.maximum == pytest.approx(1.0)
        assert s.count == 3

    def test_detour_increases_stretch(self):
        # Host 3 fed through host 1 after overshooting: 0->2->1->3 where
        # positions are 0,10,20,30: path 0->2 (10) wait... build directly:
        ul = MatrixUnderlay(line_matrix([0.0, 20.0, 10.0, 30.0]))
        tree = TreeRegistry(0)
        tree.attach(1, 0, 0.0)  # at 20
        tree.attach(2, 1, 0.0)  # at 10: U-turn
        s = _collect(tree, ul).stretch
        # node 2: overlay 20 + 10 = 30 vs unicast 10 -> stretch 3.
        assert s.maximum == pytest.approx(3.0)

    def test_leaf_average(self):
        ul, tree = chain_world()
        s = _collect(tree, ul).stretch
        assert s.leaf_average == pytest.approx(1.0)  # only node 3 is a leaf

    def test_orphan_subtrees_excluded(self):
        ul, tree = chain_world()
        tree.depart(1, 1.0)
        s = _collect(tree, ul).stretch
        assert s.count == 0

    def test_empty_tree(self):
        ul = MatrixUnderlay(line_matrix([0.0, 1.0]))
        s = _collect(TreeRegistry(0), ul).stretch
        assert s.count == 0 and s.average == 0.0


class TestHopcount:
    def test_chain_depths(self):
        ul, tree = chain_world()
        h = _collect(tree, ul).hopcount
        assert h.average == pytest.approx(2.0)  # (1+2+3)/3
        assert h.maximum == 3
        assert h.leaf_average == pytest.approx(3.0)

    def test_star_depths(self):
        ul, tree = star_world()
        h = _collect(tree, ul).hopcount
        assert h.average == pytest.approx(1.0)
        assert h.maximum == 1


class TestStressRouterUnderlay:
    def make(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(0, 1, delay=5.0)
        g.add_edge(1, 2, delay=5.0)
        ul = RouterUnderlay(g, {10: 0, 11: 2, 12: 2}, access_delay_ms=1.0)
        return ul

    def test_star_from_source_stresses_shared_links(self):
        ul = self.make()
        tree = TreeRegistry(10)
        tree.attach(11, 10, 0.0)
        tree.attach(12, 10, 0.0)
        s = _collect(tree, ul).stress
        # Both overlay edges traverse router links (0,1) and (1,2) and the
        # source access link: those carry 2 copies each.
        assert s.maximum == 2
        assert s.average > 1.0

    def test_chain_has_unit_stress(self):
        ul = self.make()
        tree = TreeRegistry(10)
        tree.attach(11, 10, 0.0)
        tree.attach(12, 11, 0.0)  # 11 and 12 share router 2
        s = _collect(tree, ul).stress
        # Router links carry one copy each; host 11's access link carries
        # two (its own stream in, plus the copy forwarded to 12).
        assert s.maximum == 2
        router_links = [("router", 0, 1), ("router", 1, 2)]
        from collections import Counter

        usage = Counter()
        for p, c in tree.edges():
            for link in ul.path_links(p, c):
                usage[link] += 1
        assert all(usage[link] == 1 for link in router_links)

    def test_empty(self):
        ul = self.make()
        s = _collect(TreeRegistry(10), ul).stress
        assert s.average == 0.0 and s.links_used == 0


class TestResourceUsage:
    def test_chain_total(self):
        ul, tree = chain_world()
        u = _collect(tree, ul).usage
        assert u.total_ms == pytest.approx(15.0)  # 5+5+5 one-way
        # Star would cost 5+10+15=30 -> normalized 0.5
        assert u.normalized == pytest.approx(0.5)
        assert u.edges == 3

    def test_star_normalized_is_one(self):
        ul, tree = star_world()
        u = _collect(tree, ul).usage
        assert u.normalized == pytest.approx(1.0)


class TestMstRatio:
    def test_chain_on_line_is_optimal(self):
        ul, tree = chain_world()
        assert mst_ratio(tree, ul.rtt_ms) == pytest.approx(1.0)

    def test_star_on_line_is_suboptimal(self):
        ul, tree = star_world()
        assert mst_ratio(tree, ul.rtt_ms) == pytest.approx(2.0)  # 60/30

    def test_trivial_tree(self):
        ul = MatrixUnderlay(line_matrix([0.0, 1.0]))
        assert mst_ratio(TreeRegistry(0), ul.rtt_ms) == 1.0


class TestStats:
    def test_mean_ci_basics(self):
        s = mean_ci([1.0, 2.0, 3.0], confidence=0.90)
        assert s.mean == pytest.approx(2.0)
        assert s.n == 3
        assert s.lo < 2.0 < s.hi

    def test_single_value_infinite_ci(self):
        s = mean_ci([5.0])
        assert s.mean == 5.0
        assert math.isinf(s.ci_halfwidth)

    def test_zero_variance(self):
        s = mean_ci([4.0, 4.0, 4.0])
        assert s.ci_halfwidth == pytest.approx(0.0)

    def test_higher_confidence_wider(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert (
            mean_ci(vals, 0.99).ci_halfwidth > mean_ci(vals, 0.90).ci_halfwidth
        )

    def test_matches_known_t_interval(self):
        vals = [-1.5, -0.5, 0.5, 1.5]
        # sample sd = sqrt((2.25+0.25)*2/3) = sqrt(5/3)
        sd = math.sqrt(5.0 / 3.0)
        s = mean_ci(vals, confidence=0.90)
        assert s.ci_halfwidth == pytest.approx(2.353363 * sd / 2.0, rel=1e-4)

    # two-sided Student-t critical values, as printed in any t-table
    T_TABLE = {
        (1, 0.90): 6.314, (1, 0.95): 12.706, (1, 0.99): 63.657,
        (2, 0.90): 2.920, (2, 0.95): 4.303, (2, 0.99): 9.925,
        (4, 0.90): 2.132, (4, 0.95): 2.776, (4, 0.99): 4.604,
        (9, 0.90): 1.833, (9, 0.95): 2.262, (9, 0.99): 3.250,
        (31, 0.90): 1.696, (31, 0.95): 2.040, (31, 0.99): 2.744,
        (120, 0.90): 1.658, (120, 0.95): 1.980, (120, 0.99): 2.617,
    }

    @pytest.mark.parametrize(("df", "confidence"), sorted(T_TABLE))
    def test_halfwidth_is_the_t_table_value_times_the_standard_error(
        self, df, confidence
    ):
        n = df + 1
        vals = [float(v) for v in range(n)]
        sem = math.sqrt(n * (n + 1) / 12.0 / n)  # var of 0..n-1 is n(n+1)/12
        s = mean_ci(vals, confidence)
        assert s.ci_halfwidth / sem == pytest.approx(
            self.T_TABLE[df, confidence], abs=5e-4
        )

    def test_importing_the_package_leaves_scipy_stats_unloaded(self):
        """``mean_ci`` needs one quantile function; all of ``scipy.stats``
        costs ~0.4 s of start-up and ~35 MiB resident in every process."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        probe = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.harness, repro.service; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))",
            ],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "[]"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([])

    def test_bad_confidence(self):
        with pytest.raises(ValueError):
            mean_ci([1.0], confidence=1.0)

    def test_summarize(self):
        out = summarize({"a": [1.0, 2.0], "b": [3.0, 3.0]})
        assert out["a"].mean == pytest.approx(1.5)
        assert out["b"].ci_halfwidth == pytest.approx(0.0)

    def test_str_format(self):
        assert "±" in str(mean_ci([1.0, 2.0]))
