"""Tests for the MST references."""


import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.protocols.mst import degree_constrained_mst, mst_parent_map, tree_cost

from tests.helpers import line_matrix


def matrix_weight(rtt):
    return lambda a, b: rtt[a][b]


def networkx_mst_parent_map(members, source, weight):
    """The oracle: networkx's Kruskal MST over the same member graph,
    walked by ``bfs_edges`` from the source (what ``mst_parent_map`` was
    before it ran without a graph library)."""
    nodes = list(dict.fromkeys(members))
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            graph.add_edge(a, b, weight=float(weight(a, b)))
    mst = nx.minimum_spanning_tree(graph, weight="weight")
    return {child: parent for parent, child in nx.bfs_edges(mst, source)}


@st.composite
def tied_member_graphs(draw):
    """A shuffled member list with the source anywhere in it, and
    symmetric pair weights from a few values, so ties are the rule.
    Either small integers, or floats whose sums depend on their order
    (which is what makes ``tree_cost`` bits a test of dict order)."""
    ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True))
    members = draw(st.permutations(ids))
    source = draw(st.sampled_from(members))
    values = draw(
        st.sampled_from(
            [st.integers(0, 3).map(float), st.sampled_from([0.1, 0.2, 0.3, 0.7])]
        )
    )
    table = {}
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            table[frozenset((a, b))] = draw(values)
    return members, source, lambda a, b: table[frozenset((a, b))]


class TestExactnessAgainstNetworkx:
    """``mst_parent_map`` is networkx's answer, dict order included, so
    ``tree_cost`` (and Fig 5.31's ``mst_ratio``) keep their bits."""

    @settings(max_examples=300, deadline=None)
    @given(case=tied_member_graphs())
    def test_same_parent_map_in_the_same_order(self, case):
        members, source, weight = case
        got = mst_parent_map(members, source, weight)
        want = networkx_mst_parent_map(members, source, weight)
        assert list(got.items()) == list(want.items())
        assert repr(tree_cost(got, weight)) == repr(tree_cost(want, weight))

    @settings(max_examples=50, deadline=None)
    @given(case=tied_member_graphs(), data=st.data())
    def test_a_nan_weight_raises_from_both(self, case, data):
        members, source, weight = case
        if len(members) < 2:
            members = [*members, max(members) + 1]
        i = data.draw(st.integers(0, len(members) - 2))
        j = data.draw(st.integers(i + 1, len(members) - 1))
        bad = frozenset((members[i], members[j]))

        def nan_weight(a, b):
            return float("nan") if frozenset((a, b)) == bad else 1.0

        for implementation in (mst_parent_map, networkx_mst_parent_map):
            with pytest.raises(ValueError, match="NaN"):
                implementation(members, source, nan_weight)


class TestExactMST:
    def test_line_topology_chains(self):
        rtt = line_matrix([0.0, 10.0, 20.0, 30.0])
        parents = mst_parent_map([0, 1, 2, 3], 0, matrix_weight(rtt))
        assert parents == {1: 0, 2: 1, 3: 2}

    def test_cost_matches(self):
        rtt = line_matrix([0.0, 10.0, 20.0, 30.0])
        parents = mst_parent_map([0, 1, 2, 3], 0, matrix_weight(rtt))
        assert tree_cost(parents, matrix_weight(rtt)) == pytest.approx(30.0)

    def test_single_member(self):
        assert mst_parent_map([0], 0, lambda a, b: 1.0) == {}

    def test_source_must_be_member(self):
        with pytest.raises(ValueError, match="source"):
            mst_parent_map([1, 2], 0, lambda a, b: 1.0)

    def test_matches_networkx_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = 8
            pts = rng.uniform(0, 100, size=(n, 2))
            dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            weight = lambda a, b: float(dist[a, b])
            parents = mst_parent_map(list(range(n)), 0, weight)
            got = tree_cost(parents, weight)
            g = nx.Graph()
            for i in range(n):
                for j in range(i + 1, n):
                    g.add_edge(i, j, weight=dist[i, j])
            want = nx.minimum_spanning_tree(g).size(weight="weight")
            assert got == pytest.approx(want)


class TestDegreeConstrainedMST:
    def test_respects_limits(self):
        # Star-shaped instance: everything closest to the hub 0.
        rtt = np.array(
            [
                [0, 1, 1, 1, 1],
                [1, 0, 2, 2, 2],
                [1, 2, 0, 2, 2],
                [1, 2, 2, 0, 2],
                [1, 2, 2, 2, 0],
            ],
            dtype=float,
        )
        parents = degree_constrained_mst(
            list(range(5)), 0, matrix_weight(rtt), degree_limit=2
        )
        counts = {}
        for child, parent in parents.items():
            counts[parent] = counts.get(parent, 0) + 1
        assert all(v <= 2 for v in counts.values())
        assert len(parents) == 4  # spans

    def test_unconstrained_matches_exact_on_unique_weights(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 100, size=(7, 2))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        weight = lambda a, b: float(dist[a, b])
        exact = tree_cost(mst_parent_map(list(range(7)), 0, weight), weight)
        greedy = tree_cost(
            degree_constrained_mst(list(range(7)), 0, weight, degree_limit=10),
            weight,
        )
        assert greedy == pytest.approx(exact)

    def test_constraint_increases_cost(self):
        rtt = np.array(
            [
                [0, 1, 1, 1, 1],
                [1, 0, 5, 5, 5],
                [1, 5, 0, 5, 5],
                [1, 5, 5, 0, 5],
                [1, 5, 5, 5, 0],
            ],
            dtype=float,
        )
        w = matrix_weight(rtt)
        free = tree_cost(degree_constrained_mst(list(range(5)), 0, w, 10), w)
        tight = tree_cost(degree_constrained_mst(list(range(5)), 0, w, 1), w)
        assert tight > free

    def test_per_node_limits(self):
        rtt = line_matrix([0.0, 1.0, 2.0, 3.0])
        parents = degree_constrained_mst(
            [0, 1, 2, 3], 0, matrix_weight(rtt), degree_limit={0: 3, 1: 1, 2: 1, 3: 1}
        )
        assert len(parents) == 3

    def test_bad_limit_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            degree_constrained_mst([0, 1], 0, lambda a, b: 1.0, degree_limit=0)

    def test_duplicate_members_deduped(self):
        rtt = line_matrix([0.0, 1.0])
        parents = mst_parent_map([0, 1, 1, 0], 0, matrix_weight(rtt))
        assert parents == {1: 0}


@settings(max_examples=25, deadline=None)
@given(
    coords=st.lists(
        st.floats(min_value=0, max_value=1000, allow_nan=False),
        min_size=2,
        max_size=12,
        unique=True,
    )
)
def test_mst_cost_lower_bounds_dcmst(coords):
    """The exact MST can never cost more than any degree-constrained tree."""
    rtt = line_matrix(coords)
    nodes = list(range(len(coords)))
    w = matrix_weight(rtt)
    exact = tree_cost(mst_parent_map(nodes, 0, w), w)
    constrained = tree_cost(degree_constrained_mst(nodes, 0, w, 2), w)
    assert exact <= constrained + 1e-9
