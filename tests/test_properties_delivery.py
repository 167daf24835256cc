"""Property-based tests for delivery accounting and topology generation.

The accountant is the numerical heart of every loss figure, so it gets
adversarial random schedules here: arbitrary valid attach/orphan/
reparent/depart sequences must keep its books consistent.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.protocols.base import TreeRegistry
from repro.sim.delivery import DeliveryAccountant
from repro.sim.network import MatrixUnderlay
from repro.topology.transit_stub import TransitStubConfig

from tests.helpers import line_matrix
from tests.lazy_underlay import generate_transit_stub

N_NODES = 8


def random_tree_run(ops: list[tuple[int, int]], chunk_rate=10.0):
    """Drive the registry with a random-but-valid mutation schedule.

    Each op ``(node, target)`` tries, in order: attach absent/orphan node
    under target; reparent attached node to target; depart node.  Invalid
    moves are skipped — hypothesis explores the valid subsequences.
    """
    ul = MatrixUnderlay(line_matrix([float(10 * i) for i in range(N_NODES)]))
    tree = TreeRegistry(0)
    acct = DeliveryAccountant(tree, ul, chunk_rate=chunk_rate)
    t = 0.0
    for node, target in ops:
        t += 1.0
        node = 1 + node % (N_NODES - 1)  # never the source
        target = target % N_NODES
        if target == node:
            target = 0
        if not tree.is_present(target) or not tree.is_attached(target):
            continue
        if not tree.is_present(node):
            tree.attach(node, target, t)
        elif tree.is_orphan(node):
            if not tree.is_descendant(target, node):
                tree.attach(node, target, t)
        else:
            # Alternate between reparenting and departing.
            if (node + target) % 3 == 0:
                tree.depart(node, t)
            elif not tree.is_descendant(target, node) and target != tree.parent.get(node):
                tree.reparent(node, target, t)
    return tree, acct, t + 1.0


ops_strategy = st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=1, max_size=60
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_accountant_books_always_consistent(ops):
    tree, acct, end = random_tree_run(ops)
    for node in acct.tracked_nodes():
        stats = acct.node_stats(node, 0.0, end)
        # Received never exceeds expected; both non-negative.
        assert 0.0 <= stats.received_chunks <= stats.expected_chunks + 1e-9
        assert 0.0 <= stats.loss_rate <= 1.0
        # Reception segments are disjoint, ordered, inside the lifetime.
        segments = acct.reception_segments(node, end)
        prev_end = -1.0
        life = acct.lifetime_intervals(node, end)
        for s0, s1, success in segments:
            assert s0 >= prev_end - 1e-9
            assert 0.0 <= success <= 1.0
            assert s1 >= s0
            assert any(l0 - 1e-9 <= s0 and s1 <= l1 + 1e-9 for l0, l1 in life)
            prev_end = s1


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_loss_rate_windows_compose(ops):
    """Aggregate expected/received over two half-windows equals the whole."""
    tree, acct, end = random_tree_run(ops)
    mid = end / 2
    for node in acct.tracked_nodes():
        whole = acct.node_stats(node, 0.0, end)
        left = acct.node_stats(node, 0.0, mid)
        right = acct.node_stats(node, mid, end)
        assert whole.expected_chunks == pytest.approx(
            left.expected_chunks + right.expected_chunks, abs=1e-6
        )
        assert whole.received_chunks == pytest.approx(
            left.received_chunks + right.received_chunks, abs=1e-6
        )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_data_messages_bounded_by_population_time(ops):
    tree, acct, end = random_tree_run(ops)
    msgs = acct.data_messages(0.0, end)
    assert 0.0 <= msgs <= 10.0 * (N_NODES - 1) * end + 1e-6


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    domains=st.integers(1, 3),
    per_domain=st.integers(2, 4),
    stubs=st.integers(1, 3),
    total=st.integers(40, 120),
)
def test_transit_stub_always_well_formed(seed, domains, per_domain, stubs, total):
    import networkx as nx

    n_transit = domains * per_domain
    n_stub_domains = n_transit * stubs
    if total <= n_transit or total - n_transit < n_stub_domains:
        return  # config invalid by construction; rejected elsewhere
    cfg = TransitStubConfig(
        total_nodes=total,
        transit_domains=domains,
        transit_nodes_per_domain=per_domain,
        stub_domains_per_transit=stubs,
    )
    g = generate_transit_stub(cfg, seed=seed)
    assert g.number_of_nodes() == total
    assert nx.is_connected(g)
    assert all(d["delay"] > 0 for _, _, d in g.edges(data=True))
