"""Tests for the data-plane accountant."""

import numpy as np
import pytest

from repro.protocols.base import TreeRegistry
from repro.sim.delivery import DeliveryAccountant
from repro.sim.network import MatrixUnderlay

from tests import oracles
from tests.helpers import line_matrix


def make_world(loss_pairs=None):
    """3-host matrix underlay + registry + accountant at 10 chunks/s."""
    n = 4
    rtt = line_matrix([0.0, 10.0, 20.0, 30.0])
    loss = None
    if loss_pairs:
        loss = np.zeros((n, n))
        for (a, b), p in loss_pairs.items():
            loss[a, b] = loss[b, a] = p
    ul = MatrixUnderlay(rtt, loss=loss)
    tree = TreeRegistry(source=0)
    acct = DeliveryAccountant(tree, ul, chunk_rate=10.0)
    return ul, tree, acct


class TestPerfectDelivery:
    def test_continuously_connected_node_loses_nothing(self):
        _, tree, acct = make_world()
        tree.attach(1, 0, time=0.0)
        stats = acct.node_stats(1, 0.0, 100.0)
        assert stats.expected_chunks == pytest.approx(1000.0)
        assert stats.received_chunks == pytest.approx(1000.0)
        assert stats.loss_rate == 0.0

    def test_lifetime_starts_at_first_attach(self):
        _, tree, acct = make_world()
        tree.attach(1, 0, time=40.0)
        stats = acct.node_stats(1, 0.0, 100.0)
        assert stats.expected_chunks == pytest.approx(600.0)

    def test_untracked_node_zero(self):
        _, tree, acct = make_world()
        stats = acct.node_stats(9, 0.0, 100.0)
        assert stats.expected_chunks == 0.0
        assert stats.loss_rate == 0.0


    def test_one_ledger_is_built_per_node_not_per_refresh(self, monkeypatch):
        from repro.sim import delivery

        built = []
        ledger_cls = delivery._NodeLedger
        monkeypatch.setattr(
            delivery, "_NodeLedger", lambda: built.append(1) or ledger_cls()
        )
        _, tree, acct = make_world()
        tree.attach(1, 0, 0.0)
        tree.attach(2, 1, 0.0)
        tree.depart(1, 50.0)  # refreshes 2
        tree.attach(2, 0, 60.0)  # and again
        tree.attach(3, 2, 70.0)
        tree.sever(2, 80.0)  # refreshes 2 and 3
        assert len(built) == len(acct.tracked_nodes()) == 3

    def test_subscribes_to_a_tree_of_just_the_source(self):
        # Every member must enter the ledger at the event that placed it:
        # the window sums accumulate in ledger order.
        ul = MatrixUnderlay(line_matrix([0.0, 10.0]))
        tree = TreeRegistry(source=0)
        tree.attach(1, 0, 0.0)
        with pytest.raises(ValueError, match="just the source"):
            DeliveryAccountant(tree, ul)
        tree.depart(1, 1.0)
        DeliveryAccountant(tree, ul)


class TestChurnOutage:
    def test_orphan_gap_counts_as_loss(self):
        _, tree, acct = make_world()
        tree.attach(1, 0, 0.0)
        tree.attach(2, 1, 0.0)
        tree.depart(1, 50.0)  # 2 orphaned
        tree.attach(2, 0, 60.0)  # reconnects after 10 s
        stats = acct.node_stats(2, 0.0, 100.0)
        assert stats.expected_chunks == pytest.approx(1000.0)
        assert stats.received_chunks == pytest.approx(900.0)
        assert stats.loss_rate == pytest.approx(0.1)

    def test_departed_node_stops_expecting(self):
        _, tree, acct = make_world()
        tree.attach(1, 0, 0.0)
        tree.depart(1, 30.0)
        stats = acct.node_stats(1, 0.0, 100.0)
        assert stats.expected_chunks == pytest.approx(300.0)
        assert stats.loss_rate == 0.0

    def test_deep_subtree_outage(self):
        _, tree, acct = make_world()
        tree.attach(1, 0, 0.0)
        tree.attach(2, 1, 0.0)
        tree.attach(3, 2, 0.0)
        tree.depart(1, 50.0)
        tree.attach(2, 0, 70.0)  # orphan root reconnects; 3 comes along
        stats3 = acct.node_stats(3, 0.0, 100.0)
        assert stats3.received_chunks == pytest.approx(800.0)

    def test_aggregate_loss_rate(self):
        _, tree, acct = make_world()
        tree.attach(1, 0, 0.0)
        tree.attach(2, 1, 0.0)
        tree.depart(1, 90.0)
        # 2 stays orphaned to the end of the window.
        snap = acct.window_snapshot(0.0, 100.0)
        assert snap.loss_rate > 0.0
        assert snap.mean_node_loss > 0.0


class TestLinkErrors:
    def test_path_error_reduces_received(self):
        _, tree, acct = make_world(loss_pairs={(0, 1): 0.1})
        tree.attach(1, 0, 0.0)
        stats = acct.node_stats(1, 0.0, 100.0)
        assert stats.received_chunks == pytest.approx(900.0)
        assert stats.loss_rate == pytest.approx(0.1)

    def test_errors_compound_along_overlay_path(self):
        _, tree, acct = make_world(loss_pairs={(0, 1): 0.1, (1, 2): 0.2})
        tree.attach(1, 0, 0.0)
        tree.attach(2, 1, 0.0)
        stats = acct.node_stats(2, 0.0, 100.0)
        assert stats.loss_rate == pytest.approx(1 - 0.9 * 0.8)

    def test_reparent_onto_cleaner_path_improves(self):
        _, tree, acct = make_world(loss_pairs={(0, 1): 0.5})
        tree.attach(1, 0, 0.0)
        tree.attach(2, 1, 0.0)  # path error 0.5 via node 1
        tree.reparent(2, 0, 50.0)  # direct, clean
        stats = acct.node_stats(2, 0.0, 100.0)
        # 50 s at 50% + 50 s at 100%
        assert stats.received_chunks == pytest.approx(250.0 + 500.0)

    def test_received_never_exceeds_expected(self):
        _, tree, acct = make_world()
        tree.attach(1, 0, 0.0)
        stats = acct.node_stats(1, 0.0, 1.0)
        assert stats.received_chunks <= stats.expected_chunks


class TestDataMessages:
    def test_counts_reachable_node_seconds(self):
        _, tree, acct = make_world()
        tree.attach(1, 0, 0.0)
        tree.attach(2, 1, 50.0)
        assert acct.data_messages(0.0, 100.0) == pytest.approx(
            10.0 * (100.0 + 50.0)
        )

    def test_orphan_time_not_counted(self):
        _, tree, acct = make_world()
        tree.attach(1, 0, 0.0)
        tree.attach(2, 1, 0.0)
        tree.depart(1, 50.0)
        tree.attach(2, 0, 80.0)
        # node 2: 50 s + 20 s reachable; node 1: 50 s
        assert acct.data_messages(0.0, 100.0) == pytest.approx(10.0 * 120.0)

    def test_bad_window_rejected(self):
        _, tree, acct = make_world()
        with pytest.raises(ValueError, match="bad window"):
            acct.data_messages(10.0, 5.0)
        with pytest.raises(ValueError, match="bad window"):
            acct.node_stats(1, 10.0, 5.0)


WINDOW_QUERIES = {
    "window_snapshot": lambda acct, w0, w1: acct.window_snapshot(w0, w1),
    # the reference aggregates refuse the same bounds
    "loss_rate": oracles.loss_rate,
    "mean_node_loss": oracles.mean_node_loss,
    "outage_seconds": lambda acct, w0, w1: acct.outage_seconds(w0, w1),
    "chunks_lost": lambda acct, w0, w1: acct.chunks_lost(w0, w1),
    "data_messages": lambda acct, w0, w1: acct.data_messages(w0, w1),
    "node_stats": lambda acct, w0, w1: acct.node_stats(1, w0, w1),
}
NAN, INF = float("nan"), float("inf")


class TestNonFiniteBounds:
    @pytest.mark.parametrize("query", sorted(WINDOW_QUERIES))
    @pytest.mark.parametrize(
        "w0, w1",
        [(NAN, 3.0), (0.0, NAN), (0.0, INF), (-INF, 3.0)],
        ids=["nan-start", "nan-end", "inf-end", "-inf-start"],
    )
    def test_window_refused(self, query, w0, w1):
        _, tree, acct = make_world()
        tree.attach(1, 0, 0.0)
        tree.attach(2, 1, 1.0)
        with pytest.raises(ValueError, match="w0|w1"):
            WINDOW_QUERIES[query](acct, w0, w1)

    @pytest.mark.parametrize("query", ["reception_segments", "lifetime_intervals"])
    @pytest.mark.parametrize("until", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
    def test_until_refused(self, query, until):
        _, tree, acct = make_world()
        tree.attach(1, 0, 0.0)
        with pytest.raises(ValueError, match="until"):
            getattr(acct, query)(1, until)

    @pytest.mark.parametrize("w1", [NAN, INF], ids=["nan", "inf"])
    def test_a_refused_snapshot_keeps_the_fused_pass(self, w1):
        _, tree, acct = make_world()
        tree.attach(1, 0, 0.0)
        acct.window_snapshot(0.0, 5.0)
        with pytest.raises(ValueError):
            acct.window_snapshot(5.0, w1)
        assert acct._fused_from == 5.0


class TestWindowing:
    def test_windowed_loss_isolates_churn_burst(self):
        _, tree, acct = make_world()
        tree.attach(1, 0, 0.0)
        tree.attach(2, 1, 0.0)
        tree.depart(1, 50.0)
        tree.attach(2, 0, 60.0)
        # The burst window contains all of it.
        assert acct.window_snapshot(40.0, 60.0).loss_rate > 0.0
        # Quiet window after recovery: no loss.
        assert acct.window_snapshot(60.0, 100.0).loss_rate == 0.0

    def test_backward_window_refused(self):
        # The fused pass only moves forward; a window reaching back before
        # the end of the last one is refused and leaves the pass as it was.
        _, tree, acct = make_world()
        tree.attach(1, 0, 0.0)
        acct.window_snapshot(0.0, 10.0)
        with pytest.raises(ValueError, match="before the end of the last"):
            acct.window_snapshot(5.0, 20.0)
        assert acct._fused_from == 10.0
        assert acct.window_snapshot(10.0, 20.0).loss_rate == 0.0

    def test_fused_window_rereads_an_interval_a_close_extends(self):
        # Node 1 departs at 10 and is back at the same instant: the closes
        # that follow merge into the lifetime and reachable intervals the
        # fused pass at [10, 10) had already reached, so it must reread them.
        _, tree, acct = make_world()
        tree.attach(1, 0, 0.0)
        acct.window_snapshot(0.0, 10.0)
        tree.depart(1, 10.0)
        acct.window_snapshot(10.0, 10.0)
        tree.attach(1, 0, 10.0)
        tree.sever(1, 12.0)
        tree.depart(1, 15.0)
        assert acct.lifetime_intervals(1, 20.0) == [(0.0, 15.0)]
        separate = (
            oracles.loss_rate(acct, 10.0, 20.0),
            oracles.mean_node_loss(acct, 10.0, 20.0),
            acct.data_messages(10.0, 20.0),
        )
        assert separate == pytest.approx((0.6, 0.6, 20.0))
        snap = acct.window_snapshot(10.0, 20.0)
        assert (snap.loss_rate, snap.mean_node_loss, snap.data_messages) == separate

    def test_lossy_steady_windows_equal_the_separate_queries(self):
        # Paths of success 0.9 and 0.9 * 0.8 stay unchanged across several
        # forward windows: after the first, both ledgers are steady and the
        # fused pass serves them from the closed form.
        from repro.sim import delivery

        _, tree, acct = make_world(loss_pairs={(0, 1): 0.1, (1, 2): 0.2})
        tree.attach(1, 0, 0.0)
        tree.attach(2, 1, 0.3)
        bounds = [0.0, 0.7, 1.3, 2.9, 4.1, 4.1, 5.3]
        steady = []
        for w0, w1 in zip(bounds, bounds[1:]):
            steady.append(
                [acct._ledger[n].state == delivery._STEADY for n in (1, 2)]
            )
            separate = (
                oracles.loss_rate(acct, w0, w1),
                oracles.mean_node_loss(acct, w0, w1),
                acct.data_messages(w0, w1),
            )
            snap = acct.window_snapshot(w0, w1)
            got = (snap.loss_rate, snap.mean_node_loss, snap.data_messages)
            assert [v.hex() for v in got] == [v.hex() for v in separate]
            assert (separate[0] > 0.0) == (w1 > w0)
        assert steady[1:] == [[True, True]] * 5

    def test_chunk_rate_validation(self):
        _, tree, _ = make_world()
        ul = MatrixUnderlay(line_matrix([0.0, 1.0]))
        # An infinite rate would otherwise report zero loss.
        for rate in (0.0, float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="chunk_rate"):
                DeliveryAccountant(TreeRegistry(0), ul, chunk_rate=rate)
