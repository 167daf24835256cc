"""Tests for the underlay models."""

import networkx as nx
import numpy as np
import pytest

from repro.harness.substrates import build_transit_stub_underlay
from repro.sim.network import MatrixUnderlay
from repro.sim.sparse import SparseUnderlay
from tests.lazy_underlay import RouterUnderlay


def tiny_router_graph():
    """A 4-router line: 0 -5ms- 1 -10ms- 2 -5ms- 3."""
    g = nx.Graph()
    g.add_edge(0, 1, delay=5.0)
    g.add_edge(1, 2, delay=10.0, error=0.1)
    g.add_edge(2, 3, delay=5.0)
    return g


class TestRouterUnderlay:
    def make(self, **kwargs):
        return RouterUnderlay(
            tiny_router_graph(),
            {100: 0, 101: 3, 102: 1},
            access_delay_ms=1.0,
            **kwargs,
        )

    def test_hosts_sorted(self):
        assert list(self.make().hosts) == [100, 101, 102]

    def test_delay_includes_access_links(self):
        ul = self.make()
        # 1 (access) + 5 + 10 + 5 + 1 (access)
        assert ul.delay_ms(100, 101) == pytest.approx(22.0)

    def test_delay_symmetric(self):
        ul = self.make()
        assert ul.delay_ms(100, 101) == pytest.approx(ul.delay_ms(101, 100))

    def test_self_delay_zero(self):
        assert self.make().delay_ms(100, 100) == 0.0

    def test_rtt_is_twice_delay(self):
        ul = self.make()
        assert ul.rtt_ms(100, 102) == pytest.approx(2 * ul.delay_ms(100, 102))

    def test_path_links_structure(self):
        ul = self.make()
        links = ul.path_links(100, 101)
        assert links[0] == ("access", 100)
        assert links[-1] == ("access", 101)
        assert ("router", 1, 2) in links
        assert len(links) == 5  # 2 access + 3 router hops

    def test_path_links_empty_for_self(self):
        assert self.make().path_links(100, 100) == ()

    def test_path_delay_consistent_with_delay(self):
        ul = self.make()
        total = sum(ul.link_delay(link) for link in ul.path_links(100, 101))
        assert total == pytest.approx(ul.delay_ms(100, 101))

    def test_link_error_and_path_error(self):
        ul = self.make()
        assert ul.link_error(("router", 1, 2)) == pytest.approx(0.1)
        assert ul.link_error(("router", 0, 1)) == 0.0
        assert ul.path_error(100, 101) == pytest.approx(0.1)
        assert ul.path_error(100, 100) == 0.0

    def test_unknown_host_raises(self):
        ul = self.make()
        with pytest.raises(KeyError, match="unknown host"):
            ul.delay_ms(100, 999)

    def test_unknown_router_attachment_raises(self):
        with pytest.raises(KeyError, match="unknown router"):
            RouterUnderlay(tiny_router_graph(), {1: 77})

    def test_shared_router_attachment(self):
        ul = RouterUnderlay(
            tiny_router_graph(), {1: 0, 2: 0}, access_delay_ms=0.5
        )
        # Same router: only access links.
        assert ul.delay_ms(1, 2) == pytest.approx(1.0)
        assert ul.path_links(1, 2) == (("access", 1), ("access", 2))

    def test_per_host_access_delay(self):
        ul = RouterUnderlay(
            tiny_router_graph(),
            {1: 0, 2: 3},
            access_delay_ms={1: 2.0, 2: 0.0},
        )
        assert ul.delay_ms(1, 2) == pytest.approx(2.0 + 20.0 + 0.0)

    def test_missing_per_host_value_raises(self):
        with pytest.raises(KeyError, match="missing per-host"):
            RouterUnderlay(
                tiny_router_graph(), {1: 0, 2: 3}, access_delay_ms={1: 2.0}
            )

    def test_deterministic_path_among_equal_cost(self):
        g = nx.Graph()
        # Two equal-cost routes 0->3.
        g.add_edge(0, 1, delay=1.0)
        g.add_edge(1, 3, delay=1.0)
        g.add_edge(0, 2, delay=1.0)
        g.add_edge(2, 3, delay=1.0)
        ul = RouterUnderlay(g, {10: 0, 11: 3})
        assert ul.path_links(10, 11) == ul.path_links(10, 11)


def _lazy(**access):
    return RouterUnderlay(tiny_router_graph(), {10: 0, 11: 1}, **access)


def _sparse(**access):
    return SparseUnderlay(
        4, [0, 1, 2], [1, 2, 3], [5.0, 10.0, 5.0], {10: 0, 11: 1}, **access
    )


class TestAccessParameters:
    """Access links are physical links: a delay is finite and >= 0, an
    error a probability.  (Every engine used to take anything:
    ``access_delay_ms=-5.0`` made ``delay_ms(10, 11) == -5.0``, ``nan``
    made every delay ``nan``, ``access_error=1.5`` a ``path_error`` of
    ``0.75``.)"""

    @pytest.mark.parametrize("per_host", [False, True], ids=["scalar", "dict"])
    @pytest.mark.parametrize(
        "name, bad",
        [
            ("access_delay_ms", -5.0),
            ("access_delay_ms", float("nan")),
            ("access_delay_ms", float("inf")),
            ("access_error", -0.1),
            ("access_error", 1.5),
            ("access_error", float("nan")),
        ],
    )
    @pytest.mark.parametrize("engine", [_lazy, _sparse])
    def test_illegal_values_rejected_on_every_engine(
        self, engine, name, bad, per_host
    ):
        value = {10: 0.0, 11: bad} if per_host else bad
        with pytest.raises(ValueError, match=f"{name} of host 1[01] must be"):
            engine(**{name: value})

    @pytest.mark.parametrize("engine", [_lazy, _sparse])
    def test_the_bounds_themselves_are_legal(self, engine):
        ul = engine(access_delay_ms=0.0, access_error={10: 0.0, 11: 1.0})
        assert ul.delay_ms(10, 11) == 5.0
        assert ul.path_error(10, 11) == 1.0

    @pytest.mark.parametrize("sparse", [False, True])
    def test_builder_refuses_a_negative_access_delay(self, sparse):
        with pytest.raises(ValueError, match="access_delay_ms"):
            build_transit_stub_underlay(
                n_hosts=4, seed=1, access_delay_ms=-1.0, sparse=sparse
            )


class TestMatrixUnderlay:
    def make(self):
        rtt = np.array(
            [
                [0.0, 10.0, 40.0],
                [10.0, 0.0, 30.0],
                [40.0, 30.0, 0.0],
            ]
        )
        return MatrixUnderlay(rtt)

    def test_delay_is_half_rtt(self):
        assert self.make().delay_ms(0, 2) == pytest.approx(20.0)

    def test_path_links_single_pair(self):
        ul = self.make()
        assert ul.path_links(2, 0) == (("pair", 0, 2),)
        assert ul.path_links(0, 2) == (("pair", 0, 2),)

    def test_link_delay(self):
        ul = self.make()
        assert ul.link_delay(("pair", 0, 1)) == pytest.approx(5.0)

    def test_loss_matrix(self):
        rtt = np.array([[0.0, 10.0], [10.0, 0.0]])
        loss = np.array([[0.0, 0.05], [0.05, 0.0]])
        ul = MatrixUnderlay(rtt, loss=loss)
        assert ul.path_error(0, 1) == pytest.approx(0.05)

    def test_no_loss_matrix_means_zero(self):
        assert self.make().path_error(0, 1) == 0.0

    def test_custom_host_ids(self):
        rtt = np.array([[0.0, 8.0], [8.0, 0.0]])
        ul = MatrixUnderlay(rtt, host_ids=[7, 9])
        assert list(ul.hosts) == [7, 9]
        assert ul.delay_ms(7, 9) == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "rtt, message",
        [
            (np.ones((2, 3)), "square"),
            (np.array([[0.0, 1.0], [2.0, 0.0]]), "symmetric"),
            (np.array([[0.0, -1.0], [-1.0, 0.0]]), "non-negative"),
            (np.array([[1.0, 2.0], [2.0, 1.0]]), "diagonal"),
        ],
    )
    def test_invalid_matrices_rejected(self, rtt, message):
        with pytest.raises(ValueError, match=message):
            MatrixUnderlay(rtt)

    @pytest.mark.parametrize(
        "rtt_entry, loss_entry, message",
        [
            (float("nan"), None, r"rtt matrix entry \(0, 1\) must be finite, got nan"),
            (float("inf"), None, r"rtt matrix entry \(0, 1\) must be finite, got inf"),
            (10.0, float("nan"), r"loss matrix entry \(0, 1\) must be in \[0, 1\]"),
            (10.0, -0.1, r"loss matrix entry \(0, 1\) must be in \[0, 1\]"),
            (10.0, 1.5, r"loss matrix entry \(0, 1\) must be in \[0, 1\]"),
        ],
        ids=["nan-rtt", "inf-rtt", "nan-loss", "negative-loss", "loss-above-one"],
    )
    def test_non_finite_or_improbable_entries_rejected(
        self, rtt_entry, loss_entry, message
    ):
        """A NaN loss used to be accepted (``path_error`` read NaN, and
        the delivery accountant clipped it to zero loss); an infinite RTT
        too; a NaN RTT was refused as "must be symmetric".  Each is now
        refused by position, before the symmetry check."""
        rtt = np.array([[0.0, rtt_entry, 4.0], [rtt_entry, 0.0, 6.0], [4.0, 6.0, 0.0]])
        loss = None
        if loss_entry is not None:
            loss = np.full((3, 3), 0.01)
            loss[0, 1] = loss[1, 0] = loss_entry
        with pytest.raises(ValueError, match=message):
            MatrixUnderlay(rtt, loss=loss)

    def test_duplicate_host_ids_rejected(self):
        rtt = np.zeros((2, 2))
        with pytest.raises(ValueError, match="unique"):
            MatrixUnderlay(rtt, host_ids=[1, 1])

    def test_host_ids_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            MatrixUnderlay(np.zeros((2, 2)), host_ids=[1])
