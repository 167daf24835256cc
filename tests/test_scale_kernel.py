"""Batched scale kernel: byte-identical to the scalar reference walk.

The contract under test (PR 9, DESIGN.md §13): for every protocol,
degree limit, and plan block size — including the B=1 and
B > n_members edges — the array-native batched kernel of
:mod:`repro.harness.scale` produces a :class:`ScaleTree` whose parents,
join latencies, and iteration counts are *bitwise equal* to the scalar
per-child walk's, on both sparse and dense substrates.  The same holds
for :func:`prim_mst_parents` over planned row blocks and for the
vectorized metrics pass (bincount stress vs Counter stress), and for any
sequence of those calls sharing one underlay's row store.  The store and
its plans are pinned separately in ``test_sparse_underlay.py``; here they
are exercised end to end through the walks.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.scale import (
    SCALE_PROTOCOLS,
    build_scale_tree,
    prim_mst_parents,
    scale_tree_metrics,
)
from repro.harness.substrates import _transit_stub_attachments
from repro.sim.network import RouterUnderlay
from repro.sim.sparse import SparseUnderlay
from repro.topology.transit_stub import (
    TransitStubConfig,
    generate_transit_stub,
    generate_transit_stub_arrays,
)

TINY_TS = TransitStubConfig(
    total_nodes=60,
    transit_domains=2,
    transit_nodes_per_domain=2,
    stub_domains_per_transit=2,
)


def _fresh_sparse(seed: int = 6, n_hosts: int = 32, **kwargs) -> SparseUnderlay:
    arr = generate_transit_stub_arrays(TINY_TS, seed=seed)
    graph = generate_transit_stub(TINY_TS, seed=seed)
    attachments = _transit_stub_attachments(graph, n_hosts, seed)
    return SparseUnderlay(
        arr.n_nodes, arr.edge_u, arr.edge_v, arr.edge_delay, attachments, **kwargs
    )


@lru_cache(maxsize=None)
def _sparse(seed: int, n_hosts: int = 32) -> SparseUnderlay:
    return _fresh_sparse(seed, n_hosts)


@lru_cache(maxsize=None)
def _lazy(seed: int, n_hosts: int = 32) -> RouterUnderlay:
    graph = generate_transit_stub(TINY_TS, seed=seed)
    attachments = _transit_stub_attachments(graph, n_hosts, seed)
    return RouterUnderlay(graph, attachments)


def _assert_trees_bitwise_equal(a, b, context: str = "") -> None:
    np.testing.assert_array_equal(a.parents, b.parents, err_msg=context)
    assert a.join_latency_ms.tobytes() == b.join_latency_ms.tobytes(), context
    np.testing.assert_array_equal(a.iterations, b.iterations, err_msg=context)


class TestWalkEquivalence:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(
        seed=st.integers(0, 7),
        protocol=st.sampled_from(SCALE_PROTOCOLS),
        degree_limit=st.integers(1, 5),
        n_members=st.integers(2, 32),
        block=st.sampled_from([1, 3, 64, 10**6]),
    )
    def test_batched_matches_scalar(
        self, seed, protocol, degree_limit, n_members, block
    ):
        underlay = _sparse(seed)
        scalar = build_scale_tree(
            underlay, protocol, n_members, degree_limit=degree_limit, kernel="scalar"
        )
        batched = build_scale_tree(
            underlay,
            protocol,
            n_members,
            degree_limit=degree_limit,
            kernel="batched",
            prefetch_block=block,
        )
        _assert_trees_bitwise_equal(
            scalar, batched, f"{protocol} deg={degree_limit} B={block}"
        )

    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_prefetch_disabled_is_still_batched_and_identical(self, protocol):
        underlay = _sparse(2)
        scalar = build_scale_tree(underlay, protocol, 24, kernel="scalar")
        batched = build_scale_tree(
            underlay, protocol, 24, kernel="batched", prefetch_block=0
        )
        _assert_trees_bitwise_equal(scalar, batched)

    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_env_flag_selects_kernel(self, protocol, monkeypatch):
        underlay = _sparse(4)
        default = build_scale_tree(underlay, protocol, 20)
        monkeypatch.setenv("REPRO_SCALE_KERNEL", "scalar")
        scalar = build_scale_tree(underlay, protocol, 20)
        _assert_trees_bitwise_equal(default, scalar)

    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_lazy_underlay_falls_back_to_scalar_and_agrees(self, protocol):
        # The lazy substrate serves no rows: batched mode must quietly
        # walk scalar there, and still agree with the sparse batched walk
        # on the same substrate (the PR 8 engine-independence promise).
        lazy = _lazy(5)
        sparse = _sparse(5)
        on_lazy = build_scale_tree(lazy, protocol, 24, kernel="batched")
        on_sparse = build_scale_tree(sparse, protocol, 24, kernel="batched")
        np.testing.assert_array_equal(on_lazy.parents, on_sparse.parents)
        assert (
            on_lazy.join_latency_ms.tobytes() == on_sparse.join_latency_ms.tobytes()
        )

    def test_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            build_scale_tree(_sparse(0), "vdm", 8, kernel="vectorized")
        with pytest.raises(ValueError):
            prim_mst_parents(_sparse(0), 8, kernel="vectorized")
        with pytest.raises(ValueError):
            scale_tree_metrics(
                _sparse(0), np.array([-1, 0]), kernel="vectorized"
            )


    @pytest.mark.parametrize("kernel", ["batched", "scalar"])
    def test_negative_tie_tolerance_rejected_up_front(self, kernel):
        # Two members: no pivot ever has children, so a per-step check
        # would never run (the parent commit accepted this silently).
        with pytest.raises(ValueError, match="tie_tolerance"):
            build_scale_tree(_sparse(0), "vdm", 2, tie_tolerance=-1.0, kernel=kernel)


class TestIterationBound:
    def test_degree_one_chain_exceeds_legacy_bound(self):
        # A BTP chain descends one level per iteration: member k needs k
        # iterations, so n=100 legitimately blows through the old fixed
        # bound of 64.  Both kernels must complete and agree.
        underlay = _sparse(9, n_hosts=100)
        scalar = build_scale_tree(
            underlay, "btp", 100, degree_limit=1, kernel="scalar"
        )
        batched = build_scale_tree(
            underlay, "btp", 100, degree_limit=1, kernel="batched"
        )
        _assert_trees_bitwise_equal(scalar, batched)
        assert int(scalar.iterations.max()) == 99
        counts = np.bincount(scalar.parents[scalar.parents >= 0], minlength=100)
        assert counts.max() == 1
        metrics = scale_tree_metrics(underlay, scalar.parents)
        assert metrics.depth_max == 99


class TestPrimEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_prefetched_prim_matches_scalar(self, seed):
        underlay = _sparse(seed)
        np.testing.assert_array_equal(
            prim_mst_parents(underlay, 28, kernel="scalar"),
            prim_mst_parents(underlay, 28, kernel="batched"),
        )

    def test_prefetched_prim_matches_lazy_oracle(self):
        np.testing.assert_array_equal(
            prim_mst_parents(_lazy(6), 24),
            prim_mst_parents(_sparse(6), 24, kernel="batched"),
        )


class TestMetricsEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 7),
        protocol=st.sampled_from(SCALE_PROTOCOLS),
        n_members=st.integers(2, 32),
    )
    def test_bincount_stress_matches_counter_stress(
        self, seed, protocol, n_members
    ):
        underlay = _sparse(seed)
        tree = build_scale_tree(underlay, protocol, n_members)
        scalar = scale_tree_metrics(underlay, tree.parents, kernel="scalar")
        batched = scale_tree_metrics(underlay, tree.parents, kernel="batched")
        # repr round-trips floats exactly: this is bitwise equality.
        assert repr(scalar) == repr(batched)

    def test_stress_skip_agrees(self):
        underlay = _sparse(1)
        tree = build_scale_tree(underlay, "hmtp", 20)
        scalar = scale_tree_metrics(
            underlay, tree.parents, include_stress=False, kernel="scalar"
        )
        batched = scale_tree_metrics(
            underlay, tree.parents, include_stress=False, kernel="batched"
        )
        assert repr(scalar) == repr(batched)
        assert batched.links_used == 0 and batched.stress_avg == 0.0

    def test_batched_metrics_reject_forests(self):
        with pytest.raises(ValueError):
            scale_tree_metrics(
                _sparse(0), np.array([-1, 0, -1, 2]), kernel="batched"
            )

    def test_metric_floats_are_python_floats(self):
        # scalebench reprs the record as its cross-kernel identity
        # oracle; np.float64 reprs would diverge from the scalar path.
        metrics = scale_tree_metrics(_sparse(3), build_scale_tree(
            _sparse(3), "vdm", 16
        ).parents, kernel="batched")
        for value in metrics.as_record().values():
            assert type(value) is float


def _cap_store_at_four_rows(underlay: SparseUnderlay) -> None:
    """Wrap ``prefetch_rows`` (per instance, as the benchmark does) so no
    plan lifts the store above the constructor's 4 rows."""
    inner = underlay.prefetch_rows

    def prefetch_rows(sources, **kwargs):
        return inner(sources, **{**kwargs, "block": 2, "retain_bytes": 0})

    underlay.prefetch_rows = prefetch_rows


class TestRowReuse:
    """The row store outlives a call: walks, metrics passes and Prim on
    one underlay share rows, and sharing changes no byte of any result."""

    N = 28

    def _sequence(self, underlay_for_step, kernel):
        """vdm → metrics → hmtp → metrics → btp → Prim, as comparable bytes."""
        out = []
        for protocol in SCALE_PROTOCOLS:
            tree = build_scale_tree(
                underlay_for_step(), protocol, self.N, kernel=kernel
            )
            out.append(
                (
                    tree.parents.tobytes(),
                    tree.join_latency_ms.tobytes(),
                    tree.iterations.tobytes(),
                )
            )
            if protocol != "btp":
                out.append(
                    repr(
                        scale_tree_metrics(
                            underlay_for_step(), tree.parents, kernel=kernel
                        )
                    )
                )
        mst = prim_mst_parents(underlay_for_step(), self.N, kernel=kernel)
        out.append(mst.tobytes())
        return out

    @pytest.mark.parametrize("kernel", ["batched", "scalar"])
    @pytest.mark.parametrize("tight", [False, True], ids=["ample", "evicting"])
    def test_one_underlay_equals_a_fresh_underlay_per_call(self, kernel, tight):
        shared = _fresh_sparse(row_cache=4) if tight else _fresh_sparse()
        if tight:
            _cap_store_at_four_rows(shared)
        on_shared = self._sequence(lambda: shared, kernel)
        on_fresh = self._sequence(_fresh_sparse, kernel)
        assert on_shared == on_fresh
        stats = shared.row_stats()
        if tight:
            assert stats["capacity_rows"] == 4 and stats["evictions"] > 0
        else:
            # Each attachment-router row is computed once for the whole
            # sequence; the only recomputes add predecessors.
            unique = len(set(shared.attachments.values()))
            computed = stats["plan_rows"] + stats["demand_rows"]
            assert stats["evictions"] == 0
            assert computed <= unique + stats["pred_upgrades"]
            assert stats["resident_rows"] <= unique

    def test_later_passes_compute_no_distance_row_twice(self):
        underlay = _fresh_sparse()
        unique = len(set(underlay.attachments.values()))
        tree = build_scale_tree(underlay, "vdm", 32)
        after_tree = underlay.row_stats()
        assert (after_tree["plan_rows"], after_tree["demand_rows"]) == (unique, 0)
        scale_tree_metrics(underlay, tree.parents)
        after_metrics = underlay.row_stats()
        new_rows = after_metrics["plan_rows"] - after_tree["plan_rows"]
        assert after_metrics["demand_rows"] == 0
        assert 0 < new_rows == after_metrics["pred_upgrades"]
        build_scale_tree(underlay, "hmtp", 32)
        prim_mst_parents(underlay, 32)
        assert underlay.row_stats() == after_metrics  # everything resident
