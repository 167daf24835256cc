"""Row-fed scale walk: byte-identical to the per-pair reference.

The contract under test (DESIGN.md §13): :mod:`repro.harness.scale` has
one join walk, one metrics pass and one Prim pass, and they read every
distance off an index-addressed ``SparseUnderlay``'s Dijkstra rows.  The
suites' ``kernel`` parameter picks the side of each comparison
(``tests/scale_reference.py``): ``"batched"`` is the public function —
rows planned in blocks or already resident — and ``"scalar"`` the same
walk and pass handed the per-pair reference source (one
``underlay.rtt_ms`` / ``delay_ms`` / ``path_links`` call per pair, no
plan) through the private seam, or the per-pair Prim.  For every
protocol, degree limit, and plan block size — including the B=1 and
B > n_members edges — a :class:`ScaleTree`'s parents, join latencies,
and iteration counts are *bitwise equal* between the two.  The same
holds for :func:`prim_mst_parents` over planned row blocks, for the
metrics pass (predecessor-chain stress vs ``path_links`` stress), and
for any sequence of those calls sharing one underlay's row store.  The
store and its plans are pinned separately in ``test_sparse_underlay.py``;
here they are exercised end to end through the walks.  The lazy engine
serves no rows: its cases run the reference under either ``kernel``.

Both sources keep each pivot's RTTs to its children once measured, so
that list is pinned on its own: golden tree digests from walks that
gathered every pivot afresh, and a bound of 2·(n−1) distance handles per
build.
"""

from __future__ import annotations

import hashlib
import inspect
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.scale import (
    SCALE_PROTOCOLS,
    _SparseRows,
    build_scale_tree,
    prim_mst_parents,
    scale_tree_metrics,
)
from repro.sim.network import MatrixUnderlay, NoRouteError
from repro.sim.sparse import SparseUnderlay
from repro.util import artifacts
from repro.topology.transit_stub import (
    TransitStubConfig,
    generate_transit_stub_arrays,
)
from tests import scale_reference as ref
from tests.helpers import line_matrix, transit_stub_attachments
from tests.lazy_underlay import RouterUnderlay, generate_transit_stub

TINY_TS = TransitStubConfig(
    total_nodes=60,
    transit_domains=2,
    transit_nodes_per_domain=2,
    stub_domains_per_transit=2,
)


def _fresh_sparse(seed: int = 6, n_hosts: int = 32, **kwargs) -> SparseUnderlay:
    arr = generate_transit_stub_arrays(TINY_TS, seed=seed)
    graph = generate_transit_stub(TINY_TS, seed=seed)
    attachments = transit_stub_attachments(graph, n_hosts, seed)
    return SparseUnderlay(
        arr.n_nodes, arr.edge_u, arr.edge_v, arr.edge_delay, attachments, **kwargs
    )


@lru_cache(maxsize=None)
def _sparse(seed: int, n_hosts: int = 32) -> SparseUnderlay:
    return _fresh_sparse(seed, n_hosts)


@lru_cache(maxsize=None)
def _lazy(seed: int, n_hosts: int = 32) -> RouterUnderlay:
    graph = generate_transit_stub(TINY_TS, seed=seed)
    attachments = transit_stub_attachments(graph, n_hosts, seed)
    return RouterUnderlay(graph, attachments)


def _resident(underlay: SparseUnderlay) -> SparseUnderlay:
    """``underlay`` with every attachment row in its store: one host query
    runs the standing plan, whose one block covers up to 64 routers."""
    underlay.delay_ms(*underlay.hosts[:2])
    att = set(underlay.attachments.values())
    assert underlay.row_stats()["resident_rows"] == len(att) <= 64
    return underlay


@lru_cache(maxsize=None)
def _dense(seed: int, n_hosts: int = 32) -> SparseUnderlay:
    """The paper-size regime: every row the walk reads is resident before
    it starts, as the standing plan leaves a session's substrate."""
    return _resident(_fresh_sparse(seed, n_hosts))


_ENGINES = {"sparse": _sparse, "dense": _dense, "lazy": _lazy}


@contextmanager
def _plan_block(underlay: SparseUnderlay, block: int):
    """Plans installed on ``underlay`` run ``block`` sources per Dijkstra
    call (``0``: an inert plan) — set through the instance attribute, as
    the benchmark wraps it."""
    inner = underlay.prefetch_rows
    underlay.prefetch_rows = lambda sources, **kw: inner(
        sources, **{**kw, "block": block}
    )
    try:
        yield underlay
    finally:
        del underlay.prefetch_rows


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
        # 16 and 64: fan-outs wide enough that a whole tree is one pivot's
        # children — where gathering per row would pay off, if anywhere.
        degree_limit=st.one_of(st.integers(1, 5), st.sampled_from([16, 64])),
        n_members=st.integers(2, 32),
        block=st.sampled_from([1, 3, 64, 10**6]),
    )
    def test_batched_matches_scalar(
        self, seed, protocol, degree_limit, n_members, block
    ):
        underlay = _sparse(seed)
        scalar = ref.build(
            underlay, protocol, n_members, degree_limit=degree_limit, kernel="scalar"
        )
        with _plan_block(underlay, block):
            batched = ref.build(
                underlay,
                protocol,
                n_members,
                degree_limit=degree_limit,
                kernel="batched",
            )
        _assert_trees_bitwise_equal(
            scalar, batched, f"{protocol} deg={degree_limit} B={block}"
        )

    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_prefetch_disabled_is_still_batched_and_identical(self, protocol):
        underlay = _sparse(2)
        scalar = ref.build(underlay, protocol, 24, kernel="scalar")
        with _plan_block(underlay, 0):
            batched = ref.build(underlay, protocol, 24, kernel="batched")
        _assert_trees_bitwise_equal(scalar, batched)

    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_kernel_keyword_selects_distance_source(self, protocol, monkeypatch):
        # There is no selector left: every public call installs a row
        # plan, the per-pair reference (reachable only through the
        # private seam) installs none, and the environment has no say
        # (REPRO_SCALE_KERNEL was a flag once).
        monkeypatch.setenv("REPRO_SCALE_KERNEL", "scalar")
        underlay = _fresh_sparse(4)
        plans = []
        inner = underlay.prefetch_rows

        def prefetch_rows(sources, **kwargs):
            plans.append(kwargs)
            return inner(sources, **kwargs)

        underlay.prefetch_rows = prefetch_rows
        default = build_scale_tree(underlay, protocol, 20)
        assert len(plans) == 1
        batched = ref.build(underlay, protocol, 20, kernel="batched")
        assert len(plans) == 2
        scalar = ref.build(underlay, protocol, 20, kernel="scalar")
        ref.metrics(underlay, scalar.parents, kernel="scalar")
        ref.prim(underlay, 20, kernel="scalar")
        assert len(plans) == 2
        _assert_trees_bitwise_equal(default, batched)
        _assert_trees_bitwise_equal(default, scalar)

    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_lazy_underlay_falls_back_to_scalar_and_agrees(self, protocol):
        # The lazy substrate serves no rows, so it walks on the per-pair
        # reference, and still agrees with the row walk on the same
        # substrate: the scale model does not care which engine answers.
        lazy = _lazy(5)
        sparse = _sparse(5)
        on_lazy = ref.build(lazy, protocol, 24, kernel="batched")
        on_sparse = ref.build(sparse, protocol, 24, kernel="batched")
        np.testing.assert_array_equal(on_lazy.parents, on_sparse.parents)
        assert (
            on_lazy.join_latency_ms.tobytes() == on_sparse.join_latency_ms.tobytes()
        )

    def test_rejects_unknown_kernel(self):
        # The selector keywords are gone from all three entry points.
        for entry in (build_scale_tree, prim_mst_parents, scale_tree_metrics):
            params = inspect.signature(entry).parameters
            assert "kernel" not in params and "prefetch_block" not in params
        for extra in ({"kernel": "scalar"}, {"prefetch_block": 0}):
            with pytest.raises(TypeError):
                build_scale_tree(_sparse(0), "vdm", 8, **extra)
            with pytest.raises(TypeError):
                prim_mst_parents(_sparse(0), 8, **extra)
            with pytest.raises(TypeError):
                scale_tree_metrics(_sparse(0), np.array([-1, 0]), **extra)

    @pytest.mark.parametrize("kernel", ["batched", "scalar"])
    def test_negative_tie_tolerance_rejected_up_front(self, kernel):
        # Two members: no pivot ever has children, so a per-step check
        # would never run (the parent commit accepted this silently).
        with pytest.raises(ValueError, match="tie_tolerance"):
            ref.build(_sparse(0), "vdm", 2, tie_tolerance=-1.0, kernel=kernel)


def _island_sparse() -> SparseUnderlay:
    """Five hosts on a six-router graph with a cut: routers {0, 1, 2} and
    {3, 4, 5} are not connected, and host 2 sits on the far side."""
    return SparseUnderlay(
        6,
        np.array([0, 1, 3, 4]),
        np.array([1, 2, 4, 5]),
        np.array([3.0, 4.0, 5.0, 6.0]),
        {0: 0, 1: 1, 2: 3, 3: 2, 4: 4},
    )


class TestUnreachablePairs:
    """An unreachable pair is ``NoRouteError`` from either distance
    source — a row gather checks every value it reads, the per-pair
    queries raise on their own."""

    @pytest.mark.parametrize("kernel", ["batched", "scalar"])
    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_walk_raises_no_path(self, protocol, kernel):
        with pytest.raises(NoRouteError):
            ref.build(_island_sparse(), protocol, 5, kernel=kernel)

    @pytest.mark.parametrize("kernel", ["batched", "scalar"])
    def test_prim_raises_no_path(self, kernel):
        with pytest.raises(NoRouteError):
            ref.prim(_island_sparse(), 5, kernel=kernel)

    def test_walk_below_the_island_member_is_fine(self):
        # Hosts 0 and 1 share a component; nothing is checked that the
        # walk does not read.
        tree = ref.build(_island_sparse(), "vdm", 2, kernel="batched")
        assert tree.parents.tolist() == [-1, 0]

    @pytest.mark.parametrize("kernel", ["batched", "scalar"])
    @pytest.mark.parametrize("include_stress", [True, False])
    @pytest.mark.parametrize(
        "parents",
        [[-1, 0, 0, 0, 2], [-1, 0, 1, 0, 2], [-1, 0, 3, 1, 3]],
        ids=["cut-at-root", "cut-below-root", "two-crossings"],
    )
    def test_metrics_raise_no_path(self, parents, include_stress, kernel):
        with pytest.raises(NoRouteError):
            ref.metrics(
                _island_sparse(),
                np.array(parents),
                include_stress=include_stress,
                kernel=kernel,
            )


def _underlay_with_hosts(engine: str, host_ids: tuple[int, ...]):
    """A TINY_TS underlay of ``engine`` whose hosts carry ``host_ids``."""
    graph = generate_transit_stub(TINY_TS, seed=2)
    routers = transit_stub_attachments(graph, len(host_ids), 2).values()
    attachments = dict(zip(host_ids, routers))
    if engine == "lazy":
        return RouterUnderlay(graph, attachments)
    arr = generate_transit_stub_arrays(TINY_TS, seed=2)
    sparse = SparseUnderlay(
        arr.n_nodes, arr.edge_u, arr.edge_v, arr.edge_delay, attachments
    )
    return _resident(sparse) if engine == "dense" else sparse


_SHIFTED, _GAPPED, _INDEXED = (1, 2, 3, 4, 5, 6), (0, 1, 2, 7), (0, 1, 2, 3)

#: case -> (host ids, call); every call breaks the module's contract.
_OFF_CONTRACT = {
    "walk-hosts-1..6": (_SHIFTED, lambda u, k: ref.build(u, "vdm", 6, kernel=k)),
    "walk-hosts-0,1,2,7": (
        _GAPPED,
        lambda u, k: ref.build(u, "vdm", 4, kernel=k),
    ),
    "prim-hosts-1..6": (_SHIFTED, lambda u, k: ref.prim(u, 6, kernel=k)),
    "prim-hosts-0,1,2,7": (_GAPPED, lambda u, k: ref.prim(u, 4, kernel=k)),
    "metrics-hosts-1..6": (
        _SHIFTED,
        lambda u, k: ref.metrics(u, np.arange(-1, 5), kernel=k),
    ),
    "metrics-hosts-0,1,2,7": (
        _GAPPED,
        lambda u, k: ref.metrics(u, np.arange(-1, 3), kernel=k),
    ),
    "metrics-float-parents": (
        _INDEXED,
        lambda u, k: ref.metrics(u, np.array([-1.0, 0.0, 1.0, 2.0]), kernel=k),
    ),
    "metrics-2d-parents": (
        _INDEXED,
        lambda u, k: ref.metrics(u, np.array([[-1, 0], [1, 2]]), kernel=k),
    ),
}


class TestInputContract:
    @pytest.mark.parametrize("kernel", ["batched", "scalar"])
    @pytest.mark.parametrize("engine", ["sparse", "dense", "lazy"])
    @pytest.mark.parametrize("case", sorted(_OFF_CONTRACT))
    def test_off_contract_input_is_a_value_error(self, case, engine, kernel):
        # Members are hosts 0..n-1 and a tree is a 1-D integer array.  Hosts
        # {1..6} used to give member 1 itself as parent, hosts {0, 1, 2, 7}
        # a KeyError mid-walk (or a lucky MST), bad arrays a TypeError.
        host_ids, call = _OFF_CONTRACT[case]
        underlay = _underlay_with_hosts(engine, host_ids)
        with pytest.raises(ValueError, match="host ids|integer array"):
            call(underlay, kernel)

    @pytest.mark.parametrize("engine", ["matrix", "lazy"])
    @pytest.mark.parametrize(
        "entry", ["build_scale_tree", "scale_tree_metrics", "prim_mst_parents"]
    )
    def test_underlays_without_rows_are_refused_before_any_query(
        self, entry, engine
    ):
        # The row source is the only one: anything but an index-addressed
        # SparseUnderlay is a TypeError, and the underlay is asked nothing
        # first (the lazy engine used to be walked pair by pair).
        if engine == "matrix":
            underlay = MatrixUnderlay(line_matrix([0.0, 10.0, 25.0, 45.0]))
        else:
            underlay = _underlay_with_hosts("lazy", _INDEXED)
        calls = []
        for name in ("rtt_ms", "delay_ms", "path_links", "delay_row", "prefetch_rows"):
            setattr(underlay, name, lambda *a, _name=name, **k: calls.append(_name))
        call = {
            "build_scale_tree": lambda: build_scale_tree(underlay, "vdm", 4),
            "scale_tree_metrics": lambda: scale_tree_metrics(
                underlay, np.array([-1, 0, 1, 1])
            ),
            "prim_mst_parents": lambda: prim_mst_parents(underlay, 4),
        }[entry]
        with pytest.raises(TypeError, match="SparseUnderlay"):
            call()
        assert calls == []


def _tree_digest(tree) -> str:
    blob = tree.parents.tobytes() + tree.join_latency_ms.tobytes()
    return hashlib.sha256(blob + tree.iterations.tobytes()).hexdigest()[:16]


#: (protocol, degree limit, seed) -> sha256 prefix of a 32-member tree's
#: parents + join latencies + iterations bytes, computed when every pivot
#: decision gathered the pivot's RTTs afresh.  One pin serves every
#: engine and kernel: they all build the same tree.
_GOLDEN_TREES = {
    ("vdm", 1, 1): "badbdeb9d9500afb",
    ("vdm", 4, 1): "a11fda5dc1037b0b",
    ("hmtp", 1, 1): "f9da77dd4085face",
    ("hmtp", 4, 1): "d888b0bf7acdf887",
    ("btp", 1, 1): "cea0614e5e8280d5",
    ("btp", 4, 1): "d232fc0ba5fe7b71",
    ("vdm", 1, 5): "60442498593db014",
    ("vdm", 4, 5): "b82ea57536455986",
    ("hmtp", 1, 5): "874ce466dad7427b",
    ("hmtp", 4, 5): "644e360f3f3d4fbc",
    ("btp", 1, 5): "aed6ee3b6c460b40",
    ("btp", 4, 5): "d809084c43547e8f",
}


class TestPivotRttCache:
    """A pivot's RTTs to its children are measured once and kept with its
    child list.  Both sources share that list, so equality between them
    cannot catch one that drifts from a fresh gather: the golden pins can."""

    @pytest.mark.parametrize("kernel", ["batched", "scalar"])
    @pytest.mark.parametrize("engine", sorted(_ENGINES))
    @pytest.mark.parametrize(
        "key", sorted(_GOLDEN_TREES), ids=lambda key: "-".join(map(str, key))
    )
    def test_trees_match_the_fresh_gather_pins(self, key, engine, kernel):
        protocol, degree_limit, seed = key
        underlay = _ENGINES[engine](seed)
        tree = ref.build(
            underlay, protocol, 32, degree_limit=degree_limit, kernel=kernel
        )
        assert _tree_digest(tree) == _GOLDEN_TREES[key]

    @pytest.mark.parametrize("kernel", ["batched", "scalar"])
    @pytest.mark.parametrize("engine", ["sparse", "dense"])
    @pytest.mark.parametrize("degree_limit", [1, 2, 4, 16])
    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    def test_a_build_opens_at_most_two_handles_per_member(
        self, protocol, degree_limit, engine, kernel, monkeypatch
    ):
        # One handle per joining member, plus at most one fill per attach.
        opened = []
        for source in (ref.PairQueries, _SparseRows):
            inner = source.__dict__["rtts"]

            def counting(self, a, *args, _inner=inner):
                opened.append(a)
                return _inner(self, a, *args)

            monkeypatch.setattr(source, "rtts", counting)
        n = 32
        ref.build(
            _ENGINES[engine](3), protocol, n, degree_limit=degree_limit, kernel=kernel
        )
        assert n - 1 <= len(opened) <= 2 * (n - 1)


@pytest.fixture(scope="module")
def dense_variants(tmp_path_factory):
    """seed -> (lazy oracle, {variant: SparseUnderlay}): every attachment
    row resident, built fresh and restored from an artifact — the restore
    installs the same standing plan the constructor does."""
    root = tmp_path_factory.mktemp("dense-artifacts")
    out = {}
    for seed in (1, 5):
        fresh = _fresh_sparse(seed)
        arrays, meta = fresh.to_artifact()
        key = artifacts.artifact_key({"test": "scale-dense", "seed": seed})
        artifacts.store_artifact(key, arrays, meta, base_dir=root)
        restored = SparseUnderlay.from_artifact(
            artifacts.load_artifact(key, base_dir=root)
        )
        graph = generate_transit_stub(TINY_TS, seed=seed)
        out[seed] = (
            RouterUnderlay(graph, fresh.attachments),
            {"fresh": _resident(fresh), "restored": _resident(restored)},
        )
    return out


class TestDenseRows:
    """The paper-size regime's leg: walks over a store that holds every
    attachment row before they start, against the engine's own per-pair
    ``rtt_ms`` and against an independent lazy underlay."""

    @pytest.mark.parametrize("variant", ["fresh", "restored"])
    @pytest.mark.parametrize("degree_limit", [1, 4, 64])
    @pytest.mark.parametrize("protocol", SCALE_PROTOCOLS)
    @pytest.mark.parametrize("seed", [1, 5])
    def test_matrix_rows_match_per_pair_queries(
        self, dense_variants, seed, protocol, degree_limit, variant
    ):
        lazy, compiled = dense_variants[seed]
        underlay = compiled[variant]
        batched = ref.build(
            underlay, protocol, 32, degree_limit=degree_limit, kernel="batched"
        )
        scalar = ref.build(
            underlay, protocol, 32, degree_limit=degree_limit, kernel="scalar"
        )
        _assert_trees_bitwise_equal(batched, scalar, variant)
        assert repr(scale_tree_metrics(underlay, batched.parents)) == repr(
            ref.metrics(underlay, batched.parents, kernel="scalar")
        )
        on_lazy = ref.build(
            lazy, protocol, 32, degree_limit=degree_limit, kernel="scalar"
        )
        _assert_trees_bitwise_equal(batched, on_lazy, variant)

    @pytest.mark.parametrize("variant", ["fresh", "restored"])
    def test_rows_replace_every_rtt_query(self, dense_variants, variant):
        underlay = dense_variants[1][1][variant]
        calls = _count_pair_queries(underlay)
        rows_before = underlay.plan_rows + underlay.demand_rows
        try:
            ref.build(underlay, "vdm", 32, kernel="batched")
            assert calls["rtt_ms"] == 0
            # every row the walk read was resident: none was computed
            assert underlay.plan_rows + underlay.demand_rows == rows_before
            ref.build(underlay, "vdm", 32, kernel="scalar")
            assert calls["rtt_ms"] > 0
        finally:
            for name in calls:
                delattr(underlay, name)


def _count_pair_queries(underlay) -> dict[str, int]:
    """Count calls of the per-pair queries through instance wrappers."""
    calls = {"rtt_ms": 0, "delay_ms": 0, "path_links": 0}

    def counting(name, inner):
        def wrapper(a, b):
            calls[name] += 1
            return inner(a, b)

        return wrapper

    for name in calls:
        setattr(underlay, name, counting(name, getattr(underlay, name)))
    return calls


class TestNoPairMemo:
    def test_sparse_rows_never_touch_a_per_pair_query(self):
        # Were any per-pair query reached, the underlay's pair memos
        # (a million entries each) could be what answers a repeat build.
        underlay = _fresh_sparse(3)
        calls = _count_pair_queries(underlay)
        for protocol in SCALE_PROTOCOLS:
            tree = build_scale_tree(underlay, protocol, 32)
            scale_tree_metrics(underlay, tree.parents)
            scale_tree_metrics(underlay, tree.parents, include_stress=False)
        assert calls == {"rtt_ms": 0, "delay_ms": 0, "path_links": 0}
        assert len(underlay._delay_cache) == len(underlay._path_cache) == 0
        # ... and the reference is exactly those queries.
        ref.build(underlay, "vdm", 32, kernel="scalar")
        ref.metrics(underlay, tree.parents, kernel="scalar")
        assert min(calls.values()) > 0


class TestIterationBound:
    def test_degree_one_chain_exceeds_legacy_bound(self):
        # A BTP chain descends one level per iteration: member k needs k
        # iterations, so n=100 legitimately blows through the old fixed
        # bound of 64.  Both kernels must complete and agree.
        underlay = _sparse(9, n_hosts=100)
        scalar = ref.build(
            underlay, "btp", 100, degree_limit=1, kernel="scalar"
        )
        batched = ref.build(
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
            ref.prim(underlay, 28, kernel="scalar"),
            ref.prim(underlay, 28, kernel="batched"),
        )

    def test_prefetched_prim_matches_lazy_oracle(self):
        np.testing.assert_array_equal(
            ref.prim(_lazy(6), 24),
            ref.prim(_sparse(6), 24, kernel="batched"),
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
        # (Named for the np.bincount pass it first pinned.)  Stress from
        # predecessor chains into integer link keys must equal stress
        # from path_links tuples into a Counter.
        underlay = _sparse(seed)
        tree = build_scale_tree(underlay, protocol, n_members)
        scalar = ref.metrics(underlay, tree.parents, kernel="scalar")
        batched = ref.metrics(underlay, tree.parents, kernel="batched")
        # repr round-trips floats exactly: this is bitwise equality.
        assert repr(scalar) == repr(batched)

    def test_stress_skip_agrees(self):
        underlay = _sparse(1)
        tree = build_scale_tree(underlay, "hmtp", 20)
        scalar = ref.metrics(
            underlay, tree.parents, include_stress=False, kernel="scalar"
        )
        batched = ref.metrics(
            underlay, tree.parents, include_stress=False, kernel="batched"
        )
        assert repr(scalar) == repr(batched)
        assert batched.links_used == 0 and batched.stress_avg == 0.0

    def test_batched_metrics_reject_forests(self):
        with pytest.raises(ValueError):
            ref.metrics(
                _sparse(0), np.array([-1, 0, -1, 2]), kernel="batched"
            )

    def test_metric_floats_are_python_floats(self):
        # ``repr`` of the record is the cross-kernel identity oracle;
        # np.float64 reprs would diverge from the scalar path.
        metrics = ref.metrics(_sparse(3), build_scale_tree(
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
            tree = ref.build(
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
                        ref.metrics(
                            underlay_for_step(), tree.parents, kernel=kernel
                        )
                    )
                )
        mst = ref.prim(underlay_for_step(), self.N, kernel=kernel)
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
