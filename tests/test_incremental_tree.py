"""Equivalence tests for the incremental tree-state engine.

Every incrementally maintained structure must agree *bit for bit* with
its recompute-from-scratch oracle in ``tests/oracles.py``:

* ``TreeRegistry._reachable`` / ``_depth`` vs the parent-chain walks,
  after every mutation of a random sequence (and the registry refuses a
  self-loop from any of its three placing mutations);
* the delivery accountant's per-node path-success map vs the full
  root-path product;
* whole sessions (including fault plans) run on the lazily queued
  request timeout vs the eager cancellable one (forced by
  ``IdentityLegs``) must produce identical measurement records, join
  records, and loss numbers — and at every measurement of both runs the
  single-pass tree metrics and the shared window pass must equal the
  oracle's four loops and own passes;
* the localized per-mutation invariant checks must catch a broken
  protocol on their own, with the full sweep effectively disabled.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.session as session_mod
from repro.factories import btp, hmtp, vdm, vdm_r
from repro.harness.substrates import build_transit_stub_underlay
from repro.protocols.base import TreeRegistry
from repro.sim.delivery import DeliveryAccountant
from repro.sim.engine import Simulator
from repro.sim.invariants import InvariantViolation
from repro.sim.network import MatrixUnderlay
from repro.sim.session import MulticastSession, SessionConfig
from repro.topology.transit_stub import TransitStubConfig

from tests import oracles
from tests.helpers import line_matrix
from tests.test_invariants import _over_accepting_factory

SOURCE = 0
NODES = list(range(1, 10))


# ---------------------------------------------------------------------------
# registry state vs reference oracles under random mutation sequences
# ---------------------------------------------------------------------------


def _assert_registry_matches_oracle(tree: TreeRegistry) -> None:
    """The maintained sets must equal what the chain-walking oracle derives."""
    ref_reachable = {n for n in tree.parent if oracles.reachable(tree, n)}
    assert tree._reachable == ref_reachable
    assert set(tree._depth) == ref_reachable
    for node in ref_reachable:
        assert tree.depth(node) == oracles.depth(tree, node)
        assert tree.path_to_source(node) == oracles.path_to_source(tree, node)
    # the public queries agree with the oracle for every member
    for node in tree.parent:
        assert tree.is_reachable(node) == oracles.reachable(tree, node)
    for node in set(tree.parent) - ref_reachable:
        for query in (tree.depth, tree.path_to_source):
            with pytest.raises(ValueError):
                query(node)
        with pytest.raises(ValueError):
            oracles.path_to_source(tree, node)
    assert tree.attached_nodes() == [
        n for n in tree.parent if oracles.reachable(tree, n)
    ]


def _apply_op(tree: TreeRegistry, op: int, pick_a: int, pick_b: int, t: float) -> bool:
    """Interpret one drawn (op, pick, pick) triple as a valid mutation.

    Returns True if a mutation was applied.  Invalid draws (no candidate
    for the op) are skipped rather than raising, so every generated
    sequence is a legal tree history.
    """

    def choose(seq, pick):
        return seq[pick % len(seq)] if seq else None

    members = set(tree.parent)
    kind = op % 4
    if kind == 0:  # attach an absent or orphaned node
        candidates = [n for n in NODES if n not in members or tree.is_orphan(n)]
        node = choose(sorted(candidates), pick_a)
        if node is None:
            return False
        parents = [
            p for p in sorted(members) if p != node and not tree.is_descendant(p, node)
        ]
        parent = choose(parents, pick_b)
        if parent is None:
            return False
        tree.attach(node, parent, t)
        return True
    if kind == 1:  # reparent an attached node
        movable = [
            n for n in sorted(members) if n != SOURCE and tree.parent[n] is not None
        ]
        node = choose(movable, pick_a)
        if node is None:
            return False
        parents = [
            p
            for p in sorted(members)
            if p != node and not tree.is_descendant(p, node)
        ]
        parent = choose(parents, pick_b)
        if parent is None:
            return False
        tree.reparent(node, parent, t)
        return True
    if kind == 2:  # depart
        present = [n for n in sorted(members) if n != SOURCE]
        node = choose(present, pick_a)
        if node is None:
            return False
        tree.depart(node, t)
        return True
    # kind == 3: insert with adoption
    absent = [n for n in NODES if n not in members]
    node = choose(absent, pick_a)
    if node is None:
        return False
    parent = choose(sorted(members), pick_b)
    if parent is None:
        return False
    adopt = tuple(sorted(tree.children.get(parent, ())))[:2]
    tree.insert(node, parent, adopt, t)
    return True


ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=40,
)


class TestRegistryOracleEquivalence:
    @given(sequence=ops)
    @settings(max_examples=120, deadline=None)
    def test_incremental_state_matches_reference_after_every_mutation(
        self, sequence
    ):
        tree = TreeRegistry(SOURCE)
        events = []
        tree.add_listener(lambda *event: events.append(event))
        t = 0.0
        for op, a, b in sequence:
            t += 1.0
            _apply_op(tree, op, a, b, t)
            _assert_registry_matches_oracle(tree)
            # Rule: every placing mutation refuses a node as its own
            # parent — attached, orphaned or absent — and leaves the
            # registry as it was.
            node = NODES[a % len(NODES)]
            before = (
                dict(tree.parent),
                {n: set(kids) for n, kids in tree.children.items()},
                set(tree._reachable),
                dict(tree._depth),
                len(events),
            )
            for mutate in (
                lambda: tree.attach(node, node, t),
                lambda: tree.reparent(node, node, t),
                lambda: tree.insert(node, node, (), t),
            ):
                with pytest.raises(ValueError):
                    mutate()
            assert before == (
                tree.parent, tree.children, tree._reachable, tree._depth, len(events)
            )

    def test_orphan_subtree_loses_and_regains_state(self):
        tree = TreeRegistry(SOURCE)
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.attach(3, 2, 3.0)
        tree.depart(1, 4.0)  # 2 (and 3 below it) become unreachable
        assert not tree.is_reachable(2) and not tree.is_reachable(3)
        _assert_registry_matches_oracle(tree)
        tree.attach(2, 0, 5.0)  # rejoin brings the whole subtree back
        assert tree.is_reachable(3) and tree.depth(3) == 2
        _assert_registry_matches_oracle(tree)

    def test_insert_with_adoption_updates_adopted_depths(self):
        tree = TreeRegistry(SOURCE)
        tree.attach(1, 0, 1.0)
        tree.attach(2, 0, 2.0)
        tree.insert(3, 0, (1, 2), 3.0)  # 3 takes over both children
        assert tree.depth(3) == 1
        assert tree.depth(1) == tree.depth(2) == 2
        _assert_registry_matches_oracle(tree)


# ---------------------------------------------------------------------------
# accountant path-success map vs the full-product oracle
# ---------------------------------------------------------------------------


class TestAccountantEquivalence:
    def _build(self):
        import numpy as np

        tree = TreeRegistry(SOURCE)
        n = 8
        loss = np.full((n, n), 0.02)
        np.fill_diagonal(loss, 0.0)
        underlay = MatrixUnderlay(
            line_matrix([10.0 * i for i in range(n)]), loss=loss
        )
        acc = DeliveryAccountant(tree, underlay, chunk_rate=10.0)
        return tree, acc

    def test_success_map_matches_reference_product_exactly(self):
        tree, acc = self._build()
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.attach(3, 2, 3.0)
        tree.attach(4, 1, 4.0)
        tree.reparent(2, 0, 5.0)
        tree.insert(5, 0, (1,), 6.0)
        for node in tree.attached_nodes():
            if node == SOURCE:
                continue
            assert acc._success[node] == oracles.path_success(
                tree, acc.underlay, node
            )
            assert acc._success[node] < 1.0

    def test_unreachable_nodes_leave_the_success_map(self):
        tree, acc = self._build()
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.depart(1, 3.0)
        assert 1 not in acc._success
        assert 2 not in acc._success
        tree.attach(2, 0, 4.0)
        assert acc._success[2] == oracles.path_success(tree, acc.underlay, 2)


# ---------------------------------------------------------------------------
# whole-session equivalence: lazy vs eager request timeouts, and the
# maintained metrics/loss passes vs their oracles at every measurement
# ---------------------------------------------------------------------------


def _session_config(faults):
    return SessionConfig(
        n_nodes=16,
        degree=(2, 4),
        join_phase_s=400.0,
        total_s=1200.0,
        slot_s=200.0,
        settle_s=50.0,
        churn_rate=0.15,
        seed=5,
        faults=faults,
    )


_PROTOCOLS = {
    "vdm": vdm,
    "vdm_r": lambda: vdm_r(180.0),
    "hmtp": hmtp,
    "btp": btp,
}


def _run_session(*, eager: bool, faults=None, protocol="vdm"):
    underlay = MatrixUnderlay(line_matrix([7.0 * i for i in range(40)]))
    session = MulticastSession(
        underlay, _PROTOCOLS[protocol](), _session_config(faults)
    )
    if eager and session.env.message_faults is None:
        session.env.message_faults = oracles.IdentityLegs()
    return session.run()


# "crashy" and "freezer" are message-inert: they ride the lazily queued
# request timeouts *and* make them fire.  "chaos" touches message legs and
# keeps the eager cancellable timeout on both sides.
# (The function keeps its pre-PR 19 name, from when the eager side was
# selected by an environment switch: its 16 ids are pinned downstream.)
@pytest.mark.parametrize(
    ("protocol", "faults"),
    [
        # the VDM cells keep the ids they had when the test was VDM-only
        pytest.param(p, f, id=str(f) if p == "vdm" else f"{p}-{f}")
        for p in _PROTOCOLS
        for f in (None, "crashy", "freezer", "chaos")
    ],
)
def test_sessions_identical_across_incremental_toggle(monkeypatch, protocol, faults):
    queued = []
    push = Simulator.schedule_reserved

    def counting_push(sim, *args):
        queued.append(args)
        push(sim, *args)

    monkeypatch.setattr(Simulator, "schedule_reserved", counting_push)

    # Every measurement of both runs: the accountant's maintained link
    # multiset and the single-pass collector against the oracle's walks
    # (orphaned subtrees under crashy/chaos included), and the window
    # snapshot against the own-pass oracle.
    collect = session_mod.collect_tree_metrics
    snapshot = DeliveryAccountant.window_snapshot
    checked = Counter()

    def checking_collect(tree, underlay, link_usage):
        assert dict(link_usage) == dict(oracles.link_usage(tree, underlay))
        metrics = collect(tree, underlay, link_usage)
        assert dataclasses.asdict(metrics) == oracles.tree_metrics(tree, underlay)
        checked["metrics"] += 1
        return metrics

    def checking_snapshot(acc, w0, w1):
        window = snapshot(acc, w0, w1)
        assert (window.loss_rate, window.mean_node_loss) == oracles.window_loss(
            acc, w0, w1
        )
        checked["windows"] += 1
        return window

    monkeypatch.setattr(session_mod, "collect_tree_metrics", checking_collect)
    monkeypatch.setattr(DeliveryAccountant, "window_snapshot", checking_snapshot)

    lazy = _run_session(eager=False, faults=faults, protocol=protocol)
    lazily_queued = len(queued)
    ref = _run_session(eager=True, faults=faults, protocol=protocol)
    assert len(queued) == lazily_queued  # the oracle queues eagerly
    if faults in ("crashy", "freezer"):
        assert lazily_queued
    if faults == "chaos":
        assert not lazily_queued
    assert checked["metrics"] == checked["windows"] == 2 * len(lazy.records) > 0
    # measurement records are nested float-bearing dataclasses; equality
    # is exact, so this asserts bit-identical metrics (incl. loss)
    assert lazy.records == ref.records
    assert lazy.join_records == ref.join_records
    assert lazy.fault_counts == ref.fault_counts
    # ... and the event engine took the same steps to get there: a lazily
    # queued request timeout must leave no trace an eagerly queued one
    # would not.
    assert lazy.runtime.sim.events_processed == ref.runtime.sim.events_processed
    assert lazy.runtime.sim.events_scheduled == ref.runtime.sim.events_scheduled
    assert lazy.runtime.message_counts == ref.runtime.message_counts
    assert lazy.runtime.tree.parent == ref.runtime.tree.parent
    window = (0.0, lazy.config.total_s)
    assert oracles.window_loss(lazy.accountant, *window) == oracles.window_loss(
        ref.accountant, *window
    )


# ---------------------------------------------------------------------------
# localized invariant checks alone still catch broken protocols
# ---------------------------------------------------------------------------


class TestLocalizedChecksCatchBrokenVariant:
    def _underlay(self):
        return build_transit_stub_underlay(
            n_hosts=40,
            seed=7,
            ts_config=TransitStubConfig(
                total_nodes=100,
                transit_domains=2,
                transit_nodes_per_domain=3,
                stub_domains_per_transit=2,
            ),
        )

    def test_degree_bound_fires_without_full_sweeps(self):
        cfg = SessionConfig(
            n_nodes=12,
            degree=2,
            join_phase_s=400.0,
            total_s=800.0,
            slot_s=200.0,
            settle_s=50.0,
            churn_rate=0.0,
            seed=11,
            invariant_mode="raise",
            # cadence far beyond the session's mutation count: the full
            # structural sweep never runs, only the localized checks do
            invariant_sweep_every=10**9,
        )
        session = MulticastSession(self._underlay(), _over_accepting_factory, cfg)
        with pytest.raises(InvariantViolation) as exc_info:
            session.run()
        assert exc_info.value.invariant == "degree-bound"

    def test_sweep_cadence_must_be_positive(self):
        with pytest.raises(ValueError, match="invariant_sweep_every"):
            dataclasses.replace(_session_config(None), invariant_sweep_every=0)
