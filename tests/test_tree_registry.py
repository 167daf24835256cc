"""Tests for the ground-truth TreeRegistry."""

import math

import numpy as np
import pytest

from repro.protocols.base import TreeRegistry
from repro.sim.delivery import DeliveryAccountant
from repro.sim.network import MatrixUnderlay

from tests import oracles
from tests.helpers import line_matrix


@pytest.fixture
def tree():
    return TreeRegistry(source=0)


class TestAttach:
    def test_attach_new_node(self, tree):
        tree.attach(1, 0, time=1.0)
        assert tree.parent[1] == 0
        assert 1 in tree.children[0]
        assert tree.is_attached(1)
        assert tree.is_reachable(1)

    def test_attach_chain(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        assert tree.depth(2) == 2
        assert tree.path_to_source(2) == [2, 1, 0]

    def test_cannot_attach_source(self, tree):
        with pytest.raises(ValueError, match="source"):
            tree.attach(0, 1, 1.0)

    def test_cannot_attach_to_missing_parent(self, tree):
        with pytest.raises(ValueError, match="not present"):
            tree.attach(1, 42, 1.0)

    def test_cannot_double_attach(self, tree):
        tree.attach(1, 0, 1.0)
        with pytest.raises(ValueError, match="already attached"):
            tree.attach(1, 0, 2.0)

    def test_cannot_attach_under_own_descendant(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.depart(1, 3.0)  # 2 becomes an orphan rooted subtree? no: 2 orphan
        # Reattach scenario: orphan 2 cannot become parent of... build cycle:
        tree.attach(3, 2, 4.0)
        with pytest.raises(ValueError, match="descendant"):
            # 2 is orphan; try attaching 2 under its own child 3.
            tree.parent[2] = None  # ensure orphan state
            tree.attach(2, 3, 5.0)

    def test_cannot_attach_orphan_under_itself(self, tree):
        # Before the guard this installed parent[2] = 2, children[2] = {2}
        # and the depth refresh pushed 2 onto its own stack for ever.
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.attach(3, 2, 3.0)
        tree.depart(1, 4.0)
        events = []
        tree.add_listener(lambda *a: events.append(a))
        with pytest.raises(ValueError, match="under itself"):
            tree.attach(2, 2, 5.0)
        assert tree.is_orphan(2) and tree.children[2] == {3}
        assert tree.parent == {0: None, 2: None, 3: 2}
        assert tree.attached_nodes() == [0] and events == []
        tree.attach(2, 0, 6.0)  # the orphan can still rejoin properly
        assert tree.depth(3) == 2

    def test_cannot_attach_fresh_node_under_itself(self, tree):
        tree.attach(1, 0, 1.0)
        with pytest.raises(ValueError):
            tree.attach(5, 5, 2.0)
        assert not tree.is_present(5) and 5 not in tree.children
        assert tree.parent == {0: None, 1: 0}


class TestReparent:
    def test_reparent_moves_subtree(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 0, 1.5)
        tree.attach(3, 1, 2.0)
        tree.reparent(1, 2, 3.0)
        assert tree.parent[1] == 2
        assert tree.path_to_source(3) == [3, 1, 2, 0]

    def test_reparent_to_same_parent_is_noop(self, tree):
        events = []
        tree.attach(1, 0, 1.0)
        tree.add_listener(lambda *a: events.append(a))
        tree.reparent(1, 0, 2.0)
        assert events == []

    def test_reparent_into_own_subtree_rejected(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        with pytest.raises(ValueError, match="own subtree"):
            tree.reparent(1, 2, 3.0)

    def test_reparent_detached_rejected(self, tree):
        with pytest.raises(ValueError, match="not attached"):
            tree.reparent(5, 0, 1.0)


class TestDepart:
    def test_depart_orphans_children(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.attach(3, 2, 2.5)
        tree.depart(1, 3.0)
        assert not tree.is_present(1)
        assert tree.is_orphan(2)
        assert not tree.is_reachable(2)
        assert not tree.is_reachable(3)  # below the orphan
        assert tree.parent[3] == 2  # subtree below orphan intact

    def test_orphan_rejoin(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.depart(1, 3.0)
        tree.attach(2, 0, 4.0)
        assert tree.is_reachable(2)

    def test_source_cannot_depart(self, tree):
        with pytest.raises(ValueError, match="source"):
            tree.depart(0, 1.0)

    def test_depart_missing_raises(self, tree):
        with pytest.raises(ValueError, match="not present"):
            tree.depart(9, 1.0)


class TestQueries:
    def test_members_and_edges(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        assert sorted(tree.members()) == [0, 1, 2]
        assert sorted(tree.edges()) == [(0, 1), (1, 2)]

    def test_attached_nodes_excludes_orphan_subtrees(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.depart(1, 3.0)
        assert tree.attached_nodes() == [0]

    def test_is_descendant(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        assert tree.is_descendant(2, 0)
        assert tree.is_descendant(2, 1)
        assert not tree.is_descendant(1, 2)
        assert not tree.is_descendant(2, 2)

    def test_subtree(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.attach(3, 1, 2.5)
        assert sorted(tree.subtree(1)) == [1, 2, 3]
        assert tree.subtree(3) == [3]

    def test_path_to_source_broken_chain_raises(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.depart(1, 3.0)
        with pytest.raises(ValueError, match="no path"):
            tree.path_to_source(2)

    def test_source_depth_zero(self, tree):
        assert tree.depth(0) == 0


class TestListeners:
    def test_events_fire_in_order(self, tree):
        events = []
        tree.add_listener(lambda kind, node, parent, t: events.append((kind, node, parent, t)))
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.reparent(2, 0, 3.0)
        tree.depart(1, 4.0)
        assert events == [
            ("attach", 1, 0, 1.0),
            ("attach", 2, 1, 2.0),
            ("reparent", 2, 0, 3.0),
            ("depart", 1, 0, 4.0),
        ]

    def test_depart_emits_orphans_before_depart(self, tree):
        events = []
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.add_listener(lambda kind, node, parent, t: events.append((kind, node)))
        tree.depart(1, 3.0)
        assert events == [("orphan", 2), ("depart", 1)]

    def test_depart_mutations_complete_before_any_event(self, tree):
        """Listeners must never observe a half-departed node: by the time
        the first orphan event fires, every orphan's parent pointer is
        already cleared and the departed node is gone from both maps."""
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.attach(3, 1, 2.5)
        observed = []

        def check(kind, node, parent, t):
            assert 1 not in tree.parent
            assert 1 not in tree.children
            assert tree.parent[2] is None
            assert tree.parent[3] is None
            observed.append(kind)

        tree.add_listener(check)
        tree.depart(1, 3.0)
        assert observed == ["orphan", "orphan", "depart"]


class TestEdgeCases:
    def test_reparent_onto_deep_descendant_rejected(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.attach(3, 2, 3.0)
        tree.attach(4, 3, 4.0)
        with pytest.raises(ValueError, match="own subtree"):
            tree.reparent(1, 4, 5.0)
        # rejection left every pointer untouched
        assert tree.parent[1] == 0
        assert tree.path_to_source(4) == [4, 3, 2, 1, 0]

    def test_depart_of_source_with_children_leaves_state_intact(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 0, 2.0)
        events = []
        tree.add_listener(lambda *a: events.append(a))
        with pytest.raises(ValueError, match="source"):
            tree.depart(0, 3.0)
        assert events == []
        assert tree.parent[1] == 0 and tree.parent[2] == 0
        assert sorted(tree.children[0]) == [1, 2]

    def test_path_and_depth_on_orphan_raise(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        tree.depart(1, 3.0)
        with pytest.raises(ValueError, match="no path"):
            tree.path_to_source(2)
        with pytest.raises(ValueError, match="no path"):
            tree.depth(2)

    def test_reparent_self_rejected(self, tree):
        tree.attach(1, 0, 1.0)
        with pytest.raises(ValueError, match="own subtree"):
            tree.reparent(1, 1, 2.0)


class TestInsert:
    def test_fresh_insert_with_adoption(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 0, 2.0)
        tree.insert(3, 0, (1, 2), 3.0)
        assert tree.parent[3] == 0
        assert tree.parent[1] == 3 and tree.parent[2] == 3
        assert sorted(tree.children[3]) == [1, 2]
        assert tree.children[0] == {3}

    def test_insert_of_attached_node_reparents(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 0, 2.0)
        tree.attach(3, 1, 2.5)
        tree.insert(3, 0, (2,), 3.0)
        assert tree.parent[3] == 0
        assert tree.parent[2] == 3
        assert 3 not in tree.children[1]

    def test_insert_event_sequence(self, tree):
        events = []
        tree.attach(1, 0, 1.0)
        tree.attach(2, 0, 2.0)
        tree.add_listener(lambda kind, node, parent, t: events.append((kind, node, parent)))
        tree.insert(3, 0, (1, 2), 3.0)
        assert events == [
            ("attach", 3, 0),
            ("reparent", 1, 3),
            ("reparent", 2, 3),
        ]

    def test_insert_mutations_complete_before_any_event(self, tree):
        """An observer must never see the pivot's degree transiently
        exceed its pre-insert value while adoptions are half-applied."""
        tree.attach(1, 0, 1.0)
        tree.attach(2, 0, 2.0)
        seen = []

        def check(kind, node, parent, t):
            assert tree.children[0] == {3}
            assert tree.parent[1] == 3 and tree.parent[2] == 3
            seen.append(kind)

        tree.add_listener(check)
        tree.insert(3, 0, (1, 2), 3.0)
        assert len(seen) == 3

    def test_insert_adopting_non_child_rejected(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        with pytest.raises(ValueError, match="not a child"):
            tree.insert(3, 0, (2,), 3.0)  # 2 belongs to 1, not 0
        assert not tree.is_present(3)
        assert tree.parent[2] == 1

    def test_insert_adopting_self_rejected(self, tree):
        tree.attach(1, 0, 1.0)
        with pytest.raises(ValueError, match="adopt itself"):
            tree.insert(1, 0, (1,), 2.0)

    def test_insert_under_own_subtree_rejected(self, tree):
        tree.attach(1, 0, 1.0)
        tree.attach(2, 1, 2.0)
        with pytest.raises(ValueError, match="own subtree"):
            tree.insert(1, 2, (), 3.0)

    def test_insert_source_rejected(self, tree):
        with pytest.raises(ValueError, match="source"):
            tree.insert(0, 0, (), 1.0)


#: one legal call of every mutation on the world :func:`_timed_world` builds
MUTATIONS = {
    "attach": lambda tree, t: tree.attach(4, 0, t),
    "reparent": lambda tree, t: tree.reparent(2, 0, t),
    "depart": lambda tree, t: tree.depart(1, t),
    "sever": lambda tree, t: tree.sever(2, t),
    "insert": lambda tree, t: tree.insert(4, 0, (3,), t),
}


def _timed_world():
    """Source 0, chain 0-1-2 and leaf 3, the last mutation at 6.0, with a
    lossy accountant listening."""
    loss = np.zeros((5, 5))
    loss[0, 1] = loss[1, 0] = 0.1
    ul = MatrixUnderlay(line_matrix([0.0, 10.0, 20.0, 30.0, 40.0]), loss=loss)
    tree = TreeRegistry(source=0)
    acct = DeliveryAccountant(tree, ul)
    tree.attach(1, 0, 1.0)
    tree.attach(2, 1, 2.0)
    tree.attach(3, 0, 6.0)
    return tree, acct


def _state(tree, acct):
    return (
        dict(tree.parent),
        {p: set(kids) for p, kids in tree.children.items()},
        set(tree._reachable),
        dict(tree._depth),
        tree._clock,
        dict(acct.link_usage),
        {
            n: (acct.reception_segments(n, 10.0), acct.lifetime_intervals(n, 10.0))
            for n in acct.tracked_nodes()
        },
        oracles.window_loss(acct, 0.0, 10.0),
        acct.data_messages(0.0, 10.0),
    )


class TestMutationTimes:
    @pytest.mark.parametrize("kind", sorted(MUTATIONS))
    @pytest.mark.parametrize("time", [math.nan, 3.0], ids=["nan", "backward"])
    def test_refused_before_any_pointer_moves(self, kind, time):
        tree, acct = _timed_world()
        before = _state(tree, acct)
        events = []
        tree.add_listener(lambda *a: events.append(a))
        with pytest.raises(ValueError, match="before the last"):
            MUTATIONS[kind](tree, time)
        assert events == []
        assert _state(tree, acct) == before
        MUTATIONS[kind](tree, 6.0)  # the same instant is still open
        assert events

    def test_a_refused_structure_leaves_the_clock(self, tree):
        tree.attach(1, 0, 5.0)
        with pytest.raises(ValueError, match="already attached"):
            tree.attach(1, 0, 9.0)
        tree.attach(2, 1, 7.0)
        assert tree._clock == 7.0
