"""Direct tests of the join loop's rules (:mod:`repro.core.joinloop`).

Both drivers — the message-level agents and the batched emulator — take
their budgets, restarts, redirects and the parent's acceptance rule from
this one module, so the cross-engine byte-identity suites cannot see a
wrong rule: both engines would apply it alike.  These tests state the
rules on small hand-built trees instead.
"""

from __future__ import annotations

import pytest

from repro.core.joinloop import (
    MAX_ITERATIONS,
    MAX_RESTARTS,
    JoinLoop,
    JoinRecord,
    admit,
    reconcile,
)
from repro.protocols.tree import TreeRegistry


class _Agent:
    active_process = None


def _tree():
    """0 -> {1, 2}; 1 -> {3, 4}; 3 -> {5}."""
    tree = TreeRegistry(0)
    for node, parent in ((1, 0), (2, 0), (3, 1), (4, 1), (5, 3)):
        tree.attach(node, parent, 0.0)
    return tree


def _loop(node=9, kind="join"):
    agent = _Agent()
    loop = JoinLoop(node, agent, 0, kind, 1.5)
    agent.active_process = loop
    return loop


# ---------------------------------------------------------------------------
# admit: the parent's acceptance rule
# ---------------------------------------------------------------------------

ALIVE = frozenset(range(12))


def _admit(tree, node, free, sender, adopt, *, alive=ALIVE, sender_limit=None):
    children = dict.fromkeys(tree.children.get(node, ()), 1.0)
    return admit(tree, node, free, children, sender, adopt, alive, sender_limit)


def _dangling():
    tree = _tree()
    tree.depart(1, 1.0)  # 3 and 4 become orphan roots; 5 hangs below 3
    return tree


#: (case, tree, parent, free, sender, adopt, kwargs, answer)
ADMIT_TABLE = [
    ("dangling parent refuses an attach", _dangling, 3, 2, 8, None, {}, None),
    ("dangling parent refuses an insert", _dangling, 3, 2, 8, (5,), {}, None),
    ("the source is never dangling", _tree, 0, 1, 8, None, {}, ()),
    ("ancestor sender is refused", _tree, 3, 2, 1, None, {}, None),
    ("the root of a sender's own subtree is refused", _tree, 5, 2, 1, None, {}, None),
    ("attach takes a free slot", _tree, 1, 1, 8, None, {}, ()),
    ("attach needs a slot", _tree, 1, 0, 8, None, {}, None),
    ("insert moves the adopted children", _tree, 1, 0, 8, (3, 4), {}, (3, 4)),
    ("insert keeps the adopt order", _tree, 1, 0, 8, (4, 3), {}, (4, 3)),
    ("insert skips a child that is not ours", _tree, 1, 0, 8, (2, 4), {}, (4,)),
    (
        "insert skips a dead child",
        _tree, 1, 0, 8, (3, 4), {"alive": ALIVE - {3}}, (4,),
    ),
    ("insert never moves the sender itself", _tree, 1, 0, 3, (3, 4), {}, (4,)),
    ("insert falls back to an attach", _tree, 1, 1, 8, (7,), {}, ()),
    ("insert rejected when nothing moves and full", _tree, 1, 0, 8, (7,), {}, None),
    ("insert with no adopt list and full", _tree, 1, 0, 8, (), {}, None),
    (
        "insert clamped to the sender's room",
        _tree, 1, 0, 8, (3, 4), {"sender_limit": 1}, (3,),
    ),
    (
        "the room counts the sender's tree children",
        _tree, 0, 0, 1, (2,), {"sender_limit": 2}, None,
    ),
    (
        "a sender with no room falls back to a free slot",
        _tree, 0, 1, 1, (2,), {"sender_limit": 1}, (),
    ),
    (
        "no clamp without the sender's limit",
        _tree, 1, 0, 8, (3, 4), {"sender_limit": None}, (3, 4),
    ),
]


@pytest.mark.parametrize(
    "make, parent, free, sender, adopt, kwargs, answer",
    [row[1:] for row in ADMIT_TABLE],
    ids=[row[0] for row in ADMIT_TABLE],
)
def test_admit(make, parent, free, sender, adopt, kwargs, answer):
    tree = make()
    before = (dict(tree.parent), {p: set(c) for p, c in tree.children.items()})
    assert _admit(tree, parent, free, sender, adopt, **kwargs) == answer
    # A rule, not a commit: the tree is the driver's to change.
    assert (dict(tree.parent), {p: set(c) for p, c in tree.children.items()}) == before


def test_admit_answers_a_tuple():
    assert type(_admit(_tree(), 1, 0, 8, [3, 4])) is tuple


# ---------------------------------------------------------------------------
# reconcile: the parent's child table against the tree
# ---------------------------------------------------------------------------


def test_reconcile_drops_stale_and_measures_missing_in_id_order():
    children = {2: 5.0, 9: 7.0}
    asked = []

    def distance(child):
        asked.append(child)
        return 10.0 * child

    assert reconcile(children, {2, 4, 3}, distance)
    assert children == {2: 5.0, 3: 30.0, 4: 40.0}
    assert asked == [3, 4]


def test_reconcile_in_sync_changes_nothing():
    children = {2: 5.0}
    assert not reconcile(children, {2}, lambda child: pytest.fail("measured"))
    assert children == {2: 5.0}


# ---------------------------------------------------------------------------
# JoinLoop: budgets, restarts, redirects
# ---------------------------------------------------------------------------


def test_unknown_kind_refused():
    with pytest.raises(ValueError, match="unknown join kind"):
        JoinLoop(9, _Agent(), 0, "teleport", 0.0)


def test_iteration_budget():
    loop = _loop()
    for i in range(1, MAX_ITERATIONS + 1):
        assert loop.ask(3) == 3
        assert loop.iterations == i
    assert loop.ask(3) is None
    assert loop.restarts == 0


def test_restart_budget():
    loop = _loop()
    for i in range(1, MAX_RESTARTS + 1):
        assert loop.restart() == 0
        assert (loop.restarts, loop.iterations) == (i, i)
    assert loop.restart() is None
    assert loop.iterations == MAX_RESTARTS


def test_a_restart_spends_an_iteration_too():
    loop = _loop()
    loop.iterations = MAX_ITERATIONS
    assert loop.restart() is None
    assert loop.restarts == 1


def test_asking_yourself_restarts_at_the_source():
    loop = _loop(node=4)
    assert loop.ask(4) == 0
    assert (loop.iterations, loop.restarts) == (2, 1)


def test_candidates_skip_self_and_descendants():
    tree = _tree()
    kids = [(3, 1.0), (4, 2.0), (5, 3.0), (2, 4.0)]
    # 1 holds a subtree: 3, 4 and 5 lie below it.
    assert _loop(node=1).candidates(kids, tree) == [(2, 4.0)]
    assert _loop(node=3).candidates(kids, tree) == [(4, 2.0), (2, 4.0)]
    # a childless joiner only skips itself
    assert _loop(node=5).candidates(kids, tree) == [(3, 1.0), (4, 2.0), (2, 4.0)]


def test_redirect_takes_the_closest_free_child_else_the_closest():
    tree = _tree()
    loop = _loop()
    assert loop.redirect([(1, 5.0, 0), (2, 9.0, 1), (3, 7.0, 2)], tree) == 3
    assert loop.redirect([(1, 5.0, 0), (2, 4.0, 0)], tree) == 2
    assert (loop.iterations, loop.restarts) == (2, 0)


def test_redirect_with_no_candidate_restarts():
    tree = _tree()
    loop = _loop(node=1)
    # only the joiner itself and its own descendants were offered
    assert loop.redirect([(1, 1.0, 2), (3, 2.0, 1), (5, 3.0, 1)], tree) == 0
    assert (loop.iterations, loop.restarts) == (1, 1)
    assert _loop().redirect([], tree) == 0


def test_redirect_once_the_budgets_are_spent():
    loop = _loop()
    loop.restarts = MAX_RESTARTS
    assert loop.redirect([], _tree()) is None


# ---------------------------------------------------------------------------
# connecting and finishing
# ---------------------------------------------------------------------------


def test_may_connect_never_to_self_or_below():
    tree = _tree()
    loop = _loop(node=1)
    assert not loop.may_connect(1, tree)
    assert not loop.may_connect(5, tree)
    assert loop.may_connect(2, tree)
    assert loop.may_connect(0, tree)


def _never(a, b):
    pytest.fail("measured")


@pytest.mark.parametrize("kind", ["join", "reconnect"])
def test_joins_never_keep_the_parent(kind):
    assert not _loop(kind=kind).keeps_parent(1, 1, True, _never)


@pytest.mark.parametrize("kind", ["refine", "switch"])
def test_refinement_keeps_the_parent_it_found_again(kind):
    assert _loop(kind=kind).keeps_parent(1, 1, True, _never)
    # VDM's rule: any other parent the rejoin found
    assert not _loop(kind=kind).keeps_parent(2, 1, False, _never)


def test_strictly_closer_rule_measures_target_first():
    asked = []
    dist = {2: 5.0, 3: 5.0, 4: 9.0, 1: 7.0}

    def distance(a, b):
        asked.append(b)
        return dist[b]

    loop = _loop(kind="refine")
    assert not loop.keeps_parent(2, 1, True, distance)
    assert asked == [2, 1]
    assert loop.keeps_parent(4, 1, True, distance)
    # a tie keeps the parent: only a strictly closer one wins
    dist[3] = 7.0
    assert loop.keeps_parent(3, 1, True, distance)
    # no parent to compare with: switch
    assert not loop.keeps_parent(3, None, True, _never)


def test_finish_files_the_record_and_frees_the_slot():
    loop = _loop(node=4, kind="reconnect")
    loop.ask(2)
    record = loop.finish(True, 3.0)
    assert record == JoinRecord(4, "reconnect", 1.5, 3.0, True, 1)
    assert type(record) is JoinRecord and record.duration == 1.5
    assert loop.finished and loop.agent.active_process is None


def test_finish_leaves_a_newer_attempt_in_place():
    loop = _loop()
    newer = JoinLoop(9, loop.agent, 0, "reconnect", 2.0)
    loop.agent.active_process = newer
    loop.cancel()
    loop.finish(False, 3.0)
    assert loop.cancelled and loop.agent.active_process is newer
