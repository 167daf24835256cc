"""Direct tests of the join kernel (:mod:`repro.core.join`).

Every engine — the agents, the batched emulator, both scale walks —
asks this one module for its join decision, so the cross-engine
byte-identity suites no longer test the decision itself: they would all
agree on a wrong answer.  These tests pin the kernel against the paper
(Fig. 3.6's branches, Section 3.2's Examples and Scenarios I-III) and against the
validating one-triangle reference :func:`repro.core.cases.classify_case`.

Hosts live on a 1-D line (distance = coordinate difference), which
stages each of the paper's configurations exactly.
"""

from __future__ import annotations

import ast
import doctest
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import join
from repro.core.cases import Case, classify_case
from repro.core.join import (
    Attach,
    Descend,
    Insert,
    case1_tail,
    closest_free_else_closest,
    hmtp_decide,
    split_cases,
    vdm_decide,
)

TOL = 1e-9


def on_line(pivot: float, newcomer: float, children: dict[int, float]):
    """``(dist_to_pivot, probed children)`` for hosts at 1-D positions."""
    return abs(newcomer - pivot), [
        (child, abs(newcomer - pos), abs(pivot - pos))
        for child, pos in children.items()
    ]


def probes_of(children, free: dict[int, int]):
    """Probed children -> the kernel's ``(d_new, child, free)`` probes."""
    return [(d_new, child, free.get(child, 1)) for child, d_new, _dp in children]


def vdm(pivot_pos, new_pos, child_pos, *, pivot_free=1, budget=4, free=None,
        case2_first=False):
    dist, children = on_line(pivot_pos, new_pos, child_pos)
    case2, case3 = split_cases(dist, children, TOL)
    return vdm_decide(
        0, pivot_free, case2, case3, budget, probes_of(children, free or {}),
        case2_first,
    )


# -- split_cases ---------------------------------------------------------------


class TestSplitCases:
    def test_mixed_classification(self):
        # Pivot at 0, newcomer at 10.  Child 1 at 25 lies beyond the
        # newcomer (Case II), child 2 at 4 between pivot and newcomer
        # (Case III), child 3 at -8 on the opposite side (Case I).
        dist, children = on_line(0.0, 10.0, {1: 25.0, 2: 4.0, 3: -8.0})
        assert split_cases(dist, children, TOL) == ([(15.0, 1)], [(6.0, 2)])

    def test_empty(self):
        assert split_cases(5.0, [], TOL) == ([], [])

    def test_carries_the_newcomer_distance(self):
        assert split_cases(10.0, [(7, 6.0, 4.0)], TOL) == ([], [(6.0, 7)])

    def test_ties_are_case_i(self):
        # two longest sides tie / all equal / co-located
        for child in [(1, 4.0, 10.0), (1, 10.0, 10.0), (1, 10.0, 4.0)]:
            assert split_cases(10.0, [child], TOL) == ([], [])
        assert split_cases(0.0, [(1, 0.0, 0.0)], TOL) == ([], [])

    def test_tolerance_widens_case_i(self):
        assert split_cases(10.0, [(1, 1.0, 9.5)], TOL) == ([], [(1.0, 1)])
        assert split_cases(10.0, [(1, 1.0, 9.5)], 0.1) == ([], [])


# -- Fig. 3.6, branch by branch --------------------------------------------------


class TestVdmDecide:
    def test_example_i_no_shared_direction_attaches_to_pivot(self):
        # Fig 3.8: source 50, child at 80, newcomer at 20 (opposite side).
        assert vdm(50.0, 20.0, {1: 80.0}) == Attach(0)

    def test_example_ii_descends_through_the_child_in_between(self):
        # Fig 3.9: source 0, child at 30, newcomer at 70.
        assert vdm(0.0, 70.0, {1: 30.0}) == Descend(1)

    def test_scenario_ii_descends_through_the_closest_case_iii_child(self):
        assert vdm(0.0, 70.0, {1: 30.0, 2: 50.0, 3: 10.0}) == Descend(2)

    def test_case_iii_distance_tie_breaks_on_lowest_id(self):
        case3 = [(5.0, 9), (5.0, 4), (7.0, 1)]
        assert vdm_decide(0, 1, [], case3, 4, [], False) == Descend(4)

    def test_example_iii_inserts_between_pivot_and_case_ii_child(self):
        # Fig 3.10: source 0, child at 80, newcomer at 30.
        assert vdm(0.0, 30.0, {1: 80.0}) == Insert(0, (1,))

    def test_scenario_i_insert_adopts_closest_first_within_budget(self):
        positions = {1: 90.0, 2: 50.0, 3: 70.0}
        assert vdm(0.0, 30.0, positions) == Insert(0, (2, 3, 1))
        assert vdm(0.0, 30.0, positions, budget=2) == Insert(0, (2, 3))

    def test_scenario_iii_case_iii_beats_a_coexisting_case_ii(self):
        # child 1 at 20 is on the way (III), child 2 at 90 lies beyond (II)
        assert vdm(0.0, 50.0, {1: 20.0, 2: 90.0}) == Descend(1)

    def test_case2_priority_flips_scenario_iii(self):
        assert vdm(0.0, 50.0, {1: 20.0, 2: 90.0}, case2_first=True) == Insert(
            0, (2,)
        )

    def test_zero_budget_falls_through_to_case_iii(self):
        decision = vdm(0.0, 50.0, {1: 20.0, 2: 90.0}, budget=0, case2_first=True)
        assert decision == Descend(1)

    def test_zero_budget_falls_through_to_the_case_i_tail(self):
        assert vdm(0.0, 30.0, {1: 80.0}, budget=0) == Attach(0)
        assert vdm(0.0, 30.0, {1: 80.0}, budget=0, pivot_free=0) == Attach(1)

    def test_full_pivot_attaches_to_closest_free_child(self):
        children = {1: 80.0, 2: 90.0, 3: 70.0}  # newcomer on the other side
        decision = vdm(50.0, 20.0, children, pivot_free=0, free={3: 0})
        assert decision == Attach(1)

    def test_full_pivot_without_a_free_child_descends_through_closest(self):
        children = {1: 80.0, 2: 90.0, 3: 70.0}
        decision = vdm(
            50.0, 20.0, children, pivot_free=0, free={1: 0, 2: 0, 3: 0}
        )
        assert decision == Descend(3)

    def test_childless_pivot_attaches_even_when_it_reports_full(self):
        assert vdm(0.0, 10.0, {}) == Attach(0)
        assert vdm(0.0, 10.0, {}, pivot_free=0) == Attach(0)


class TestCase1Tail:
    def test_free_pivot_wins_over_closer_free_children(self):
        assert case1_tail(0, 2, [(1.0, 5, 3)]) == Attach(0)

    def test_ties_break_on_lowest_id(self):
        probes = [(3.0, 8, 1), (3.0, 2, 1), (3.0, 5, 0)]
        assert case1_tail(0, 0, probes) == Attach(2)
        full = [(d, child, 0) for d, child, _free in probes]
        assert case1_tail(0, 0, full) == Descend(2)


class TestClosestFreeElseClosest:
    """The rule a full node redirects by — BTP's descent, every
    protocol's lost degree race, and the two child branches of the tail."""

    def test_closest_free_child_beats_a_closer_full_one(self):
        assert closest_free_else_closest([(1.0, 4, 0), (5.0, 9, 2)]) == (5.0, 9, 2)

    def test_nobody_free_means_the_closest_child(self):
        assert closest_free_else_closest([(6.0, 4, 0), (5.0, 9, 0)]) == (5.0, 9, 0)

    def test_no_children_means_nothing(self):
        assert closest_free_else_closest([]) is None
        assert closest_free_else_closest(()) is None

    def test_ties_break_on_lowest_id_by_plain_tuple_order(self):
        probes = [(3.0, 8, 1), (3.0, 2, 4), (3.0, 5, 0), (2.0, 6, 0)]
        assert closest_free_else_closest(probes) == (3.0, 2, 4)
        assert closest_free_else_closest(probes[::-1]) == (3.0, 2, 4)

    @given(
        probes=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 2.5, 7.0]),
                st.integers(0, 30),
                st.integers(0, 3),
            ),
            max_size=8,
            unique_by=lambda probe: probe[1],
        )
    )
    def test_is_the_rule_the_agents_used_to_spell_out(self, probes):
        # The rule spelled out on its own, as the agents once wrote it.
        free = [p for p in probes if p[2] > 0]
        pool = free or probes
        expected = min(pool, key=lambda p: (p[0], p[1])) if pool else None
        assert closest_free_else_closest(probes) == expected
        # ... and the tail is that rule behind a free-pivot check.
        tail = case1_tail(7, 0, probes)
        if expected is None:
            assert tail == Attach(7)
        elif expected[2] > 0:
            assert tail == Attach(expected[1])
        else:
            assert tail == Descend(expected[1])


class TestHmtpDecide:
    @staticmethod
    def hmtp(pivot_pos, new_pos, child_pos, *, pivot_free=1, free=None):
        dist, children = on_line(pivot_pos, new_pos, child_pos)
        d_pivot = {child: dp for child, _dn, dp in children}
        return hmtp_decide(
            0, pivot_free, dist, probes_of(children, free or {}), d_pivot.__getitem__
        )

    def test_descends_toward_a_closer_child(self):
        assert self.hmtp(0.0, 70.0, {1: 30.0, 2: 60.0}) == Descend(2)

    def test_local_minimum_attaches_to_the_pivot(self):
        assert self.hmtp(0.0, 10.0, {1: -30.0}) == Attach(0)

    def test_scenario_ii_u_turn_attaches_to_the_pivot(self):
        # Fig 3.22: newcomer at 30 between the pivot and its child at 40.
        assert self.hmtp(0.0, 30.0, {1: 40.0}) == Attach(0)

    def test_u_turn_needs_a_free_pivot(self):
        assert self.hmtp(0.0, 30.0, {1: 40.0}, pivot_free=0) == Descend(1)

    def test_pivot_distance_is_only_read_for_the_u_turn_check(self):
        def boom(child):
            raise AssertionError("pivot distance read without a closer child")

        assert hmtp_decide(0, 1, 10.0, [(30.0, 1, 1)], boom) == Attach(0)
        assert hmtp_decide(0, 0, 10.0, [(5.0, 1, 1)], boom) == Descend(1)

    def test_full_pivot_falls_to_the_shared_tail(self):
        children = {1: -30.0, 2: -40.0}
        assert self.hmtp(0.0, 10.0, children, pivot_free=0) == Attach(1)
        assert self.hmtp(
            0.0, 10.0, children, pivot_free=0, free={1: 0, 2: 0}
        ) == Descend(1)
        assert self.hmtp(0.0, 10.0, {}, pivot_free=0) == Attach(0)


# -- properties --------------------------------------------------------------------

# A small value pool makes exact ties (and exact collinearity) common;
# the float range covers everything else.
distance = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 7.0, 10.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
tolerance = st.sampled_from([0.0, 1e-9, 1e-3, 0.1])
probed = st.lists(
    st.tuples(st.integers(0, 50), distance, distance),
    max_size=8,
    unique_by=lambda child: child[0],
)


@given(dist=distance, children=probed, tol=tolerance)
def test_split_cases_agrees_with_classify_case(dist, children, tol):
    case2, case3 = split_cases(dist, children, tol)
    expected2, expected3 = [], []
    for child, d_new, d_pivot in children:
        case = classify_case(dist, d_pivot, d_new, tie_tolerance=tol)
        if case is Case.II:
            expected2.append((d_new, child))
        elif case is Case.III:
            expected3.append((d_new, child))
    assert (case2, case3) == (expected2, expected3)


decision_inputs = dict(
    dist=distance,
    children=probed,
    tol=tolerance,
    pivot_free=st.integers(0, 4),
    budget=st.integers(0, 4),
    frees=st.lists(st.integers(0, 3), min_size=8, max_size=8),
    case2_first=st.booleans(),
)


def _decide(dist, children, tol, pivot_free, budget, frees, case2_first):
    case2, case3 = split_cases(dist, children, tol)
    probes = [
        (d_new, child, frees[i]) for i, (child, d_new, _dp) in enumerate(children)
    ]
    decision = vdm_decide(7, pivot_free, case2, case3, budget, probes, case2_first)
    return case2, case3, decision


@given(**decision_inputs)
def test_insert_adopts_only_case_ii_closest_first_within_budget(**inputs):
    case2, case3, decision = _decide(**inputs)
    wants_insert = case2 and inputs["budget"] > 0 and (
        inputs["case2_first"] or not case3
    )
    assert isinstance(decision, Insert) == bool(wants_insert)
    if isinstance(decision, Insert):
        assert decision.target == 7
        assert 1 <= len(decision.adopt) <= inputs["budget"]
        ranked = [child for _d, child in sorted(case2)]
        assert list(decision.adopt) == ranked[: len(decision.adopt)]
        assert len(decision.adopt) == min(inputs["budget"], len(case2))


@given(**decision_inputs)
def test_descend_targets_the_minimal_case_iii_child(**inputs):
    case2, case3, decision = _decide(**inputs)
    if case3 and not isinstance(decision, Insert):
        assert decision == Descend(min(case3)[1])
    if isinstance(decision, Descend) and not case3:
        # the tail's last resort: everyone is full, push one level down
        assert inputs["pivot_free"] == 0
        assert all(inputs["frees"][i] == 0 for i in range(len(inputs["children"])))


@given(data=st.data(), **decision_inputs)
def test_decision_is_invariant_under_probe_order(data, **inputs):
    _c2, _c3, decision = _decide(**inputs)
    children = inputs["children"]
    order = data.draw(st.permutations(range(len(children))))
    shuffled = dict(inputs)
    shuffled["children"] = [children[i] for i in order]
    shuffled["frees"] = [inputs["frees"][i] for i in order] + [0] * 8
    assert _decide(**shuffled)[2] == decision


# -- the kernel stays a kernel -----------------------------------------------------


def test_kernel_imports_nothing_from_the_rest_of_the_package():
    tree = ast.parse(Path(join.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert not {name for name in imported if name.startswith("repro")}, imported


def test_kernel_doctests():
    assert doctest.testmod(join).failed == 0


def test_decisions_are_the_runtime_s_decisions():
    # protocols.base re-exports the kernel's types; a second definition
    # would make JoinProcess's isinstance dispatch miss.
    from repro.protocols import base

    assert (base.Descend, base.Attach, base.Insert) == (Descend, Attach, Insert)


@pytest.mark.parametrize("selection", ["closest", "random"])
def test_agent_random_selection_only_replaces_a_case_iii_descend(selection):
    """The one knob the agent layers over the kernel."""
    from repro.core.vdm import VDMConfig
    from repro.factories import vdm
    from repro.protocols.base import ProtocolRuntime
    from repro.protocols.messages import ChildInfo, InfoResponse
    from repro.sim.engine import Simulator
    from repro.sim.network import MatrixUnderlay
    from tests.helpers import line_matrix

    env = ProtocolRuntime(
        Simulator(), MatrixUnderlay(line_matrix([0.0, 30.0, 50.0, 70.0])), source=0
    )
    agent = vdm(VDMConfig(case3_selection=selection))(3, env, degree_limit=4, rng=5)
    row = agent.protocol
    info = InfoResponse(node_id=0, free_degree=0, parent=None)
    # both children on the way to the newcomer at 70: a Case III descend
    probes = {1: (40.0, ChildInfo(1, 30.0, 0)), 2: (20.0, ChildInfo(2, 50.0, 0))}
    decision = row.decide(row, agent, 0, 70.0, info, probes)
    assert isinstance(decision, Descend) and decision.child in (1, 2)
    if selection == "closest":
        assert decision == Descend(2)
    # a Case-I last-resort descend is never randomised
    opposite = {1: (100.0, ChildInfo(1, 30.0, 0)), 2: (120.0, ChildInfo(2, 50.0, 0))}
    assert row.decide(row, agent, 0, 70.0, info, opposite) == Descend(1)
