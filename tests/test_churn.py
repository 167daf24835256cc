"""Tests for the slotted churn model."""

import pytest

from repro.sim.churn import ChurnEvent, SlottedChurnModel, churn_order


class TestChurnEvent:
    def test_valid(self):
        ev = ChurnEvent(1.0, "join", 3)
        assert ev.action == "join"

    def test_bad_action(self):
        with pytest.raises(ValueError, match="action"):
            ChurnEvent(1.0, "explode", 3)

    def test_negative_time(self):
        with pytest.raises(ValueError):
            ChurnEvent(-1.0, "join", 3)


class TestSlotPlanning:
    def make(self, rate=0.1, pop=100, **kwargs):
        return SlottedChurnModel(rate, pop, seed=1, **kwargs)

    def test_per_slot_count(self):
        assert self.make(0.1, 200).per_slot_count == 20
        assert self.make(0.03, 200).per_slot_count == 6

    def test_zero_churn_no_events(self):
        model = self.make(0.0)
        assert model.plan_slot(0.0, list(range(50)), list(range(50, 100))) == []

    def test_balanced_leave_join(self):
        model = self.make(0.1, 100)
        events = model.plan_slot(1000.0, list(range(100)), list(range(100, 200)))
        leaves = [e for e in events if e.action == "leave"]
        joins = [e for e in events if e.action == "join"]
        assert len(leaves) == 10
        assert len(joins) == 10

    def test_events_inside_churn_window(self):
        model = self.make(0.1, 100, slot_s=400.0, settle_s=100.0)
        events = model.plan_slot(2000.0, list(range(100)), list(range(100, 200)))
        assert all(2000.0 <= e.time < 2300.0 for e in events)

    def test_clipped_by_available_nodes(self):
        model = self.make(0.5, 100)  # wants 50 each way
        events = model.plan_slot(0.0, [1, 2, 3], [4, 5])
        assert len([e for e in events if e.action == "leave"]) == 3
        assert len([e for e in events if e.action == "join"]) == 2

    def test_no_duplicate_nodes_within_action(self):
        model = self.make(0.2, 100)
        events = model.plan_slot(0.0, list(range(100)), list(range(100, 200)))
        leavers = [e.node for e in events if e.action == "leave"]
        joiners = [e.node for e in events if e.action == "join"]
        assert len(set(leavers)) == len(leavers)
        assert len(set(joiners)) == len(joiners)

    def test_deterministic_for_seed(self):
        a = SlottedChurnModel(0.1, 50, seed=9).plan_slot(
            0.0, list(range(50)), list(range(50, 100))
        )
        b = SlottedChurnModel(0.1, 50, seed=9).plan_slot(
            0.0, list(range(50)), list(range(50, 100))
        )
        assert a == b

    def test_sorted_output(self):
        events = self.make(0.2).plan_slot(
            0.0, list(range(100)), list(range(100, 200))
        )
        order = {"leave": 0, "join": 1}
        assert events == sorted(
            events, key=lambda e: (e.time, order[e.action], e.node)
        )


class TestValidation:
    def test_settle_must_fit_in_slot(self):
        with pytest.raises(ValueError, match="settle_s"):
            SlottedChurnModel(0.1, 100, slot_s=100.0, settle_s=100.0)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            SlottedChurnModel(1.5, 100)


class TestSchedule:
    def test_sorted_events(self):
        events = [ChurnEvent(5.0, "join", 1), ChurnEvent(1.0, "leave", 2)]
        assert [e.time for e in sorted(events, key=churn_order)] == [1.0, 5.0]

    def test_simultaneous_leave_applies_before_join(self):
        # A node leaving and (re)joining at the same instant must free its
        # slot before the join runs; alphabetical action ordering would put
        # the join first, re-registering a node that is still alive.
        events = [
            ChurnEvent(10.0, "join", 7),
            ChurnEvent(10.0, "leave", 7),
            ChurnEvent(10.0, "join", 3),
            ChurnEvent(10.0, "leave", 9),
        ]
        actions = [(e.action, e.node) for e in sorted(events, key=churn_order)]
        assert actions == [
            ("leave", 7),
            ("leave", 9),
            ("join", 3),
            ("join", 7),
        ]
