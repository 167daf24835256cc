"""Tests for the discrete-event engine."""

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(3))
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1, 2, 3]
        assert sim.now == 3.0

    def test_same_time_fifo_within_priority(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_priority_orders_simultaneous_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("low"), priority=10)
        sim.schedule(1.0, lambda: fired.append("high"), priority=0)
        sim.run()
        assert fired == ["high", "low"]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="before current time"):
            sim.schedule(4.0, lambda: None)

    def test_nan_time_raises(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="NaN"):
            sim.schedule(float("nan"), lambda: None)

    def test_schedule_in_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(ValueError, match=">= 0"):
            sim.schedule_in(-1.0, lambda: None)

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule_in(1.0, lambda: chain(n + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        ev.cancel()
        sim.run()
        assert fired == ["b"]

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        ev.cancel()
        assert sim.peek_time() == 2.0

    def test_peek_empty_is_inf(self):
        assert Simulator().peek_time() == math.inf


class TestRunUntil:
    def test_clock_advances_to_horizon(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until(10.0)
        assert sim.now == 10.0

    def test_events_at_horizon_fire(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("x"))
        sim.run_until(5.0)
        assert fired == ["x"]

    def test_events_after_horizon_wait(self):
        sim = Simulator()
        fired = []
        sim.schedule(6.0, lambda: fired.append("x"))
        sim.run_until(5.0)
        assert fired == []
        sim.run_until(7.0)
        assert fired == ["x"]

    def test_horizon_in_past_raises(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="precedes"):
            sim.run_until(1.0)

    def test_max_events_bounds_work(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        count = sim.run(max_events=4)
        assert count == 4
        assert sim.pending == 6

    @pytest.mark.parametrize("budget", [0, 1])
    def test_event_budget_is_tested_before_firing(self, budget):
        for drive in (
            lambda sim: sim.run(max_events=budget),
            lambda sim: sim.run_until(9.0, max_events=budget),
        ):
            sim = Simulator()
            fired = []
            sim.schedule(1.0, lambda: fired.append(1)).cancel()
            for t in (2.0, 3.0, 4.0):
                sim.schedule(t, lambda t=t: fired.append(t))
            assert drive(sim) == budget
            assert fired == [2.0][:budget]
            assert sim.events_processed == budget
            # a spent budget leaves the clock at the last event fired
            assert sim.now == (2.0 if budget else 0.0)
            assert sim.run() == 3 - budget

    def test_negative_event_budget_refused(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="max_events"):
            sim.run(max_events=-1)
        with pytest.raises(ValueError, match="max_events"):
            sim.run_until(5.0, max_events=-1)
        assert sim.pending == 1 and sim.now == 0.0 and sim.events_processed == 0


class TestReservedSeq:
    """``reserve_seq`` + ``schedule_reserved``: hold a place in the
    ``(time, priority, seq)`` order now, queue the callback later or never."""

    def test_fires_in_reserved_place_not_in_push_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        seq = sim.reserve_seq()
        sim.schedule(1.0, lambda: fired.append("c"))
        sim.schedule_fire_in(1.0, lambda: fired.append("d"))
        sim.schedule_reserved(1.0, seq, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c", "d"]

    def test_queued_from_a_callback_strictly_before_its_time(self):
        sim = Simulator()
        fired = []
        seq = sim.reserve_seq()
        sim.schedule(2.0, lambda: fired.append("later seq, same instant"))
        sim.schedule(
            1.0, lambda: sim.schedule_reserved(2.0, seq, lambda: fired.append("reserved"))
        )
        sim.run_until(5.0)
        assert fired == ["reserved", "later seq, same instant"]

    def test_time_orders_before_seq(self):
        sim = Simulator()
        fired = []
        seq = sim.reserve_seq()
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.schedule_reserved(2.0, seq, lambda: fired.append("reserved"))
        sim.run()
        assert fired == ["early", "reserved"]

    def test_past_time_refused(self):
        sim = Simulator()
        seq = sim.reserve_seq()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="before current time"):
            sim.schedule_reserved(4.0, seq, lambda: None)
        sim.schedule_reserved(5.0, seq, lambda: None)  # the current instant is not the past
        assert sim.pending == 1

    def test_nan_time_refused(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="NaN"):
            sim.schedule_reserved(float("nan"), sim.reserve_seq(), lambda: None)

    def test_counters(self):
        sim = Simulator()
        never = sim.reserve_seq()
        later = sim.reserve_seq()
        assert never != later
        assert (sim.events_scheduled, sim.pending) == (2, 0)
        sim.schedule_reserved(1.0, later, lambda: None)
        # a seq is counted when issued, not again when queued — and an
        # unused reservation reads like an event pushed and cancelled
        assert (sim.events_scheduled, sim.pending) == (2, 1)
        assert sim.run() == 1
        assert (sim.events_scheduled, sim.events_processed) == (2, 1)


class TestCounters:
    def test_counts(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_scheduled == 3
        assert sim.events_processed == 3

    def test_fire_and_forget_counts_and_orders_like_schedule(self):
        sim = Simulator()
        fired = []
        sim.schedule_fire_in(1.0, lambda: fired.append("low"), priority=10)
        sim.schedule(1.0, lambda: fired.append("b"))
        sim.schedule_fire_in(1.0, lambda: fired.append("c"))
        assert sim.events_scheduled == 3
        sim.run()
        assert fired == ["b", "c", "low"]
        with pytest.raises(ValueError, match=">= 0"):
            sim.schedule_fire_in(-1.0, lambda: None)


@given(
    times=st.lists(
        st.floats(min_value=0, max_value=1e9, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
def test_any_schedule_order_fires_sorted(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.schedule(t, lambda t=t: fired.append(t))
    sim.run()
    assert fired == sorted(times)
    assert sim.events_processed == len(times)


# ---------------------------------------------------------------------------
# run_burst: the service run loop's burst against repeated step()
# ---------------------------------------------------------------------------

_ACTIONS = ("plain", "halt", "spawn", "cancel")


def _build(spec, cancelled):
    """A simulator + halt flag + log from one drawn heap description.

    ``spec`` is a list of ``(time, action, tombstone_able)``; actions raise
    the halt flag, schedule a follow-up event, or cancel a later event.
    Entries in ``cancelled`` are tombstoned up front.
    """
    sim, flag, log = Simulator(), SimpleNamespace(halt=False), []
    events = {}

    def fire(i, action):
        log.append((i, sim.now))
        if action == "halt":
            flag.halt = True
        elif action == "spawn":
            sim.schedule_fire_in(0.5, lambda: log.append((f"spawn{i}", sim.now)))
        elif action == "cancel":
            for j in sorted(events):
                if j > i and not events[j].cancelled:
                    events[j].cancel()
                    break

    for i, (t, action, cancellable) in enumerate(spec):
        cb = lambda i=i, a=action: fire(i, a)
        if cancellable:
            events[i] = sim.schedule(t, cb)
        else:
            sim.schedule_fire_in(t, cb)
    for i in cancelled:
        if i in events:
            events[i].cancel()
    return sim, flag, log


def _stepped_burst(sim, flag) -> int:
    """A burst as repeated ``step()``: the reference for ``run_burst``."""
    count = 0
    while sim.step():
        count += 1
        if flag.halt:
            break
    return count


class TestRunBurst:
    @given(
        spec=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 2.5, 7.0]),
                st.sampled_from(_ACTIONS),
                st.booleans(),
            ),
            max_size=40,
        ),
        cancelled=st.sets(st.integers(0, 39), max_size=15),
    )
    def test_matches_repeated_step(self, spec, cancelled):
        fast, fast_flag, fast_log = _build(spec, cancelled)
        ref, ref_flag, ref_log = _build(spec, cancelled)
        while True:
            fast_flag.halt = ref_flag.halt = False
            n = fast.run_burst(fast_flag)
            assert n == _stepped_burst(ref, ref_flag)
            assert fast_log == ref_log
            assert fast.now == ref.now
            assert fast.events_processed == ref.events_processed
            if n == 0:
                break
            # it stopped right after the halting event, or ran the queue dry
            assert fast_flag.halt or fast.peek_time() == math.inf
        assert fast.pending == ref.pending == 0

    def test_stops_right_after_the_crossing_event(self):
        spec = [(1.0, "plain", True), (2.0, "halt", False), (3.0, "plain", True)]
        sim, flag, log = _build(spec, ())
        assert sim.run_burst(flag) == 2
        assert [i for i, _ in log] == [0, 1] and sim.now == 2.0
        assert sim.pending == 1

    @pytest.mark.parametrize("n_tombstones", [0, 1, 5])
    def test_empty_or_all_tombstone_queue_returns_zero(self, n_tombstones):
        sim, flag, log = _build(
            [(float(i + 1), "halt", True) for i in range(n_tombstones)],
            range(n_tombstones),
        )
        sim.run_until(0.5)
        assert sim.run_burst(flag) == 0
        assert sim.now == 0.5 and sim.events_processed == 0 and not log
        assert not flag.halt


# ---------------------------------------------------------------------------
# Every entry point against a (time, priority, seq) sort oracle
# ---------------------------------------------------------------------------

_OPS = st.one_of(
    st.tuples(
        st.sampled_from(["schedule", "schedule_in", "fire_in", "reserve"]),
        st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        st.integers(-2, 2),
    ),
    st.tuples(st.just("queue_reserved"), st.integers(0, 30), st.just(0)),
    st.tuples(st.just("cancel"), st.integers(0, 30), st.just(0)),
    st.tuples(st.just("run_until"), st.sampled_from([0.0, 0.5, 1.5]), st.just(0)),
)


@given(ops=st.lists(_OPS, max_size=60))
def test_entry_points_fire_in_sort_order(ops):
    """Random interleavings of the five scheduling entry points, ``cancel``
    and partial runs fire exactly in ``(time, priority, seq)`` order.

    The oracle keeps the live entries in a plain dict and, on each run,
    repeatedly takes the smallest one at or before the horizon.  It also
    counts sequence numbers, which ``events_scheduled`` must equal, and
    the clock, which must read the last event fired (or the horizon).
    """
    sim = Simulator()
    fired: list = []
    live: dict[int, tuple] = {}  # seq -> (time, priority, seq)
    events = {}  # seq -> Event, for cancel
    reserved: dict[int, float] = {}  # seq -> intended delay, not yet queued
    expected: list = []
    issued = 0
    now = 0.0

    def drain(horizon: float) -> float | None:
        last = None
        while live:
            head = min(live.values())
            if head[0] > horizon:
                break
            del live[head[2]]
            expected.append(head[2])
            last = head[0]
        return last

    for op, a, prio in ops:
        if op in ("schedule", "schedule_in", "fire_in", "reserve"):
            seq = issued
            cb = functools.partial(fired.append, seq)
            if op == "schedule":
                events[seq] = sim.schedule(now + a, cb, priority=prio)
            elif op == "schedule_in":
                events[seq] = sim.schedule_in(a, cb, priority=prio)
            elif op == "fire_in":
                sim.schedule_fire_in(a, cb, priority=prio)
            else:
                assert sim.reserve_seq() == seq
                reserved[seq] = a
            if op != "reserve":
                live[seq] = (now + a, prio, seq)
            if seq in events:
                assert events[seq].seq == seq
            issued += 1
        elif op == "queue_reserved" and reserved:
            seq = sorted(reserved)[a % len(reserved)]
            time = now + reserved.pop(seq)
            sim.schedule_reserved(time, seq, functools.partial(fired.append, seq))
            live[seq] = (time, 0, seq)
        elif op == "cancel" and events:
            seq = sorted(events)[a % len(events)]
            events.pop(seq).cancel()
            live.pop(seq, None)
        elif op == "run_until":
            horizon = now + a
            sim.run_until(horizon)
            drain(horizon)
            now = horizon
        assert sim.events_scheduled == issued
        assert sim.now == now
        assert fired == expected
    n_before = sim.events_processed
    last = drain(math.inf)
    assert sim.run() == len(expected) - n_before
    assert fired == expected
    assert sim.events_scheduled == issued
    assert sim.now == (now if last is None else last)


# ---------------------------------------------------------------------------
# Refusals: inputs that would break run control or the event order
# ---------------------------------------------------------------------------


def _busy_sim() -> Simulator:
    """A simulator mid-run: one event fired, one queued, one place reserved."""
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run_until(1.0)
    sim.reserve_seq()
    return sim


def _state(sim: Simulator) -> tuple:
    return (sim.pending, sim.now, sim.events_scheduled, sim.events_processed)


_BAD_BUDGETS = [1.5, float("nan"), float("inf"), True, False, "2", -1]
_BAD_PRIORITIES = [float("nan"), "x", True, 1.5, float("inf")]


def _noop() -> None:
    pass



_ENGINE_REFUSALS = (
    [("horizon", lambda sim: sim.run_until(float("nan")))]
    + [
        ("max_events", lambda sim, b=b: sim.run(max_events=b))
        for b in _BAD_BUDGETS
    ]
    + [
        ("max_events", lambda sim, b=b: sim.run_until(5.0, max_events=b))
        for b in _BAD_BUDGETS
    ]
    + [
        ("priority", lambda sim, p=p: sim.schedule(3.0, _noop, priority=p))
        for p in _BAD_PRIORITIES
    ]
    + [
        ("priority", lambda sim, p=p: sim.schedule_in(1.0, _noop, priority=p))
        for p in _BAD_PRIORITIES
    ]
    + [
        ("priority", lambda sim, p=p: sim.schedule_fire_in(1.0, _noop, priority=p))
        for p in _BAD_PRIORITIES
    ]
    + [
        ("seq", lambda sim, s=s: sim.schedule_reserved(3.0, s, _noop))
        for s in (999, 3, -1)
    ]
)


@pytest.mark.parametrize(
    "name,call",
    _ENGINE_REFUSALS,
    ids=[f"{name}-{i}" for i, (name, _) in enumerate(_ENGINE_REFUSALS)],
)
def test_refusal_names_the_parameter_and_moves_nothing(name, call):
    sim = _busy_sim()
    before = _state(sim)
    with pytest.raises(ValueError, match=name):
        call(sim)
    assert _state(sim) == before == (1, 1.0, 3, 1)


def test_legal_edges_of_the_refusals():
    sim = _busy_sim()
    fired = []
    # integral priorities of any sign, an issued seq, and a +inf horizon
    sim.schedule(3.0, lambda: fired.append("late"), priority=-3)
    sim.schedule(3.0, lambda: fired.append("later"), priority=np.int64(2))
    sim.schedule_reserved(3.0, 2, lambda: fired.append("reserved"))
    assert sim.run(max_events=np.int64(1)) == 1
    assert sim.run_until(math.inf) == 3
    assert fired == ["late", "reserved", "later"]
    assert sim.now == math.inf
