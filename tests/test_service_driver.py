"""The service driver's invariant, pinned against a per-event reference.

The production driver (:meth:`ServiceRuntime._drive`) quiesces asyncio
once, then runs one burst in the engine's own loop
(:meth:`~repro.sim.engine.Simulator.run_burst`) until an event crosses
into asyncio (the pulse moves).  That is only sound if *every* such crossing
bumps the pulse.  The oracle here is the obviously-correct driver it
replaced — a full asyncio round trip after every single simulator event —
kept in this file only (it is 2.5x slower per event): on a grid of
workloads x chaos x seeds both must produce the same bytes.

Also here, because they ride on the same seams: the shutdown rule
(``_finished`` precedes teardown, nothing fires after it), dead-worker
supervision, reservation ownership, the O(1) clock/admission structures
against their scan-everything definitions, and the message-inert
fault-plan fast path against the hook forced on.
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import factories
from repro.harness import journal as journal_mod
from repro.harness.chaos import ServiceChaosRule
from repro.harness.presets import PRESETS
from repro.harness.substrates import build_transit_stub_underlay
from repro.service.bus import Pulse
from repro.service.clock import VirtualClock
from repro.service.health import HealthMonitor
from repro.service.runtime import ServiceConfig, ServiceRuntime
from repro.sim.engine import Simulator
from repro.sim.faults import FAULT_PRESETS, FaultPlan
from repro.sim.network import MatrixUnderlay
from repro.sim.session import MulticastSession, SessionConfig
from repro.topology.transit_stub import TransitStubConfig
from repro.util.retry import RetryPolicy
from tests import oracles
from tests.helpers import line_matrix, session_result_bytes

# ---------------------------------------------------------------------------
# the reference driver
# ---------------------------------------------------------------------------


class PerEventRuntime(ServiceRuntime):
    """Reference: yield to asyncio until quiescent before *every* event."""

    async def _drive(self) -> None:
        while not self._finished:
            await self._quiesce()
            if self._finished:
                break
            if self._drain_requested and not self._draining:
                self._begin_drain()
                continue
            if not self.sim.step():
                raise RuntimeError("reference driver stalled")
            self.driver.sim_events += 1


def _underlay(n: int, seed: int = 7) -> MatrixUnderlay:
    rng = np.random.default_rng(seed)
    return MatrixUnderlay(line_matrix(np.sort(rng.uniform(0.0, 100.0, n))) * 2.0)


def _run(cls, cfg: ServiceConfig, plan=(), *, drain_at_s: float | None = None):
    rt = cls(cfg, _underlay(cfg.n_hosts), chaos_plan=plan, journal_outcomes=False)
    if drain_at_s is not None:
        rt.sim.schedule(drain_at_s, rt.request_drain, label="test-drain")
    rt.run()
    return rt


def _assert_same_run(burst: ServiceRuntime, ref: ServiceRuntime) -> None:
    assert burst.metrics_json() == ref.metrics_json()
    assert burst._outcomes == ref._outcomes
    assert burst.sim.events_processed == ref.sim.events_processed
    assert burst.sim.now == ref.sim.now
    assert burst.driver.sim_events == ref.driver.sim_events
    assert burst.env.message_counts == ref.env.message_counts
    assert dict(burst.counters) == dict(ref.counters)


SCENARIOS = {
    "poisson": dict(scenario="poisson", arrival_rate_hz=0.25),
    "diurnal": dict(
        scenario="diurnal", arrival_rate_hz=0.25, diurnal_period_s=150.0
    ),
    "flash": dict(
        scenario="flash", arrival_rate_hz=0.1, join_queue_hwm=3,
        burst_at_s=60.0, burst_rate_hz=3.0, burst_duration_s=20.0,
    ),
}

CHAOS = {
    "none": (),
    "agent-crash": (
        ServiceChaosRule(action="agent-crash", at_s=90.0, node_index=1),
        ServiceChaosRule(action="agent-crash", at_s=140.0, node_index=0),
    ),
    "bus-stall": (
        ServiceChaosRule(action="bus-stall", at_s=70.0, duration_s=35.0),
    ),
    "clock-jump": (
        ServiceChaosRule(action="clock-jump", at_s=75.0),
        ServiceChaosRule(action="clock-jump", at_s=150.0),
    ),
}


#: gives up on a join before the protocol can finish it (abandon path)
IMPATIENT = RetryPolicy(max_attempts=2, backoff_base_s=0.02, backoff_cap_s=0.1)


def _config(scenario: str, seed: int, **overrides) -> ServiceConfig:
    knobs = dict(
        duration_s=240.0, seed=seed, n_hosts=24, hold_s=70.0,
        probe_period_s=2.0,
    )
    knobs.update(SCENARIOS[scenario])
    knobs.update(overrides)
    return ServiceConfig(**knobs)


class TestBurstDriverMatchesPerEventReference:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("chaos", sorted(CHAOS))
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_grid(self, scenario, chaos, seed):
        cfg = _config(scenario, seed)
        burst = _run(ServiceRuntime, cfg, CHAOS[chaos])
        ref = _run(PerEventRuntime, cfg, CHAOS[chaos])
        _assert_same_run(burst, ref)
        assert burst.report()["invariant_violations"] == 0
        # the point of the exercise: far fewer trips through the loop
        assert burst.driver.loop_yields < ref.driver.loop_yields
        assert burst.driver.bursts < burst.driver.sim_events

    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scenario=st.sampled_from(sorted(SCENARIOS)),
        seed=st.integers(0, 10_000),
        workers=st.integers(1, 4),
        hwm=st.integers(1, 6),
        join_timeout_s=st.sampled_from([0.05, 0.5, 8.0]),
        retry=st.sampled_from([IMPATIENT, ServiceConfig().retry]),
        chaos=st.lists(
            st.sampled_from(sorted(CHAOS)), max_size=3, unique=True
        ),
    )
    def test_random_configs(
        self, scenario, seed, workers, hwm, join_timeout_s, retry, chaos
    ):
        # Tight join timeouts force the retry/abandon/late-attach paths;
        # stacked chaos rules overlap stalls, crashes and clock jumps.
        cfg = _config(
            scenario, seed, duration_s=160.0, join_workers=workers,
            join_queue_hwm=hwm, join_timeout_s=join_timeout_s, retry=retry,
        )
        plan = tuple(
            sorted((r for name in chaos for r in CHAOS[name]),
                   key=lambda r: r.at_s)
        )
        _assert_same_run(
            _run(ServiceRuntime, cfg, plan), _run(PerEventRuntime, cfg, plan)
        )

    def test_drained_runs_match_and_resume_round_trips(self, tmp_path):
        cfg = _config("poisson", 11)
        whole = _run(ServiceRuntime, cfg)
        burst = _run(ServiceRuntime, cfg, drain_at_s=120.0)
        ref = _run(PerEventRuntime, cfg, drain_at_s=120.0)
        assert burst.drained and ref.drained
        _assert_same_run(burst, ref)

        def journaled(resume: bool, drain_at_s=None) -> ServiceRuntime:
            with journal_mod.run_context(tmp_path, resume=resume, manifest={}):
                rt = ServiceRuntime(
                    cfg, _underlay(cfg.n_hosts), chaos_plan=(),
                    journal_outcomes=True,
                )
                if drain_at_s is not None:
                    rt.sim.schedule(drain_at_s, rt.request_drain)
                rt.run()
                return rt

        assert journaled(False, drain_at_s=120.0).drained
        resumed = journaled(True)
        assert not resumed.drained
        assert resumed.metrics_json() == whole.metrics_json()

    def test_paced_run_is_the_same_run(self):
        cfg = _config("poisson", 5, duration_s=60.0)
        paced = ServiceRuntime(
            cfg, _underlay(cfg.n_hosts), chaos_plan=(),
            journal_outcomes=False, pace_s=1e-4,
        )
        paced.run()
        _assert_same_run(paced, _run(PerEventRuntime, cfg))


# ---------------------------------------------------------------------------
# shutdown: _finished precedes teardown, nothing fires after it
# ---------------------------------------------------------------------------


class TestHorizon:
    CFG = _config("poisson", 3, duration_s=300.0)

    def _instrumented(self, plan=()):
        rt = ServiceRuntime(
            self.CFG, _underlay(self.CFG.n_hosts), chaos_plan=plan,
            journal_outcomes=False,
        )
        seen = {"bursts": 0}
        finish, run_burst = rt._finish, rt.sim.run_burst

        def spy_finish():
            seen.setdefault("events_at_finish", rt.sim.events_processed)
            finish()

        def spy_burst(pulse):
            assert not rt._finished, "simulator burst ran after _finished"
            seen["bursts"] += 1
            return run_burst(pulse)

        rt._finish, rt.sim.run_burst = spy_finish, spy_burst
        return rt, seen

    @pytest.mark.parametrize("chaos", sorted(CHAOS))
    def test_no_event_fires_once_the_orchestrator_finished(self, chaos):
        rt, seen = self._instrumented(CHAOS[chaos])
        rt.run()
        # the spy saw every burst the driver ran (it is not vacuous) ...
        assert seen["bursts"] == rt.driver.bursts > 0
        # ... and every event the driver fired preceded _finish(); the rest
        # of events_processed is run()'s synchronous tail to the horizon
        assert rt.driver.sim_events == seen["events_at_finish"]

    def test_run_stops_at_the_horizon(self):
        # Every admitted join attached long before the horizon and leaves
        # are pending beyond it: any event the driver fires while the
        # orchestrator tears down (the parent fired two) moves the clock
        # past duration_s.
        rt, _ = self._instrumented()
        rt.run()
        attached = [o["attached_s"] for o in rt._outcomes.values() if o["admitted"]]
        assert attached and max(attached) < self.CFG.duration_s - 1.0
        assert rt.sim.now == self.CFG.duration_s
        assert rt.sim.run_until(self.CFG.duration_s + 200.0) > 2  # the leaves

    def test_driver_counters_are_deterministic_and_off_the_report(self):
        a, b = _run(ServiceRuntime, self.CFG), _run(ServiceRuntime, self.CFG)
        assert a.driver == b.driver
        stats = a.driver.as_dict()
        assert set(stats) == {"sim_events", "bursts", "loop_yields", "longest_burst"}
        assert 1 <= stats["bursts"] <= stats["sim_events"]
        assert stats["longest_burst"] >= stats["sim_events"] / stats["bursts"]
        assert not set(stats) & set(a.report())
        assert a.report()["schema"] == "repro-service-metrics/1"


# ---------------------------------------------------------------------------
# a dead worker fails the run when it dies
# ---------------------------------------------------------------------------


class TestSupervision:
    CFG = _config("poisson", 3, duration_s=300.0, join_workers=3)

    def _runtime_with_bomb(self, attr: str, at_call: int, exc: Exception):
        rt = ServiceRuntime(
            self.CFG, _underlay(self.CFG.n_hosts), chaos_plan=(),
            journal_outcomes=False,
        )
        orig = getattr(rt, attr)
        calls = {"n": 0, "t": None}

        async def bomb(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == at_call:
                calls["t"] = rt.sim.now
                raise exc
            return await orig(*args, **kwargs)

        setattr(rt, attr, bomb)
        return rt, calls

    def test_worker_exception_surfaces_at_once(self):
        rt, calls = self._runtime_with_bomb(
            "_serve_join", 5, ValueError("agent 9 already registered and alive")
        )
        with pytest.raises(ValueError, match="already registered"):
            rt.run()
        # the run ended where the worker died, not at the horizon
        assert calls["t"] < 0.5 * self.CFG.duration_s
        assert rt.sim.now == calls["t"]
        assert rt._finished

    def test_driver_exception_still_surfaces(self):
        rt = ServiceRuntime(
            self.CFG, _underlay(self.CFG.n_hosts), chaos_plan=(),
            journal_outcomes=False,
        )

        def boom():
            raise RuntimeError("handler blew up")

        rt.sim.schedule(42.0, boom)
        with pytest.raises(RuntimeError, match="handler blew up"):
            rt.run()
        assert rt.sim.now == 42.0

    def test_background_task_exception_is_not_swallowed(self):
        rt = ServiceRuntime(
            self.CFG, _underlay(self.CFG.n_hosts),
            chaos_plan=(ServiceChaosRule(action="clock-jump", at_s=50.0),),
            journal_outcomes=False,
        )

        def bad_jump():
            raise OSError("chaos arm failed")

        rt.clock.jump = bad_jump
        with pytest.raises(OSError, match="chaos arm failed"):
            rt.run()
        assert rt.sim.now == 50.0


# ---------------------------------------------------------------------------
# reservation ownership (the 6 Hz poisson crash)
# ---------------------------------------------------------------------------


def _watch_reservations(rt: ServiceRuntime) -> dict:
    """Assert, at every join start, that the host is this arrival's alone."""
    seen = {"served": 0}
    serve = rt._serve_join
    n_pool = len(rt._free)

    async def checked(arrival, node, degree):
        seen["served"] += 1
        assert rt._holder.get(node) == arrival.index, (
            f"host {node} handed to arrival {arrival.index} but held by "
            f"{rt._holder.get(node)}"
        )
        assert not rt.env.is_alive(node)
        assert set(rt._free).isdisjoint(rt._holder)
        assert len(rt._free) + len(rt._holder) == n_pool
        assert rt._free == sorted(rt._free)
        await serve(arrival, node, degree)

    rt._serve_join = checked
    return seen


class TestReservationOwnership:
    def test_late_depart_of_previous_tenant_keeps_the_new_reservation(self):
        """The recorded hazard: on this substrate host 324 was reserved for
        arrival 690 at t=113.854, released at 117.386 by crash detection
        purging the *previous* tenant's late attach, re-reserved for arrival
        724 at 117.917 — and the second join died in ``env.register``."""
        underlay = build_transit_stub_underlay(
            n_hosts=400, seed=35916142, ts_config=PRESETS["paper"].ts_config
        )
        cfg = ServiceConfig(
            scenario="poisson", arrival_rate_hz=6, hold_s=120,
            duration_s=600, n_hosts=400, join_queue_hwm=32, join_workers=4,
            seed=712625747,
        )
        rt = ServiceRuntime(cfg, underlay, chaos_plan=(), journal_outcomes=False)
        seen = _watch_reservations(rt)
        rep = rt.run()  # raised ValueError: agent 324 already registered
        assert rt.sim.now >= cfg.duration_s
        assert rep["invariant_violations"] == 0
        assert len(rt._outcomes) == rep["arrivals"] == len(rt._schedule)
        for outcome in rt._outcomes.values():
            if outcome["admitted"]:
                assert outcome["succeeded"] or outcome["attempts"] > 0
            else:
                assert outcome["reject_reason"] in (
                    "high-water-mark", "no-free-host"
                )
        assert seen["served"] == rep["admitted"] > 1000

    def test_depart_while_holder_is_queued_is_ignored(self):
        cfg = _config("poisson", 1)
        rt = ServiceRuntime(cfg, _underlay(24), chaos_plan=(), journal_outcomes=False)
        node = rt._free.pop(0)
        rt._holder[node] = 7
        rt._queued.add(node)
        rt._on_tree_event("depart", node, None, 1.0)  # a previous tenant's
        assert rt._holder[node] == 7 and node not in rt._free
        rt._queued.discard(node)  # the holder's agent registered
        rt._do_leave(node, 6)  # a previous tenant's stale leave
        assert rt._holder[node] == 7
        rt._on_tree_event("depart", node, None, 2.0)
        assert node not in rt._holder and rt._free[0] == node
        rt._on_tree_event("depart", node, None, 3.0)  # idempotent
        assert rt._free.count(node) == 1

    @pytest.mark.parametrize("chaos", ["none", "agent-crash", "clock-jump"])
    def test_no_host_is_ever_held_twice_under_pressure(self, chaos):
        # few hosts, a wait shorter than a join, one retry: hosts are reused
        # after retried joins, abandoned joins and late-attach leaves alike
        cfg = _config(
            "flash", 9, n_hosts=8, hold_s=25.0, join_queue_hwm=6,
            join_workers=3, join_timeout_s=0.05, retry=IMPATIENT,
        )
        rt = ServiceRuntime(cfg, _underlay(8), chaos_plan=CHAOS[chaos],
                            journal_outcomes=False)
        seen = _watch_reservations(rt)
        rep = rt.run()
        assert seen["served"] == rep["admitted"] > 0
        assert rep["succeeded"] > 0 and rt.counters["late_attach_leaves"] > 0
        assert rep["invariant_violations"] == 0


# ---------------------------------------------------------------------------
# O(1) structures against their scan-everything definitions
# ---------------------------------------------------------------------------


class TestAdmissionPool:
    def test_free_list_is_the_filtered_host_list(self):
        """Same pool, same order as rebuilding it per arrival — so the same
        ``rng.integers(len(pool))`` draw picks the same host."""
        cfg = _config("flash", 4)
        rt = ServiceRuntime(cfg, _underlay(24), chaos_plan=(), journal_outcomes=False)
        hosts = sorted(int(h) for h in rt.underlay.hosts)
        admit = rt._admit
        checks = {"n": 0}

        async def checked(arrival):
            checks["n"] += 1
            assert rt._free == [
                h for h in hosts if h != rt.source and h not in rt._holder
            ]
            await admit(arrival)

        rt._admit = checked
        rep = rt.run()
        assert checks["n"] == rep["arrivals"] > 50
        assert rep["rejected"] > 0  # the overflow path put hosts back


class TestVirtualClockTimers:
    def _clock(self):
        return VirtualClock(Simulator(), Pulse())

    def test_wait_for_disarms_its_timer(self):
        async def go():
            clock = self._clock()
            fut = asyncio.get_running_loop().create_future()
            others = [clock._arm(10.0 + i) for i in range(3)]
            waiter = asyncio.ensure_future(clock.wait_for(fut, 5.0))
            await asyncio.sleep(0)
            assert clock.pending_timers == 4
            fut.set_result("done")
            assert await waiter is True
            # only the wait's own timer went; its sim event is tombstoned
            assert list(clock._timers) == others
            assert clock.sim.run() == 3
            assert all(f.done() for f in others)

        asyncio.run(go())

    def test_timeout_fires_and_forgets(self):
        async def go():
            clock = self._clock()
            fut = asyncio.get_running_loop().create_future()
            waiter = asyncio.ensure_future(clock.wait_for(fut, 5.0))
            await asyncio.sleep(0)
            before = clock.pulse.count
            assert clock.sim.step()
            assert clock.pulse.count == before + 1  # the crossing bumped
            assert await waiter is False
            assert clock.pending_timers == 0 and clock.now == 5.0

        asyncio.run(go())

    def test_timers_are_plain_schedule_in_events(self):
        """The clock's one way into the engine: a timer is a cancellable
        ``schedule_in`` Event — one sequence number each, ordered with
        directly scheduled events by (time, seq), a zero delay firing at
        now, a disarmed timer tombstoned and never counted as run."""

        async def go():
            clock = self._clock()
            sim = clock.sim
            order: list[str] = []
            sim.schedule_in(5.0, lambda: order.append("direct-before"))
            delays = {"t5": 5.0, "gone": 5.0, "zero": 0.0, "t1": 1.0}
            futs = {name: clock._arm(delay) for name, delay in delays.items()}
            sim.schedule_in(5.0, lambda: order.append("direct-after"))
            for name, fut in futs.items():
                fut.add_done_callback(lambda _f, name=name: order.append(name))
            events = list(clock._timers.values())
            assert [type(ev).__name__ for ev in events] == ["Event"] * 4
            assert [(ev.time, ev.seq) for ev in events] == [
                (5.0, 1), (5.0, 2), (0.0, 3), (1.0, 4)
            ]
            assert sim.events_scheduled == 6 and sim.pending == 6
            clock._disarm(futs["gone"])
            assert events[1].cancelled and sim.pending == 6  # lazy tombstone
            fired_at = []
            while sim.step():
                fired_at.append(sim.now)
                await asyncio.sleep(0)  # let done-callbacks run in fire order
            assert fired_at == [0.0, 1.0, 5.0, 5.0, 5.0]
            assert order == ["zero", "t1", "direct-before", "t5", "direct-after"]
            assert sim.events_processed == 5 and not futs["gone"].done()
            assert clock.pending_timers == 0

        asyncio.run(go())

    @pytest.mark.parametrize("delay", [-5.0, -1e-12, float("nan"), "soon"])
    def test_illegal_delays_are_refused_not_clamped(self, delay):
        """``schedule_in`` refuses a negative or NaN delay; the clock used
        to clamp both to a zero-delay timer instead."""

        async def go():
            clock = self._clock()
            before = clock.pulse.count
            with pytest.raises(ValueError, match="delay_s"):
                await clock.sleep(delay)
            with pytest.raises(ValueError, match="delay_s"):
                await clock.wait_for(
                    asyncio.get_running_loop().create_future(), delay
                )
            assert clock.pending_timers == 0 and clock.sim.pending == 0
            assert clock.pulse.count == before

        asyncio.run(go())

    def test_infinite_delay_is_legal(self):
        async def go():
            clock = self._clock()
            fut = asyncio.get_running_loop().create_future()
            waiter = asyncio.ensure_future(clock.wait_for(fut, float("inf")))
            await asyncio.sleep(0)
            assert clock.pending_timers == 1
            assert clock.sim.run_until(1e300) == 0  # the timer never fires
            fut.set_result(None)
            assert await waiter is True and clock.pending_timers == 0

        asyncio.run(go())

    @pytest.mark.parametrize("period", [0.0, -1.0, float("nan")])
    def test_health_period_must_be_positive(self, period):
        clock = self._clock()
        with pytest.raises(ValueError, match="period_s"):
            HealthMonitor(clock, {"ok": lambda: True}, period_s=period)

    def test_jump_fires_in_registration_order(self):
        async def go():
            clock = self._clock()
            order: list[int] = []
            futs = [clock._arm(delay) for delay in (30.0, 10.0, 20.0)]
            for i, fut in enumerate(futs):
                fut.add_done_callback(lambda _f, i=i: order.append(i))
            clock._disarm(futs[1])
            assert clock.jump() == 2
            await asyncio.sleep(0)
            assert order == [0, 2]
            assert clock.pending_timers == 0
            assert clock.sim.run() == 0  # every sim event was cancelled

        asyncio.run(go())


# ---------------------------------------------------------------------------
# message-inert fault plans keep the tuple fast path
# ---------------------------------------------------------------------------

INERT = ["crashy", "domain-outage", "freezer", "none"]


def _fault_session(plan: FaultPlan | None, protocol: str = "vdm"):
    underlay = build_transit_stub_underlay(
        n_hosts=40, seed=7,
        ts_config=TransitStubConfig(
            total_nodes=100, transit_domains=2, transit_nodes_per_domain=3,
            stub_domains_per_transit=2,
        ),
    )
    cfg = SessionConfig(
        n_nodes=14, degree=(2, 4), join_phase_s=300.0, total_s=1200.0,
        slot_s=150.0, settle_s=40.0, churn_rate=0.2, seed=42, faults=plan,
        invariant_mode="raise",
    )
    return MulticastSession(underlay, getattr(factories, protocol)(), cfg)


class TestMessageInertPlans:
    def test_predicate_partitions_the_presets(self):
        inert = sorted(
            name for name, plan in FAULT_PRESETS.items()
            if not plan.touches_messages()
        )
        assert inert == INERT
        for plan in FAULT_PRESETS.values():
            if plan.is_noop():
                assert not plan.touches_messages()
        # a burst window without a loss rate touches nothing
        assert not FaultPlan(burst_at_s=10.0).touches_messages()
        assert FaultPlan(burst_at_s=10.0, burst_loss_rate=0.1).touches_messages()

    @pytest.mark.parametrize("name", sorted(FAULT_PRESETS))
    def test_hook_installed_only_when_the_plan_can_touch_a_message(self, name):
        plan = FAULT_PRESETS[name]
        session = _fault_session(plan)
        env = session.env
        if plan.is_noop():
            assert env.faults is None and env.message_faults is None
        elif plan.touches_messages():
            assert env.faults is env.message_faults is session._injector
        else:
            assert env.faults is session._injector
            assert env.message_faults is None

    @pytest.mark.parametrize("protocol", ["vdm", "hmtp"])
    @pytest.mark.parametrize("name", [n for n in INERT if n != "none"])
    def test_inert_plan_is_byte_identical_with_the_hook_forced_on(
        self, name, protocol
    ):
        plan = dataclasses.replace(FAULT_PRESETS[name], active_until_s=900.0)
        if plan.domain_outage_at_s is not None:
            plan = dataclasses.replace(plan, domain_outage_at_s=500.0)
        fast = _fault_session(plan, protocol)
        slow = _fault_session(plan, protocol)
        # every leg through the hook: the injector publishes no windows
        # for an inert plan, so hide that it publishes any at all
        slow.env.message_faults = oracles.NoWindows(slow._injector)
        fast_result, slow_result = fast.run(), slow.run()
        assert sum(fast_result.fault_counts.values()) > 0, "plan did nothing"
        assert session_result_bytes(fast_result) == session_result_bytes(slow_result)

    def test_service_noop_plan_rides_the_fast_path(self):
        cfg = _config("poisson", 2)
        fast = ServiceRuntime(cfg, _underlay(24), chaos_plan=CHAOS["agent-crash"],
                              journal_outcomes=False)
        assert fast.env.faults is fast.injector
        assert fast.env.message_faults is None
        slow = ServiceRuntime(cfg, _underlay(24), chaos_plan=CHAOS["agent-crash"],
                              journal_outcomes=False)
        slow.env.message_faults = oracles.NoWindows(slow.injector)
        fast.run()
        slow.run()
        _assert_same_run(fast, slow)
