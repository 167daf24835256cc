"""Fault cost follows the fault schedule — and nothing else changes.

A message-touching fault plan no longer puts the whole session on the
eager per-leg path: the injector publishes the closed virtual-time
windows in which it can touch a leg, the runtime hands it only the legs
that fall inside one, the injector reads its message stream through a
block buffer, and the join sites hand agents a stream's key path instead
of a built generator.  Every test here states one of those as an
identity against the wiring it replaced: the same injector with its
windows hidden (``oracles.NoWindows``: every leg through the hook), a
fresh draw per call, a generator built at the join site.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import factories
from repro.core.vdm import VDMConfig
from repro.harness.substrates import build_transit_stub_underlay
from repro.protocols.base import OverlayAgent, ProtocolRuntime
from repro.protocols.messages import ChildRemove, InfoRequest
from repro.sim import session as session_mod
from repro.sim.engine import Simulator
from repro.sim.faults import FAULT_PRESETS, FaultInjector, FaultPlan
from repro.sim.network import MatrixUnderlay
from repro.sim.session import MulticastSession, SessionConfig
from repro.topology.transit_stub import TransitStubConfig
from repro.util.rngtools import rng_from_seed, spawn_rng
from tests import oracles
from tests.helpers import line_matrix, session_result_bytes

INF = float("inf")


# ---------------------------------------------------------------------------
# the window list is a function of the plan
# ---------------------------------------------------------------------------


class TestMessageWindows:
    @pytest.mark.parametrize(
        ("plan", "windows"),
        [
            (FaultPlan(), ()),
            (FaultPlan(crash_fraction=0.5, freeze_rate=0.3), ()),
            (FaultPlan(drop_rate=0.1), ((0.0, INF),)),
            (FaultPlan(jitter_ms=5.0, active_until_s=900.0), ((0.0, 900.0),)),
            (
                FaultPlan(partition_domains=(1,), partition_at_s=700.0,
                          partition_heal_s=1000.0),
                ((700.0, 1000.0),),
            ),
            (
                FaultPlan(burst_at_s=600.0, burst_duration_s=120.0,
                          burst_loss_rate=0.6),
                ((600.0, 720.0),),
            ),
            # a burst window without a loss rate touches nothing
            (FaultPlan(burst_at_s=600.0), ()),
            # the plan going inactive cuts a burst short ...
            (
                FaultPlan(burst_at_s=600.0, burst_duration_s=120.0,
                          burst_loss_rate=0.6, active_until_s=650.0),
                ((600.0, 650.0),),
            ),
            # ... or away altogether, but never a partition
            (
                FaultPlan(burst_at_s=600.0, burst_loss_rate=0.6,
                          active_until_s=500.0, partition_domains=(1,),
                          partition_at_s=700.0, partition_heal_s=800.0),
                ((700.0, 800.0),),
            ),
            # disjoint windows stay apart, sorted
            (
                FaultPlan(burst_at_s=900.0, burst_duration_s=10.0,
                          burst_loss_rate=0.6, partition_domains=(1,),
                          partition_at_s=100.0, partition_heal_s=200.0),
                ((100.0, 200.0), (900.0, 910.0)),
            ),
            # overlapping and touching windows merge
            (
                FaultPlan(burst_at_s=150.0, burst_duration_s=100.0,
                          burst_loss_rate=0.6, partition_domains=(1,),
                          partition_at_s=100.0, partition_heal_s=200.0),
                ((100.0, 250.0),),
            ),
            (
                FaultPlan(burst_at_s=200.0, burst_duration_s=50.0,
                          burst_loss_rate=0.6, partition_domains=(1,),
                          partition_at_s=100.0, partition_heal_s=200.0),
                ((100.0, 250.0),),
            ),
            (
                FaultPlan(reply_loss_rate=0.1, active_until_s=150.0,
                          partition_domains=(1,), partition_at_s=100.0,
                          partition_heal_s=200.0),
                ((0.0, 200.0),),
            ),
        ],
    )
    def test_derivation(self, plan, windows):
        assert plan.message_windows() == windows
        assert plan.touches_messages() == bool(windows)

    def test_presets(self):
        loud = {"lossy", "jittery", "reply-loss", "chaos"}
        for name, plan in FAULT_PRESETS.items():
            windows = plan.message_windows()
            if name in loud:
                assert windows == ((0.0, INF),)
            elif name in ("partition", "burst-loss"):
                assert len(windows) == 1 and 0.0 < windows[0][0] < windows[0][1] < INF
            else:
                assert windows == ()

    def test_injector_publishes_its_plans_windows(self):
        plan = FaultPlan(drop_rate=0.1, active_until_s=3.0)
        sim, env, injector = _rig(plan)
        assert injector.message_windows == plan.message_windows()
        assert env.message_faults is injector

    def test_hook_installed_mid_run_starts_at_the_current_window(self):
        """The cursor is derived from the clock at assignment, not from 0."""
        sim, env, _ = _rig(FaultPlan())
        sim.run_until(5.0)
        calls = []

        class Hook:
            message_windows = ((1.0, 2.0), (6.0, 7.0))

            def delivery_delays(self, src, dst, msg, delay, *, leg):
                calls.append(sim.now)
                return (delay,)

        env.message_faults = Hook()
        for at in (5.5, 6.5, 7.5):
            sim.schedule(at, lambda: env.tell(0, 1, ChildRemove()))
        sim.run()
        assert calls == [6.5]
        env.message_faults = None
        env.tell(0, 1, ChildRemove())
        assert calls == [6.5]


# ---------------------------------------------------------------------------
# (a) random plan x random schedule: windowed == every leg through the hook
# ---------------------------------------------------------------------------


class _TwoSides(MatrixUnderlay):
    """Hosts on a line, alternating between two transit domains."""

    def host_domain(self, host):
        self.validate_host(host)
        return host % 2


# One-way delays of 12.5 .. 200 ms on a 12.5 ms grid that the schedule and
# the plan's window bounds share, against a 100 ms timeout: legs land on
# boundaries, inside, outside and across windows.
_TICK = 0.0125
_POSITIONS = [0.0, 25.0, 50.0, 100.0, 200.0, 400.0]


class _LoggingAgent(OverlayAgent):
    """Logs every delivery it is handed: (time, events fired, kind, from, to)."""

    def __init__(self, node_id, env, log):
        super().__init__(node_id, env)
        self._log = log

    def _note(self, kind, sender):
        sim = self.env.sim
        self._log.append((sim.now, sim.events_processed, kind, sender, self.node_id))

    def handle_tell(self, sender, msg):
        self._note("tell", sender)
        super().handle_tell(sender, msg)

    def handle_request(self, sender, msg):
        self._note("req", sender)
        return super().handle_request(sender, msg)


def _rig(plan, positions=_POSITIONS, *, timeout_ms=100.0, log=None, sim=None):
    """A runtime over two domains with ``plan``'s injector installed."""
    sim = sim or Simulator()
    env = ProtocolRuntime(
        sim, _TwoSides(line_matrix(positions)), source=0, timeout_ms=timeout_ms
    )
    injector = FaultInjector(plan, env)
    log = [] if log is None else log
    for node in range(len(positions)):
        env.register(_LoggingAgent(node, env, log))
    return sim, env, injector


def _run_and_observe(sim, env, injector, log):
    """Step the simulator to exhaustion; everything a path could change."""
    fired = []
    while True:
        sim._drop_cancelled()
        if not sim._queue:
            break
        fired.append(sim._queue[0][:3])  # (time, priority, seq)
        sim.step()
    return (
        log,
        fired,
        sim.now,
        sim.events_processed,
        sim.events_scheduled,
        dict(env.message_counts),
        list(injector.log),
        dict(injector.counts),
        # doubles consumed from the message stream: whole blocks drawn,
        # less what is left of the last one
        injector._rng_msg.bit_generator.state,
        len(injector._msg_buf) - injector._msg_pos,
    )


def _apply(sim, env, log, index, kind, a, b):
    if kind == "request":
        env.request(
            a,
            b,
            InfoRequest(),
            lambda reply: log.append((sim.now, sim.events_processed, index, "reply")),
            lambda: log.append((sim.now, sim.events_processed, index, "TO")),
        )
    elif kind == "tell":
        env.tell(a, b, ChildRemove())  # inert at a childless agent
    elif kind == "kill":
        env.mark_dead(a)
    elif kind == "freeze":
        env.freeze(a)
    elif kind == "thaw":
        env.thaw(a)
    elif not env.is_alive(a):
        env.register(_LoggingAgent(a, env, log))


def _drive(plan, ops, *, windowed):
    log = []
    sim, env, injector = _rig(plan, log=log)
    if not windowed:
        env.message_faults = oracles.NoWindows(injector)
    n = len(_POSITIONS)
    for index, (at, kind, a, b) in enumerate(ops):
        if a == b and kind in ("request", "tell"):
            b = (a + 1) % n
        sim.schedule(
            at,
            lambda index=index, kind=kind, a=a, b=b: _apply(
                sim, env, log, index, kind, a, b
            ),
        )
    return _run_and_observe(sim, env, injector, log)


_SPANS = st.tuples(st.integers(0, 40), st.integers(1, 12)).map(
    lambda span: (span[0] * _TICK, span[1] * _TICK)
)


@st.composite
def _plans(draw):
    knobs = {
        "seed": draw(st.integers(0, 2**16)),
        "drop_rate": draw(st.sampled_from([0.0, 0.0, 0.3])),
        "duplicate_rate": draw(st.sampled_from([0.0, 0.0, 0.3])),
        "jitter_ms": draw(st.sampled_from([0.0, 0.0, 30.0])),
        "reply_loss_rate": draw(st.sampled_from([0.0, 0.0, 0.3])),
    }
    if draw(st.booleans()):
        at, length = draw(_SPANS)
        knobs.update(
            partition_domains=(1,), partition_at_s=at, partition_heal_s=at + length
        )
    if draw(st.booleans()):
        at, length = draw(_SPANS)
        knobs.update(burst_at_s=at, burst_duration_s=length, burst_loss_rate=0.5)
    if draw(st.booleans()):
        knobs["active_until_s"] = draw(st.integers(0, 40)) * _TICK
    return FaultPlan(name="fuzz", **knobs)


_OPS = st.lists(
    st.tuples(
        st.integers(0, 40).map(lambda k: k * _TICK),
        st.sampled_from(
            ["request", "request", "tell", "tell", "kill", "freeze", "thaw", "register"]
        ),
        st.integers(0, 5),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(plan=_plans(), ops=_OPS)
def test_random_plans_and_schedules_agree_windowed_and_unwindowed(plan, ops):
    assert _drive(plan, ops, windowed=True) == _drive(plan, ops, windowed=False)


# ---------------------------------------------------------------------------
# (b) a leg evaluated exactly on a window bound goes through the hook
# ---------------------------------------------------------------------------

# Hosts 0 and 1 are 1000 ms apart (one-way 0.5 s) on opposite sides of
# the partition; every time below is a dyadic rational, so ``now + delay``
# is exact and "on the bound" means bit-equal to it.
_FAR = [0.0, 1000.0]
_EPS = 2.0**-40

_PARTITION = FaultPlan(partition_domains=(1,), partition_at_s=2.0, partition_heal_s=4.0)
_BURST = FaultPlan(burst_at_s=2.0, burst_duration_s=2.0, burst_loss_rate=0.5)
_BOUNDS = {
    "partition_at_s": (_PARTITION, 2.0, "opens"),
    "partition_heal_s": (_PARTITION, 4.0, "closes"),
    "burst_at_s": (_BURST, 2.0, "opens"),
    "burst-end": (_BURST, 4.0, "closes"),
    "active_until_s": (FaultPlan(drop_rate=0.3, active_until_s=4.0), 4.0, "closes"),
    "burst-cut-by-active_until_s": (
        dataclasses.replace(_BURST, burst_duration_s=10.0, active_until_s=4.0),
        4.0,
        "closes",
    ),
}


def _one_exchange(plan, leg, at, *, windowed, op_first):
    """One tell or request from host 0 to host 1 at ``at``; returns the
    hook's calls as (instant, leg) and the run's observation."""
    log = []
    sim = Simulator()

    def send():
        _apply(sim, env, log, 0, "tell" if leg == "tell" else "request", 0, 1)

    if op_first:
        # Scheduled before the injector exists, the exchange holds a lower
        # sequence number than the partition / heal events and fires
        # before them when they share an instant; otherwise after.
        sim.schedule(at, send)
    _, env, injector = _rig(plan, _FAR, timeout_ms=3000.0, log=log, sim=sim)
    if not op_first:
        sim.schedule(at, send)
    calls = []
    inner = injector.delivery_delays

    def counting(src, dst, msg, delay, *, leg):
        calls.append((sim.now, leg))
        return inner(src, dst, msg, delay, leg=leg)

    injector.delivery_delays = counting
    if not windowed:
        env.message_faults = oracles.NoWindows(injector)
    return calls, _run_and_observe(sim, env, injector, log)


@pytest.mark.parametrize("op_first", [False, True], ids=["fault-first", "op-first"])
@pytest.mark.parametrize("leg", ["tell", "request", "reply"])
@pytest.mark.parametrize("bound", sorted(_BOUNDS))
def test_leg_exactly_on_a_window_bound(bound, leg, op_first):
    plan, instant, edge = _BOUNDS[bound]
    # the reply leg is evaluated one one-way delay after the send
    at = instant - 0.5 if leg == "reply" else instant
    calls, seen = _one_exchange(plan, leg, at, windowed=True, op_first=op_first)
    assert calls[0] == (at, "tell" if leg == "tell" else "request")
    if leg == "reply" and edge == "opens":
        # the request leg itself was quiet: only the reply's instant,
        # bit-equal to the bound, put this exchange in the hook's hands
        assert calls == [(at, "request"), (instant, "reply")]
    _, ref = _one_exchange(plan, leg, at, windowed=False, op_first=op_first)
    assert seen == ref

    # One step clear of the window the hook is not asked at all.  (A
    # request just before a window opens has its reply inside, a reply
    # just past the close belongs to a request inside: still the hook's.)
    if (leg, edge) in (("request", "opens"), ("reply", "closes")):
        return
    clear = at - _EPS if edge == "opens" else at + _EPS
    calls, seen = _one_exchange(plan, leg, clear, windowed=True, op_first=op_first)
    assert calls == []
    unwindowed_calls, ref = _one_exchange(
        plan, leg, clear, windowed=False, op_first=op_first
    )
    assert unwindowed_calls and seen == ref


def test_request_whose_reply_leg_crosses_into_a_window_goes_eager():
    """Request leg quiet, reply leg inside: the whole exchange is eager,
    so the reply can be lost and the timeout it would have beaten fires."""
    plan = FaultPlan(burst_at_s=2.0, burst_duration_s=1.0, burst_loss_rate=1.0)
    calls, seen = _one_exchange(plan, "request", 1.75, windowed=True, op_first=False)
    assert calls == [(1.75, "request"), (2.25, "reply")]
    log = seen[0]
    assert [entry[-1] for entry in log] == [1, "TO"]  # delivered, reply burst-dropped
    assert seen == _one_exchange(
        plan, "request", 1.75, windowed=False, op_first=False
    )[1]


# ---------------------------------------------------------------------------
# (c) the block buffer is invisible
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    jitter_ms=st.floats(1e-3, 1e4),
    draws=st.lists(st.booleans(), min_size=1, max_size=700),
)
def test_buffered_message_stream_equals_a_fresh_draw_per_call(seed, jitter_ms, draws):
    """Every value the injector reads from its 256-double blocks is, bit
    for bit, what per-call ``random()`` / ``uniform(0, jitter_ms)`` draws
    from an identically seeded generator yield — in any interleaving,
    across refills."""
    _, _, injector = _rig(FaultPlan(seed=seed, jitter_ms=jitter_ms))
    rng = spawn_rng(seed, "faults", "msg")
    for jitter in draws:
        if jitter:
            assert injector._jitter() == float(rng.uniform(0.0, jitter_ms)) / 1000.0
        else:
            assert injector._draw() == rng.random()


# ---------------------------------------------------------------------------
# (d) deferred agent generators
# ---------------------------------------------------------------------------


def test_deferred_stream_equals_the_eagerly_spawned_one():
    path = (5, "agent", 3, 17)
    eager = spawn_rng(*path)
    _, env, _ = _rig(FaultPlan())
    agent = OverlayAgent(1, env, rng=partial(spawn_rng, *path))
    assert not isinstance(agent._rng, np.random.Generator)  # not built yet
    rng = agent.rng
    assert isinstance(rng, np.random.Generator) and agent.rng is rng  # built once
    assert [rng.random() for _ in range(16)] == [eager.random() for _ in range(16)]
    # the other things an agent may be handed still work
    assert rng_from_seed(rng) is rng
    assert OverlayAgent(1, env, rng=7).rng.random() == np.random.default_rng(7).random()


@lru_cache(maxsize=None)
def _small_underlay():
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


def _session(factory, faults=None):
    cfg = SessionConfig(
        n_nodes=12,
        degree=(2, 4),
        join_phase_s=400.0,
        total_s=1600.0,
        slot_s=200.0,
        settle_s=50.0,
        churn_rate=0.15,
        seed=42,
        faults=faults,
        invariant_mode="raise",
    )
    return MulticastSession(_small_underlay(), factory, cfg)


def _built_at_the_join_site(factory):
    """The wiring deferral replaced: the agent is handed a generator."""

    def make(node_id, env, *, degree_limit, rng=None):
        return factory(node_id, env, degree_limit=degree_limit, rng=rng_from_seed(rng))

    return make


@pytest.fixture
def spawned(monkeypatch):
    """Key paths of every stream the session module builds."""
    paths = []

    def counting_spawn(seed, *keys):
        paths.append(keys)
        return spawn_rng(seed, *keys)

    monkeypatch.setattr(session_mod, "spawn_rng", counting_spawn)
    return paths


@pytest.mark.parametrize(
    "factory",
    [
        pytest.param(
            lambda: factories.vdm(VDMConfig(case3_selection="random")), id="vdm-random"
        ),
        pytest.param(factories.hmtp, id="hmtp"),
    ],
)
def test_sessions_that_draw_keep_their_records(factory, spawned):
    deferred = _session(factory()).run()
    drawn = [keys for keys in spawned if keys[0] == "agent"]
    assert drawn, "no agent ever drew: the comparison below would be vacuous"
    del spawned[:]
    eager = _session(_built_at_the_join_site(factory())).run()
    assert len(drawn) < len([keys for keys in spawned if keys[0] == "agent"])
    assert session_result_bytes(deferred) == session_result_bytes(eager)


def test_default_vdm_session_builds_no_agent_generator(spawned):
    result = _session(factories.vdm()).run()
    assert sum(r.kind == "join" for r in result.join_records) >= 12
    assert {keys[0] for keys in spawned} == {"membership", "degrees", "noise"}


# ---------------------------------------------------------------------------
# (e) reduced conformance grid: whole sessions, windowed vs every leg hooked
# ---------------------------------------------------------------------------

_GRID_PLANS = {
    "partition": FAULT_PRESETS["partition"],
    "burst-loss": FAULT_PRESETS["burst-loss"],
    "chaos": FAULT_PRESETS["chaos"],
    # always-on rates that stop mid-run: one window, closed at 700 s
    "lossy-until-700": dataclasses.replace(
        FAULT_PRESETS["lossy"], duplicate_rate=0.05, jitter_ms=80.0,
        active_until_s=700.0,
    ),
}


@pytest.mark.parametrize("plan_name", sorted(_GRID_PLANS))
@pytest.mark.parametrize("protocol", ["vdm", "hmtp", "btp", "mst"])
def test_sessions_identical_windowed_vs_every_leg_hooked(protocol, plan_name, monkeypatch):
    plan = _GRID_PLANS[plan_name]
    hooked = []
    inner = FaultInjector.delivery_delays

    def counting(self, *args, **kwargs):
        hooked[-1] += 1
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(FaultInjector, "delivery_delays", counting)

    hooked.append(0)
    windowed = _session(getattr(factories, protocol)(), plan).run()
    hooked.append(0)
    session = _session(getattr(factories, protocol)(), plan)
    session.env.message_faults = oracles.NoWindows(session._injector)
    unwindowed = session.run()

    assert sum(windowed.fault_counts.values()) > 0, "plan did nothing"
    assert session_result_bytes(windowed) == session_result_bytes(unwindowed)
    if plan_name == "chaos":
        assert hooked[0] == hooked[1]  # one window, never closed
    else:
        assert 0 < hooked[0] < hooked[1]
