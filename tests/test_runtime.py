"""Tests for the ProtocolRuntime message layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.protocols.base import OverlayAgent, ProtocolRuntime
from repro.protocols.messages import ChildRemove, InfoRequest, InfoResponse
from repro.sim.engine import Simulator
from repro.sim.network import MatrixUnderlay

from tests import oracles
from tests.helpers import line_matrix


@pytest.fixture
def setup():
    ul = MatrixUnderlay(line_matrix([0.0, 10.0, 20.0]))
    sim = Simulator()
    env = ProtocolRuntime(sim, ul, source=0, timeout_ms=1000.0)
    agents = {i: OverlayAgent(i, env) for i in range(3)}
    for a in agents.values():
        env.register(a)
    return sim, env, agents


class TestRequestResponse:
    def test_reply_arrives_after_rtt(self, setup):
        sim, env, agents = setup
        replies = []
        env.request(0, 1, InfoRequest(), replies.append, lambda: replies.append("TO"))
        sim.run()
        assert len(replies) == 1
        assert isinstance(replies[0], InfoResponse)
        # one-way delay is rtt/2 = 5 ms; request + reply = 10 ms = 0.01 s;
        # the cancelled timeout event must not advance the clock.
        assert sim.now == pytest.approx(0.01)

    def test_reply_timing(self, setup):
        sim, env, agents = setup
        seen_at = []
        env.request(0, 1, InfoRequest(), lambda r: seen_at.append(sim.now), lambda: None)
        sim.run_until(0.02)
        assert seen_at == [pytest.approx(0.01)]

    def test_timeout_on_dead_target(self, setup):
        sim, env, agents = setup
        outcome = []
        env.mark_dead(1)
        env.request(0, 1, InfoRequest(), outcome.append, lambda: outcome.append("TO"))
        sim.run()
        assert outcome == ["TO"]
        assert sim.now == pytest.approx(1.0)

    def test_timeout_when_target_dies_in_flight(self, setup):
        sim, env, agents = setup
        outcome = []
        env.request(0, 1, InfoRequest(), outcome.append, lambda: outcome.append("TO"))
        # Kill the target before the request lands (delivery at 5 ms).
        sim.schedule(0.001, lambda: env.mark_dead(1))
        sim.run()
        assert outcome == ["TO"]

    def test_no_reply_to_dead_requester(self, setup):
        sim, env, agents = setup
        outcome = []
        env.request(0, 1, InfoRequest(), outcome.append, lambda: outcome.append("TO"))
        sim.schedule(0.006, lambda: env.mark_dead(0))  # after delivery, before reply
        sim.run()
        assert outcome == []  # neither reply nor timeout for a dead node

    def test_messages_counted(self, setup):
        sim, env, agents = setup
        env.request(0, 1, InfoRequest(), lambda r: None, lambda: None)
        sim.run()
        assert env.message_counts["InfoRequest"] == 1
        assert env.message_counts["InfoResponse"] == 1
        assert env.total_control_messages == 2

    def test_request_to_dead_still_counted(self, setup):
        sim, env, agents = setup
        env.mark_dead(1)
        env.request(0, 1, InfoRequest(), lambda r: None, lambda: None)
        sim.run()
        assert env.message_counts["InfoRequest"] == 1
        assert env.message_counts.get("InfoResponse", 0) == 0


# ---------------------------------------------------------------------------
# the request contract, on the lazily queued timeout and on its oracle
# ---------------------------------------------------------------------------


def _runtime(positions, *, fast: bool, timeout_ms: float = 1000.0):
    """A runtime on the message-inert fast path (request timeouts queued
    only once certain to fire) or, with ``IdentityLegs`` installed as its
    message hook, on the oracle (a cancellable timeout queued eagerly per
    request, every leg an ``Event``)."""
    sim = Simulator()
    env = ProtocolRuntime(
        sim, MatrixUnderlay(line_matrix(positions)), source=0, timeout_ms=timeout_ms
    )
    if not fast:
        env.message_faults = oracles.IdentityLegs()
    for i in range(len(positions)):
        env.register(OverlayAgent(i, env))
    return sim, env


def _observed(sim, env, log):
    return (
        log,
        sim.now,
        sim.events_processed,
        sim.events_scheduled,
        dict(env.message_counts),
    )


def _logging_request(sim, env, log, src, dst):
    env.request(
        src,
        dst,
        InfoRequest(),
        lambda reply: log.append((sim.now, type(reply).__name__)),
        lambda: log.append((sim.now, "TO")),
    )


@pytest.mark.parametrize("fast", [True, False], ids=["lazy", "oracle"])
class TestRequestContract:
    """Each case pins the callback log, the clock and every counter to the
    same literal values on both paths: one-way delay is half the line
    distance in ms, the timeout is 1 s."""

    def test_frozen_target_times_out(self, fast):
        sim, env = _runtime([0.0, 10.0], fast=fast)
        log = []
        env.freeze(1)
        _logging_request(sim, env, log, 0, 1)
        sim.run()
        assert _observed(sim, env, log) == (
            [(1.0, "TO")],
            1.0,
            2,  # the discarded request leg, the timeout
            2,
            {"InfoRequest": 1},
        )

    def test_requester_frozen_when_reply_lands_then_thawed(self, fast):
        sim, env = _runtime([0.0, 10.0], fast=fast)
        log = []
        _logging_request(sim, env, log, 0, 1)
        sim.schedule(0.006, lambda: env.freeze(0))  # request in, reply in flight
        sim.schedule(0.5, lambda: env.thaw(0))
        sim.run()
        # The reply was discarded at a frozen requester; the thawed
        # requester's own timer still fires.
        assert _observed(sim, env, log) == (
            [(1.0, "TO")],
            1.0,
            5,  # both legs, freeze, thaw, the timeout
            5,
            {"InfoRequest": 1, "InfoResponse": 1},
        )

    def test_requester_dead_when_reply_lands_then_reregistered(self, fast):
        sim, env = _runtime([0.0, 10.0], fast=fast)
        log = []
        _logging_request(sim, env, log, 0, 1)
        sim.schedule(0.006, lambda: env.mark_dead(0))
        sim.schedule(0.5, lambda: env.register(OverlayAgent(0, env)))
        sim.run()
        assert _observed(sim, env, log) == (
            [(1.0, "TO")],
            1.0,
            5,
            5,
            {"InfoRequest": 1, "InfoResponse": 1},
        )

    def test_handler_returning_none_times_out(self, fast):
        sim, env = _runtime([0.0, 10.0], fast=fast)
        log = []
        env.agents[1].handle_request = lambda sender, msg: None
        _logging_request(sim, env, log, 0, 1)
        sim.run()
        assert _observed(sim, env, log) == (
            [(1.0, "TO")],
            1.0,
            2,
            2,
            {"InfoRequest": 1},
        )

    def test_round_trip_equal_to_timeout_fires_timeout_then_reply(self, fast):
        sim, env = _runtime([0.0, 1000.0], fast=fast)  # 2 * 0.5 s == 1 s
        log = []
        _logging_request(sim, env, log, 0, 1)
        sim.run()
        assert _observed(sim, env, log) == (
            [(1.0, "TO"), (1.0, "InfoResponse")],
            1.0,
            3,
            3,
            {"InfoRequest": 1, "InfoResponse": 1},
        )

    def test_round_trip_longer_than_timeout_still_delivers_late_reply(self, fast):
        sim, env = _runtime([0.0, 1500.0], fast=fast)  # 2 * 0.75 s > 1 s
        log = []
        _logging_request(sim, env, log, 0, 1)
        sim.run()
        assert _observed(sim, env, log) == (
            [(1.0, "TO"), (1.5, "InfoResponse")],
            1.5,
            3,
            3,
            {"InfoRequest": 1, "InfoResponse": 1},
        )

    def test_round_trip_rounded_up_to_the_deadline_counts_as_a_tie(self, fast):
        # 2 * delay < timeout on paper, but from t0 = 0.7 the engine stamps
        # the reply (t0 + d) + d == t0 + 1.0 in floats: timeout first.
        sim, env = _runtime([0.0, 999.9999999999999], fast=fast)
        delay = env.underlay.delay_ms(0, 1) / 1000.0
        assert 2 * delay < 1.0 and (0.7 + delay) + delay == 0.7 + 1.0
        log = []
        sim.schedule(0.7, lambda: _logging_request(sim, env, log, 0, 1))
        sim.run()
        assert _observed(sim, env, log) == (
            [(1.7, "TO"), (1.7, "InfoResponse")],
            1.7,
            4,
            4,
            {"InfoRequest": 1, "InfoResponse": 1},
        )

    def test_one_way_longer_than_timeout_to_a_target_that_then_dies(self, fast):
        sim, env = _runtime([0.0, 2400.0], fast=fast)  # arrives at 1.2 s
        log = []
        _logging_request(sim, env, log, 0, 1)
        sim.schedule(1.1, lambda: env.mark_dead(1))
        sim.run()
        assert _observed(sim, env, log) == (
            [(1.0, "TO")],
            1.2,
            3,
            3,
            {"InfoRequest": 1},
        )

    def test_timeout_fires_in_its_reserved_place(self, fast):
        sim, env = _runtime([0.0, 10.0], fast=fast)
        log = []
        env.freeze(1)
        sim.schedule(1.0, lambda: log.append("before"))
        _logging_request(sim, env, log, 0, 1)
        sim.schedule(1.0, lambda: log.append("after"))
        # Scheduled once the request leg has landed (5 ms), i.e. after the
        # lazy path put the timeout on the heap.
        sim.schedule(0.5, lambda: sim.schedule(1.0, lambda: log.append("last")))
        sim.run()
        assert _observed(sim, env, log) == (
            ["before", (1.0, "TO"), "after", "last"],
            1.0,
            6,
            6,
            {"InfoRequest": 1},
        )


def test_completed_exchange_queues_no_timeout():
    """Fault-free fast path: an exchange that completes never puts its
    timeout on the heap — one entry at a time, the leg in flight — yet the
    reserved sequence number is counted as issued."""
    sim, env = _runtime([0.0, 10.0], fast=True)
    replies = []
    depths = []
    env.request(0, 1, InfoRequest(), replies.append, lambda: replies.append("TO"))
    depths.append(sim.pending)
    while sim.step():
        depths.append(sim.pending)
    assert [type(r) for r in replies] == [InfoResponse]
    assert depths == [1, 1, 0]
    assert sim.events_scheduled == 3  # the reserved seq + two legs
    assert sim.events_processed == 2
    assert sim.now == pytest.approx(0.01)


# Delays of 5..200 ms against a 100 ms timeout: round trips shorter than,
# equal to (0 <-> 4: 2 * 50 ms) and longer than the timeout all occur, and
# so do one-way delays past it.
_FUZZ_POSITIONS = [0.0, 10.0, 30.0, 60.0, 100.0, 400.0]
_FUZZ_OPS = st.lists(
    st.tuples(
        st.integers(0, 40).map(lambda k: k * 0.0125),  # collides with legs and deadlines
        st.sampled_from(["request", "request", "tell", "kill", "freeze", "thaw", "register"]),
        st.integers(0, 5),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=30,
)


def _drive(fast, n_nodes, ops):
    sim, env = _runtime(_FUZZ_POSITIONS[:n_nodes], fast=fast, timeout_ms=100.0)
    log = []

    def apply(index, kind, a, b):
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
            env.register(OverlayAgent(a, env))

    for index, (at, kind, a, b) in enumerate(ops):
        a, b = a % n_nodes, b % n_nodes
        if a == b and kind in ("request", "tell"):
            b = (a + 1) % n_nodes
        sim.schedule(at, lambda index=index, kind=kind, a=a, b=b: apply(index, kind, a, b))
    sim.run()
    return _observed(sim, env, log)


@settings(max_examples=150, deadline=None)
@given(n_nodes=st.integers(4, 6), ops=_FUZZ_OPS)
def test_random_membership_schedules_agree_across_paths(n_nodes, ops):
    assert _drive(True, n_nodes, ops) == _drive(False, n_nodes, ops)


class TestTell:
    def test_tell_delivered(self, setup):
        sim, env, agents = setup
        received = []
        agents[1].handle_tell = lambda sender, msg: received.append((sender, msg))
        env.tell(0, 1, InfoRequest())
        sim.run()
        assert received and received[0][0] == 0

    def test_tell_to_dead_dropped_but_counted(self, setup):
        sim, env, agents = setup
        env.mark_dead(1)
        env.tell(0, 1, InfoRequest())
        sim.run()
        assert env.message_counts["InfoRequest"] == 1


class TestConstruction:
    def test_bad_timeout(self, setup):
        _, env, _ = setup
        with pytest.raises(ValueError, match="timeout_ms"):
            ProtocolRuntime(Simulator(), env.underlay, 0, timeout_ms=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(timeout_ms=math.inf),
            dict(measurement_noise_sigma=math.nan),  # noise would be off
        ],
        ids=["timeout_ms-inf", "measurement_noise_sigma-nan"],
    )
    def test_refuses_non_finite(self, setup, kwargs):
        _, env, _ = setup
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            ProtocolRuntime(Simulator(), env.underlay, 0, **kwargs)

    def test_unknown_source(self):
        ul = MatrixUnderlay(line_matrix([0.0, 1.0]))
        with pytest.raises(KeyError):
            ProtocolRuntime(Simulator(), ul, source=99)

    def test_noise_requires_rng(self):
        ul = MatrixUnderlay(line_matrix([0.0, 1.0]))
        with pytest.raises(ValueError, match="noise_rng"):
            ProtocolRuntime(Simulator(), ul, 0, measurement_noise_sigma=0.1)

    def test_noise_perturbs_measurements(self):
        ul = MatrixUnderlay(line_matrix([0.0, 100.0]))
        env = ProtocolRuntime(
            Simulator(),
            ul,
            0,
            measurement_noise_sigma=0.3,
            noise_rng=np.random.default_rng(1),
        )
        samples = {env.virtual_distance(0, 1) for _ in range(10)}
        assert len(samples) == 10
        assert all(s > 0 for s in samples)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sigma=st.floats(0.01, 1.5),
        probes=st.lists(
            st.one_of(st.integers(1, 12), st.just(300)), min_size=1, max_size=400
        ),
    )
    def test_buffered_noise_equals_a_fresh_draw_per_probe(self, seed, sigma, probes):
        """The 256-draw block buffer is invisible: every measurement is,
        bit for bit, the metric times the mean of a fresh ``size=samples``
        draw from an identically seeded generator — across refills, for
        sample counts on both sides of the pairwise-mean threshold (8)
        and larger than the block."""
        ul = MatrixUnderlay(line_matrix([0.0, 100.0]))
        env = ProtocolRuntime(
            Simulator(),
            ul,
            0,
            measurement_noise_sigma=sigma,
            noise_rng=np.random.default_rng(seed),
        )
        rng = np.random.default_rng(seed)
        base = float(ul.rtt_ms(0, 1))
        for samples in probes:
            assert env.virtual_distance(0, 1, samples=samples) == (
                base * oracles.noise_factor(rng, sigma, samples)
            )

    @pytest.mark.parametrize("noisy", [False, True], ids=["exact", "noisy"])
    @pytest.mark.parametrize(
        "samples",
        [2.5, math.nan, math.inf, True, False, 0, -1, "3"],
        ids=["fraction", "nan", "inf", "true", "false", "zero", "negative", "str"],
    )
    def test_refuses_bad_sample_counts(self, noisy, samples):
        """A sample count that is not an integer >= 1 is refused, naming
        ``samples``, before any draw — with noise off too, where nothing
        would read it."""
        ul = MatrixUnderlay(line_matrix([0.0, 100.0]))
        rng = np.random.default_rng(1)
        env = ProtocolRuntime(
            Simulator(),
            ul,
            0,
            measurement_noise_sigma=0.3 if noisy else 0.0,
            noise_rng=rng,
        )
        env.virtual_distance(0, 1)
        before = (env._noise_pos, list(env._noise_buf), rng.bit_generator.state)
        with pytest.raises(ValueError, match="samples"):
            env.virtual_distance(0, 1, samples=samples)
        assert (env._noise_pos, env._noise_buf, rng.bit_generator.state) == before
        assert env.virtual_distance(0, 1, samples=1) > 0

    def test_noise_zero_for_self(self):
        ul = MatrixUnderlay(line_matrix([0.0, 100.0]))
        env = ProtocolRuntime(
            Simulator(),
            ul,
            0,
            measurement_noise_sigma=0.3,
            noise_rng=np.random.default_rng(1),
        )
        assert env.virtual_distance(1, 1) == 0.0

    def test_duplicate_registration_rejected(self, setup):
        _, env, agents = setup
        with pytest.raises(ValueError, match="already registered"):
            env.register(OverlayAgent(1, env))

    def test_reregistration_after_death_allowed(self, setup):
        _, env, agents = setup
        env.mark_dead(1)
        env.register(OverlayAgent(1, env))
        assert env.is_alive(1)
