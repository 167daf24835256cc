"""Integration tests: full sessions for every protocol, plus invariants."""

import math

import numpy as np
import pytest

from repro.factories import btp, hmtp, vdm, vdm_r, loss_metric
from repro.sim.session import (
    MulticastSession,
    SessionConfig,
    SessionResult,
    draw_degree,
    session_schedule,
)

from tests.helpers import line_matrix
from repro.sim.network import MatrixUnderlay


def small_matrix_underlay(n=24, seed=3):
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.uniform(0, 500, size=n))
    return MatrixUnderlay(line_matrix(list(positions)))


QUICK = dict(
    n_nodes=15,
    degree=(2, 4),
    join_phase_s=300.0,
    total_s=1500.0,
    slot_s=400.0,
    settle_s=100.0,
    churn_rate=0.1,
    seed=5,
)


class TestSessionSchedule:
    CFG = SessionConfig(
        n_nodes=3, join_phase_s=100.0, total_s=330.0, slot_s=100.0,
        settle_s=10.0, join_measure_interval_s=50.0, seed=4,
    )

    def test_entries_in_scheduling_order(self):
        sched = session_schedule(self.CFG, list(range(10)))
        kinds = [kind for _, _, kind, _ in sched.entries]
        assert kinds == ["join"] * 3 + ["measure"] * 2 + ["slot", "measure"] * 2
        joins = sched.entries[:3]
        assert [t for t, *_ in joins] == sorted(t for t, *_ in joins)
        assert all(0.0 <= t <= 90.0 and prio == 0 for t, prio, _, _ in joins)
        assert {node for *_, node in joins} <= sched.pool
        # Only whole slots inside total_s: 100-200 and 200-300, not 300-400.
        assert [(t, p) for t, p, kind, _ in sched.entries[3:]] == [
            (50.0, 10), (100.0, 10), (100.0, 5), (200.0, 10), (200.0, 5), (300.0, 10)
        ]
        assert sched.pool == frozenset(range(10)) - {sched.source}

    def test_the_session_runs_the_schedule_it_draws(self):
        ul = small_matrix_underlay()
        session = MulticastSession(ul, vdm(), self.CFG)
        assert session.schedule == session_schedule(self.CFG, list(ul.hosts))
        entries = session.schedule.entries
        measures = [t for t, _, kind, _ in entries if kind == "measure"]
        # ... and closes with one more measurement at total_s.
        assert [r.time for r in session.run().records] == measures + [330.0]

    def test_unknown_source_host_refused(self):
        cfg = SessionConfig(**{**QUICK, "source_host": 99})
        with pytest.raises(KeyError, match="unknown host 99"):
            session_schedule(cfg, list(range(24)))


class TestDrawDegree:
    def test_constant(self):
        rng = np.random.default_rng(0)
        assert draw_degree(3, rng) == 3

    def test_range(self):
        rng = np.random.default_rng(0)
        vals = {draw_degree((2, 5), rng) for _ in range(200)}
        assert vals == {2, 3, 4, 5}

    def test_fractional_average(self):
        rng = np.random.default_rng(0)
        vals = [draw_degree(1.25, rng) for _ in range(4000)]
        assert set(vals) == {1, 2}
        assert np.mean(vals) == pytest.approx(1.25, abs=0.05)

    def test_callable(self):
        assert draw_degree(lambda rng: 7, np.random.default_rng(0)) == 7

    def test_bad_specs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            draw_degree(0.5, rng)
        with pytest.raises(ValueError):
            draw_degree((0, 3), rng)
        with pytest.raises(TypeError):
            draw_degree(True, rng)
        with pytest.raises(TypeError):
            draw_degree("four", rng)


class TestConfigValidation:
    def test_defaults_valid(self):
        SessionConfig()

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(total_s=100.0, join_phase_s=200.0), "join phase"),
            (dict(slot_s=100.0, settle_s=100.0), "settle_s"),
            (dict(churn_rate=1.5), "churn_rate"),
            (dict(n_nodes=0), "n_nodes"),
        ],
    )
    def test_invalid(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SessionConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("join_measure_interval_s", 0.0),  # the schedule would never end
            ("join_measure_interval_s", -10.0),  # would fail only in the simulator
            ("join_measure_interval_s", math.nan),  # would measure nothing
            ("total_s", math.inf),  # the slot schedule would never end
            ("chunk_rate", math.inf),  # the loss would be NaN, reported as 0.0
            ("timeout_ms", math.inf),
            ("measurement_noise_sigma", math.nan),  # noise would be off
        ],
    )
    def test_refuses_values_that_hang_or_blank_a_run(self, field, value):
        with pytest.raises(ValueError, match=field):
            SessionConfig(**{field: value})


@pytest.mark.parametrize(
    "factory_name, factory",
    [
        ("vdm", vdm()),
        ("vdm_r", vdm_r(period_s=200.0)),
        ("hmtp", hmtp()),
        ("btp", btp()),
    ],
)
class TestAllProtocolsRunClean:
    def test_session_completes_with_invariants(self, factory_name, factory):
        ul = small_matrix_underlay()
        res = MulticastSession(ul, factory, SessionConfig(**QUICK)).run()
        assert isinstance(res, SessionResult)
        assert res.records, "no measurements collected"

        tree = res.runtime.tree
        # Invariant: no cycles — every present node resolves to source or
        # to an orphan root without revisiting.
        for node in tree.members():
            seen = set()
            cur = node
            while cur is not None and cur != tree.source:
                assert cur not in seen, f"cycle at {cur}"
                seen.add(cur)
                cur = tree.parent.get(cur)

        # Invariant: children sets mirror parent pointers.
        for child, parent in tree.parent.items():
            if parent is not None:
                assert child in tree.children[parent]

        # Invariant: degree limits respected.
        for node, agent in res.runtime.agents.items():
            if tree.is_present(node):
                assert len(tree.children.get(node, ())) <= agent.degree_limit

        # Startup records exist and are positive.
        assert res.startup_times()
        assert all(t > 0 for t in res.startup_times())


class TestSessionBehaviour:
    def test_all_nodes_connected_after_join_phase(self):
        ul = small_matrix_underlay()
        cfg = SessionConfig(**{**QUICK, "churn_rate": 0.0})
        res = MulticastSession(ul, vdm(), cfg).run()
        final = res.final
        assert final.n_reachable == cfg.n_nodes + 1  # members + source

    def test_deterministic_replay(self):
        ul = small_matrix_underlay()
        r1 = MulticastSession(ul, vdm(), SessionConfig(**QUICK)).run()
        r2 = MulticastSession(ul, vdm(), SessionConfig(**QUICK)).run()
        assert [r.n_reachable for r in r1.records] == [
            r.n_reachable for r in r2.records
        ]
        assert r1.startup_times() == r2.startup_times()
        assert (
            r1.runtime.total_control_messages == r2.runtime.total_control_messages
        )

    def test_different_seeds_differ(self):
        ul = small_matrix_underlay()
        r1 = MulticastSession(ul, vdm(), SessionConfig(**QUICK)).run()
        r2 = MulticastSession(
            ul, vdm(), SessionConfig(**{**QUICK, "seed": 6})
        ).run()
        assert r1.startup_times() != r2.startup_times()

    def test_churn_keeps_population_stable(self):
        ul = small_matrix_underlay(n=40)
        cfg = SessionConfig(**{**QUICK, "n_nodes": 20, "total_s": 2000.0})
        res = MulticastSession(ul, vdm(), cfg).run()
        for rec in res.churn_phase_records():
            assert rec.n_reachable >= cfg.n_nodes - 3

    def test_refinement_runs_for_vdm_r(self):
        ul = small_matrix_underlay()
        cfg = SessionConfig(**{**QUICK, "total_s": 2000.0})
        res = MulticastSession(ul, vdm_r(period_s=150.0), cfg).run()
        kinds = {r.kind for r in res.runtime.join_records}
        assert "refine" in kinds

    def test_refine_override(self):
        ul = small_matrix_underlay()
        cfg = SessionConfig(**{**QUICK, "refine_period_s": 120.0, "total_s": 2000.0})
        res = MulticastSession(ul, vdm(), cfg).run()
        kinds = {r.kind for r in res.runtime.join_records}
        assert "refine" in kinds

    def test_loss_metric_session(self):
        n = 20
        rng = np.random.default_rng(2)
        positions = np.sort(rng.uniform(0, 500, size=n))
        loss = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                loss[i, j] = loss[j, i] = rng.uniform(0, 0.05)
        ul = MatrixUnderlay(line_matrix(list(positions)), loss=loss)
        cfg = SessionConfig(**{**QUICK, "n_nodes": 12, "churn_rate": 0.0})
        res = MulticastSession(ul, vdm(), cfg, metric_factory=loss_metric()).run()
        assert res.final.n_reachable == 13
        assert res.final.window_mean_node_loss > 0.0

    def test_source_host_respected(self):
        ul = small_matrix_underlay()
        cfg = SessionConfig(**{**QUICK, "source_host": 3})
        session = MulticastSession(ul, vdm(), cfg)
        assert session.source == 3

    def test_too_few_hosts_rejected(self):
        ul = small_matrix_underlay(n=5)
        with pytest.raises(ValueError, match="hosts"):
            MulticastSession(ul, vdm(), SessionConfig(**{**QUICK, "n_nodes": 10}))

    def test_mean_metric_and_durations(self):
        ul = small_matrix_underlay()
        res = MulticastSession(ul, vdm(), SessionConfig(**QUICK)).run()
        assert res.mean_metric(lambda r: r.stretch.average) >= 0
        assert all(d >= 0 for d in res.durations("join"))

    def test_reconnections_recorded_under_churn(self):
        ul = small_matrix_underlay(n=40)
        cfg = SessionConfig(
            **{**QUICK, "n_nodes": 20, "total_s": 2500.0, "churn_rate": 0.2}
        )
        res = MulticastSession(ul, vdm(), cfg).run()
        assert res.reconnection_times(), "churn should force reconnections"
