"""Tests for the PlanetLab scenario format and main controller."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.factories import hmtp, vdm
from repro.harness.substrates import build_planetlab_underlay
from repro.planetlab import (
    MainController,
    Scenario,
    generate_scenario,
    parse_scenario,
    render_scenario,
)
from repro.planetlab.controller import session_report
from repro.sim.churn import ChurnEvent
from repro.sim.session import MulticastSession, SessionConfig, session_schedule
from repro.util.rngtools import rng_from_seed

#: the VDM report of ``TestMainController.make()``, recorded when its
#: scenario became the schedule of the session with the same config
PINNED_VDM_REPORT = Path(__file__).parent / "fixtures" / "controller_report_vdm.json"


class TestScenarioEvents:
    def test_valid(self):
        ChurnEvent(1.0, "join", 4)

    def test_bad_action(self):
        with pytest.raises(ValueError):
            ChurnEvent(1.0, "restart", 4)

    def test_negative_node(self):
        with pytest.raises(ValueError):
            ChurnEvent(1.0, "join", -2)


class TestScenario:
    def test_events_sorted_on_init(self):
        sc = Scenario(
            events=[ChurnEvent(5.0, "leave", 1), ChurnEvent(1.0, "join", 1)],
            terminate_at=10.0,
            source=0,
        )
        assert [e.time for e in sc.events] == [1.0, 5.0]

    def test_rejects_events_after_terminate(self):
        with pytest.raises(ValueError, match="after terminate"):
            Scenario(
                events=[ChurnEvent(50.0, "join", 1)],
                terminate_at=10.0,
                source=0,
            )

    @pytest.mark.parametrize(
        ("terminate_at", "message"),
        [
            (0.0, "must be > 0"),
            (float("inf"), "must be finite"),
            (float("nan"), "must not be NaN"),
        ],
    )
    def test_rejects_a_terminate_time_no_session_can_run_to(
        self, terminate_at, message
    ):
        with pytest.raises(ValueError, match=f"terminate_at {message}"):
            Scenario(events=[], terminate_at=terminate_at, source=0)

    def test_rejects_source_events(self):
        with pytest.raises(ValueError, match="source"):
            Scenario(
                events=[ChurnEvent(1.0, "leave", 0)],
                terminate_at=10.0,
                source=0,
            )

    def test_leave_sorts_before_a_rejoin_at_the_same_instant(self):
        sc = Scenario(
            events=[ChurnEvent(50.0, "join", 1), ChurnEvent(50.0, "leave", 1)],
            terminate_at=100.0,
            source=0,
        )
        assert [e.action for e in sc.events] == ["leave", "join"]

    def test_validate_unknown_nodes(self):
        sc = Scenario(
            events=[ChurnEvent(1.0, "join", 99)], terminate_at=10.0, source=0
        )
        with pytest.raises(ValueError, match="unknown nodes"):
            sc.validate([0, 1, 2])


class TestGeneration:
    def test_counts_and_structure(self):
        sc = generate_scenario(
            SessionConfig(
                n_nodes=20,
                join_phase_s=400.0,
                total_s=2000.0,
                churn_rate=0.1,
                seed=4,
                source_host=0,
            ),
            range(30),
        )
        joins = [e for e in sc.events if e.action == "join"]
        initial_joins = [e for e in joins if e.time < 400.0]
        assert len(initial_joins) == 20
        assert sc.terminate_at == 2000.0
        # Churn slots: 400..2000 -> 4 slots of 2 leaves each.
        leaves = [e for e in sc.events if e.action == "leave"]
        assert len(leaves) == 8

    def test_deterministic(self):
        cfg = SessionConfig(
            n_nodes=10,
            join_phase_s=200.0,
            total_s=1000.0,
            churn_rate=0.2,
            seed=7,
            source_host=0,
        )
        assert (
            generate_scenario(cfg, range(20)).events
            == generate_scenario(cfg, range(20)).events
        )

    def test_source_is_the_sessions(self):
        """Without a ``source_host`` the source is the schedule's draw."""
        cfg = SessionConfig(n_nodes=10, join_phase_s=200.0, total_s=1000.0, seed=7)
        hosts = list(range(20))
        assert generate_scenario(cfg, hosts).source == session_schedule(cfg, hosts).source

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 11])
    def test_generated_order_is_time_order(self, seed):
        """No two actions of one node share an instant, so a generated
        scenario sorts the same under the churn key as it did by
        ``(time, action, node)``."""
        sc = generate_scenario(
            SessionConfig(
                n_nodes=20,
                join_phase_s=400.0,
                total_s=4000.0,
                churn_rate=0.3,
                seed=seed,
                source_host=0,
            ),
            range(40),
        )
        assert len({(e.time, e.node) for e in sc.events}) == len(sc.events)
        assert sc.events == sorted(sc.events, key=lambda e: (e.time, e.action, e.node))

    def test_too_small_roster_rejected(self):
        cfg = SessionConfig(
            n_nodes=5, join_phase_s=10.0, total_s=20.0, source_host=0
        )
        with pytest.raises(ValueError, match="need at least 6"):
            generate_scenario(cfg, [0, 1])


class TestSerialization:
    def test_round_trip(self):
        sc = generate_scenario(
            SessionConfig(
                n_nodes=8,
                join_phase_s=100.0,
                total_s=600.0,
                churn_rate=0.25,
                seed=1,
                source_host=2,
            ),
            range(15),
        )
        back = parse_scenario(render_scenario(sc))
        assert back.source == 2
        assert back.terminate_at == sc.terminate_at
        assert len(back.events) == len(sc.events)
        for a, b in zip(back.events, sc.events):
            assert a.action == b.action and a.node == b.node
            assert a.time == pytest.approx(b.time, abs=1e-3)

    def test_comments_and_blanks_ignored(self):
        text = "# hi\n\nsource 0\njoin\t1\t2.5\nterminate\t10\n"
        sc = parse_scenario(text)
        assert len(sc.events) == 1

    def test_missing_terminate_rejected(self):
        with pytest.raises(ValueError, match="terminate"):
            parse_scenario("source 0\njoin\t1\t2.0\n")

    def test_missing_source_rejected(self):
        with pytest.raises(ValueError, match="source"):
            parse_scenario("join\t1\t2.0\nterminate\t10\n")

    def test_garbage_line_reports_lineno(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_scenario("source 0\nfrobnicate\t3\t1.0\nterminate\t5\n")


def _planetlab_config(source: int, churn: float, seed: int) -> SessionConfig:
    return SessionConfig(
        n_nodes=15,
        degree=4,
        source_degree=4,
        join_phase_s=300.0,
        total_s=1200.0,
        churn_rate=churn,
        seed=seed,
        source_host=source,
        measurement_noise_sigma=0.1,
    )


class TestMainController:
    def make(self, factory=None, churn=0.1, seed=1):
        sub = build_planetlab_underlay(n_select=20, seed=3, n_us=50)
        sc = generate_scenario(
            _planetlab_config(sub.source, churn, seed), sub.underlay.hosts
        )
        ctl = MainController(
            sub.underlay, sc, factory or vdm(), seed=seed, degree_limit=4
        )
        return ctl, sc

    def test_full_run_produces_reports(self):
        ctl, sc = self.make()
        rep = ctl.run()
        assert len(rep.nodes) == len(sc.joined_nodes())
        assert rep.control_messages > 0
        assert rep.data_messages > 0
        assert rep.duration_s == sc.terminate_at

    def test_aggregates(self):
        ctl, _ = self.make()
        rep = ctl.run()
        assert rep.mean_startup > 0
        assert 0 <= rep.mean_loss <= 1
        assert rep.overhead > 0

    def test_connected_nodes_have_depth_and_stretch(self):
        ctl, _ = self.make(churn=0.0)
        rep = ctl.run()
        connected = [n for n in rep.nodes if n.final_depth is not None]
        assert connected
        assert all(n.final_depth >= 1 for n in connected)
        assert all(
            n.final_stretch is None or n.final_stretch > 0 for n in rep.nodes
        )

    def test_hmtp_controller_runs(self):
        ctl, _ = self.make(factory=hmtp())
        rep = ctl.run()
        assert rep.control_messages > 0

    def test_scenario_validated_against_roster(self):
        sub = build_planetlab_underlay(n_select=10, seed=3, n_us=50)
        sc = Scenario(
            events=[ChurnEvent(1.0, "join", 999)],
            terminate_at=10.0,
            source=sub.source,
        )
        with pytest.raises(ValueError, match="unknown nodes"):
            MainController(sub.underlay, sc, vdm())

    def test_rejoin_at_the_leave_instant_is_replayed(self):
        """Node leaves and rejoins at t = 50: the leave must run first, or
        the join finds the node alive, does nothing, and the leave then
        removes it for good."""
        sub = build_planetlab_underlay(n_select=10, seed=3, n_us=50)
        node = next(h for h in sorted(sub.underlay.hosts) if h != sub.source)
        sc = Scenario(
            events=[
                ChurnEvent(1.0, "join", node),
                ChurnEvent(50.0, "join", node),
                ChurnEvent(50.0, "leave", node),
            ],
            terminate_at=100.0,
            source=sub.source,
        )
        (report,) = MainController(sub.underlay, sc, vdm()).run().nodes
        assert report.final_depth == 1
        assert len(report.startup_times) == 2

    @pytest.mark.parametrize(
        ("knob", "value", "message"),
        [
            ("degree_limit", 2.5, "degree_limit must be an integer"),
            ("degree_limit", True, "degree_limit must be an integer"),
            ("degree_limit", 0, "degree_limit must be >= 1"),
            ("seed", 1.5, "seed must be an integer"),
            ("seed", True, "seed must be an integer"),
            ("seed", float("nan"), "seed must be an integer"),
        ],
    )
    def test_controller_refuses_truncated_arguments(self, knob, value, message):
        sub = build_planetlab_underlay(n_select=10, seed=3, n_us=50)
        sc = Scenario(events=[], terminate_at=10.0, source=sub.source)
        with pytest.raises(ValueError, match=message):
            MainController(sub.underlay, sc, vdm(), **{knob: value})

    def test_vdm_report_is_pinned(self):
        rep = self.make()[0].run()
        got = {
            "control_messages": rep.control_messages,
            "data_messages": rep.data_messages,
            "duration_s": rep.duration_s,
            "nodes": [dataclasses.asdict(n) for n in rep.nodes],
        }
        # JSON round trip: tuples read back as lists, floats exactly.
        assert json.loads(json.dumps(got)) == json.loads(PINNED_VDM_REPORT.read_text())

    def test_rejoining_node_gets_a_fresh_agent_stream(self):
        """HMTP agents draw; a node that leaves and rejoins must not
        replay its earlier agent's draws."""
        sub = build_planetlab_underlay(n_select=10, seed=3, n_us=50)
        node = next(h for h in sorted(sub.underlay.hosts) if h != sub.source)
        sc = Scenario(
            events=[
                ChurnEvent(1.0, "join", node),
                ChurnEvent(40.0, "leave", node),
                ChurnEvent(60.0, "join", node),
            ],
            terminate_at=100.0,
            source=sub.source,
        )
        factory = hmtp()
        streams = []

        def recording(n, env, **kwargs):
            if n == node:
                streams.append(kwargs["rng"])
            return factory(n, env, **kwargs)

        (report,) = MainController(sub.underlay, sc, recording).run().nodes
        assert len(report.startup_times) == 2
        first, second = (rng_from_seed(key).random(4).tolist() for key in streams)
        assert first != second

    def test_node_report_loss_rate_bounds(self):
        ctl, _ = self.make(churn=0.2)
        rep = ctl.run()
        assert all(0.0 <= n.loss_rate <= 1.0 for n in rep.nodes)


class TestControllerReplaysTheSession:
    """A generated scenario is the session's own schedule written down, so
    the controller replaying it reproduces ``MulticastSession(cfg).run()``
    exactly: the same per-node reports, control and data totals, and join
    records.

    VDM only: an HMTP agent draws from ``agent.rng``
    (``protocols/hmtp.py``), whose key includes ``sim.events_processed``
    at the node's join (``MulticastSession.join``).  The session also
    fires its slot and measurement events, which the controller does not,
    so the two count different events before a join and HMTP's draws
    part ways.
    """

    @pytest.mark.parametrize("churn", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_report_equals_the_sessions(self, seed, churn):
        sub = build_planetlab_underlay(n_select=20, seed=3, n_us=50)
        cfg = _planetlab_config(sub.source, churn, seed)
        scenario = generate_scenario(cfg, sub.underlay.hosts)
        ctl = MainController(
            sub.underlay,
            scenario,
            vdm(),
            degree_limit=cfg.degree,
            chunk_rate=cfg.chunk_rate,
            timeout_ms=cfg.timeout_ms,
            measurement_noise_sigma=cfg.measurement_noise_sigma,
            seed=cfg.seed,
        )
        got = ctl.run()

        session = MulticastSession(sub.underlay, vdm(), cfg)
        session.run()
        want = session_report(session, scenario.joined_nodes(), cfg.total_s)
        assert got == want
        assert ctl.session.env.join_records == session.env.join_records
        if churn:
            assert any(e.action == "leave" for e in scenario.events)
