"""Live service runtime: determinism, robustness envelope, chaos, health.

Everything runs on a tiny :class:`MatrixUnderlay` in virtual time, so the
whole file is fast despite exercising multi-hundred-second service runs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.harness.chaos import ServiceChaosRule, load_service_plan
from repro.metrics.collectors import latency_percentile
from repro.service.health import HealthMonitor
from repro.service.runtime import ServiceConfig, ServiceRuntime, run_service
from repro.service.workload import build_workload
from repro.sim.network import MatrixUnderlay


def _underlay(n: int = 24, seed: int = 7) -> MatrixUnderlay:
    rng = np.random.default_rng(seed)
    pos = np.sort(rng.uniform(0.0, 100.0, n))
    return MatrixUnderlay(np.abs(pos[:, None] - pos[None, :]) * 2.0)


def _run(cfg: ServiceConfig, plan=()) -> ServiceRuntime:
    rt = ServiceRuntime(
        cfg, _underlay(cfg.n_hosts), chaos_plan=plan, journal_outcomes=False
    )
    rt.run()
    return rt


BASE = ServiceConfig(
    scenario="poisson",
    duration_s=300.0,
    seed=3,
    n_hosts=24,
    arrival_rate_hz=0.15,
    hold_s=80.0,
)


# ---------------------------------------------------------------------------
# workload generators
# ---------------------------------------------------------------------------


class TestWorkload:
    def test_deterministic_per_seed(self):
        a = build_workload("poisson", seed=5, duration_s=600, rate_hz=0.2, hold_s=60)
        b = build_workload("poisson", seed=5, duration_s=600, rate_hz=0.2, hold_s=60)
        assert a == b
        c = build_workload("poisson", seed=6, duration_s=600, rate_hz=0.2, hold_s=60)
        assert a != c

    def test_arrivals_sorted_and_indexed(self):
        arr = build_workload(
            "flash", seed=1, duration_s=300, rate_hz=0.1, hold_s=60,
            burst_at_s=100, burst_rate_hz=2.0, burst_duration_s=20,
        )
        times = [a.time for a in arr]
        assert times == sorted(times)
        assert [a.index for a in arr] == list(range(len(arr)))
        assert all(0 <= a.time < 300 for a in arr)
        assert all(a.hold_s > 0 for a in arr)

    def test_flash_concentrates_arrivals_in_burst(self):
        base = build_workload("poisson", seed=2, duration_s=300, rate_hz=0.1, hold_s=60)
        flash = build_workload(
            "flash", seed=2, duration_s=300, rate_hz=0.1, hold_s=60,
            burst_at_s=100, burst_rate_hz=3.0, burst_duration_s=20,
        )
        in_burst = [a for a in flash if 100 <= a.time < 120]
        assert len(flash) > len(base)
        assert len(in_burst) >= 20  # ~3/s for 20 s on top of baseline

    def test_diurnal_mean_rate_close_to_baseline(self):
        arr = build_workload(
            "diurnal", seed=3, duration_s=2000, rate_hz=0.5, hold_s=60,
            diurnal_period_s=500, diurnal_depth=0.8,
        )
        # thinning preserves the mean rate (0.5/s over 2000 s = ~1000)
        assert 800 <= len(arr) <= 1200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scenario": "nope"},
            {"rate_hz": 0.0},
            {"duration_s": 0.0},
            {"hold_s": -1.0},
            {"scenario": "flash"},  # missing burst shape
            {"scenario": "diurnal", "diurnal_depth": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        args = dict(scenario="poisson", seed=0, duration_s=100.0,
                    rate_hz=0.1, hold_s=50.0)
        args.update(kwargs)
        scenario = args.pop("scenario")
        with pytest.raises(ValueError):
            build_workload(scenario, **args)


# ---------------------------------------------------------------------------
# the join queue
# ---------------------------------------------------------------------------


class TestJoinQueue:
    """The bounded join queue, driven by hand on a runtime that has not
    started: no slot is parked on it yet."""

    def _runtime(self, hwm: int) -> ServiceRuntime:
        cfg = ServiceConfig(**{**BASE.__dict__, "join_queue_hwm": hwm})
        return ServiceRuntime(
            cfg, _underlay(cfg.n_hosts), chaos_plan=(), journal_outcomes=False
        )

    def test_rejects_at_the_high_water_mark(self):
        rt = self._runtime(hwm=2)
        arrivals = rt._schedule[:3]
        for arrival in arrivals:
            rt._admit(arrival)
        assert len(rt._queue) == 2
        stats = rt.report()["bus"]
        assert (stats["published"], stats["rejected"], stats["max_depth"]) == (
            2, 1, 2
        )
        rejected = rt._outcomes[arrivals[2].index]
        assert rejected["reject_reason"] == "high-water-mark"
        # the rejected arrival's host went back to the pool
        assert len(rt._holder) == 2 and len(rt._free) == BASE.n_hosts - 1 - 2

    def test_sentinels_wait_for_a_free_place(self):
        """At the high-water mark the shutdown sentinels wait for a slot
        to take an item (backpressure), and are never rejected."""
        rt = self._runtime(hwm=1)
        rt._admit(rt._schedule[0])
        rt._sentinels_due = 2
        rt._queue_sentinels()
        assert rt._sentinels_blocked and len(rt._queue) == 1
        rt._serve = lambda *item: None
        rt._take()  # a slot takes the join; the sentinels get a place
        assert not rt._sentinels_blocked and len(rt._ready) == 1
        rt._run_ready()
        assert list(rt._queue) == [None] and rt._sentinels_blocked
        rt._take()  # a slot takes a sentinel and shuts down
        rt._run_ready()
        assert list(rt._queue) == [None] and rt._sentinels_due == 0
        assert rt._slots_open == rt.config.join_workers - 1
        assert rt.report()["bus"] == {
            "delivered": 2, "max_depth": 1, "published": 3, "rejected": 0,
        }

    def test_stall_gate_blocks_new_gets(self):
        rt = self._runtime(hwm=4)
        served = []
        rt._serve = lambda arrival, node, degree: served.append(arrival.index)
        rt._look_for_work()  # one slot parks on the empty queue
        rt._strike(ServiceChaosRule(action="bus-stall", at_s=0.0, duration_s=3.0))
        assert rt.health.probes["bus"]() is False
        rt._look_for_work()  # a slot freed during the stall waits at the gate
        first, second = rt._schedule[:2]
        rt._admit(first)
        rt._admit(second)
        rt._run_ready()
        # the slot parked before the stall still takes the first item ...
        assert served == [first.index]
        assert len(rt._queue) == 1  # ... and depth builds behind the gate
        assert rt.sim.run() == 1 and rt.sim.now == 3.0  # the resume event
        rt._run_ready()
        assert served == [first.index, second.index]
        assert rt.health.probes["bus"]() is True and not rt._queue


# ---------------------------------------------------------------------------
# health monitor
# ---------------------------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 0.0


class TestHealthMonitor:
    def test_flip_and_recovery_with_degraded_time(self):
        clock = _FakeClock()
        healthy = {"x": True}
        mon = HealthMonitor(clock, {"x": lambda: healthy["x"]}, period_s=5.0)
        mon.probe_once()
        assert mon.healthy and mon.time_in_degraded_s == 0.0

        clock.now = 10.0
        healthy["x"] = False
        mon.probe_once()
        clock.now = 25.0
        healthy["x"] = True
        mon.probe_once()
        assert mon.time_in_degraded_s == 15.0
        flips = [(t.component, t.healthy) for t in mon.transitions]
        assert flips == [("x", False), ("x", True)]

    def test_finish_closes_open_interval(self):
        clock = _FakeClock()
        mon = HealthMonitor(clock, {"x": lambda: False}, period_s=1.0)
        clock.now = 4.0
        mon.probe_once()
        clock.now = 10.0
        mon.finish()
        assert mon.time_in_degraded_s == 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            HealthMonitor(_FakeClock(), {}, period_s=1.0)
        with pytest.raises(ValueError):
            HealthMonitor(_FakeClock(), {"x": lambda: True}, period_s=0.0)


# ---------------------------------------------------------------------------
# latency percentile
# ---------------------------------------------------------------------------


class TestLatencyPercentile:
    def test_empty_is_zero(self):
        assert latency_percentile([], 99.0) == 0.0

    def test_interpolation(self):
        assert latency_percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
        assert latency_percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
        assert latency_percentile([1.0, 2.0, 3.0, 4.0], 100.0) == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            latency_percentile([1.0], -1.0)
        with pytest.raises(ValueError):
            latency_percentile([1.0], 101.0)


# ---------------------------------------------------------------------------
# service chaos plan parsing
# ---------------------------------------------------------------------------


class TestServiceChaosPlan:
    def test_unset_is_empty(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_CHAOS", raising=False)
        assert load_service_plan() == ()

    def test_inline_and_sorted(self):
        plan = load_service_plan(
            '[{"action": "clock-jump", "at_s": 90},'
            ' {"action": "agent-crash", "at_s": 40, "node_index": 1}]'
        )
        assert [r.action for r in plan] == ["agent-crash", "clock-jump"]
        assert plan[0].node_index == 1

    def test_inline_json(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_SERVICE_CHAOS",
            '[{"action": "agent-crash", "at_s": 7, "node_index": 2}]',
        )
        assert load_service_plan() == (
            ServiceChaosRule(action="agent-crash", at_s=7.0, node_index=2),
        )

    def test_file_reference(self, tmp_path, monkeypatch):
        plan = tmp_path / "plan.json"
        plan.write_text('[{"action": "clock-jump", "at_s": 5}]')
        monkeypatch.setenv("REPRO_SERVICE_CHAOS", f"@{plan}")
        (rule,) = load_service_plan()
        assert (rule.action, rule.at_s) == ("clock-jump", 5.0)
        assert load_service_plan(f"@{plan}") == (rule,)

    @pytest.mark.parametrize(
        "raw",
        [
            "not json",
            '{"action": "agent-crash"}',  # not a list
            '[{"action": "meteor", "at_s": 1}]',
            '[{"action": "agent-crash"}]',  # missing at_s
            '[{"action": "agent-crash", "at_s": -1}]',
            '[{"action": "bus-stall", "at_s": 1, "duration_s": 0}]',
            '[{"action": "agent-crash", "at_s": 1, "bogus": 2}]',
            "[42]",  # not an object
        ],
    )
    def test_malformed_raises(self, raw):
        # A bad entry is named by its index; a bad plan by the variable.
        prefix = r"REPRO_SERVICE_CHAOS\[\d+\]" if raw.startswith("[") else (
            r"REPRO_SERVICE_CHAOS "
        )
        with pytest.raises(ValueError, match=prefix):
            load_service_plan(raw)


# ---------------------------------------------------------------------------
# the runtime itself
# ---------------------------------------------------------------------------


class TestServiceRuntime:
    def test_same_seed_identical_metrics_bytes(self):
        assert _run(BASE).metrics_json() == _run(BASE).metrics_json()

    def test_different_seed_differs(self):
        other = ServiceConfig(**{**BASE.__dict__, "seed": 4})
        assert _run(BASE).metrics_json() != _run(other).metrics_json()

    def test_steady_state_slo(self):
        rt = _run(BASE)
        rep = rt.report()
        assert rep["arrivals"] > 10
        assert rep["succeeded"] == rep["admitted"] > 0
        assert rep["rejected"] == 0
        assert rep["invariant_violations"] == 0
        assert rep["p99_first_chunk_s"] >= rep["p50_first_chunk_s"] > 0.0
        # first chunk = epoch quantization + path delay, so well under 10 s
        assert rep["p99_first_chunk_s"] < 10.0

    def test_flash_crowd_hits_admission_control(self):
        cfg = ServiceConfig(
            scenario="flash", duration_s=240.0, seed=5, n_hosts=24,
            arrival_rate_hz=0.1, hold_s=150.0, join_queue_hwm=2,
            join_workers=1, probe_period_s=1.0, burst_at_s=60.0,
            burst_rate_hz=3.0, burst_duration_s=20.0,
        )
        rep = _run(cfg).report()
        assert rep["rejected"] > 0
        assert rep["bus"]["rejected"] > 0
        assert rep["bus"]["max_depth"] == 2  # never exceeds the HWM
        assert rep["time_in_degraded_s"] > 0  # admission probe flipped
        flipped = {t["component"] for t in rep["health_transitions"]}
        assert "admission" in flipped
        assert rep["invariant_violations"] == 0

    def test_run_service_wrapper(self):
        rep = run_service(BASE, _underlay(BASE.n_hosts))
        assert rep["schema"] == "repro-service-metrics/1"
        assert rep["drained"] is False

    def test_runtime_runs_once(self):
        rt = _run(BASE)
        with pytest.raises(RuntimeError):
            rt.run()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scenario": "nope"},
            {"n_hosts": 1},
            {"join_queue_hwm": 0},
            {"join_workers": 0},
            {"degree": (0, 5)},
            {"join_timeout_s": 0.0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**{**BASE.__dict__, **kwargs})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("duration_s", math.inf),  # the producer's tail never ends
            ("arrival_rate_hz", math.inf),  # the schedule never ends
            ("burst_rate_hz", math.inf),  # the burst stream never ends
            ("burst_at_s", math.nan),  # the burst would be dropped silently
            ("burst_at_s", -30.0),  # arrivals stamped before t = 0
            ("burst_duration_s", math.inf),
            ("burst_duration_s", -1.0),
            ("chunk_rate", math.inf),  # OverflowError in the first-chunk epoch
            ("hold_s", math.inf),
            ("timeout_ms", math.inf),
            ("join_timeout_s", math.inf),
            ("probe_period_s", math.inf),
            ("diurnal_period_s", math.inf),
            ("diurnal_period_s", -1.0),
            ("diurnal_depth", 1.0),  # refused only by the diurnal workload
            ("diurnal_depth", -0.1),
            ("diurnal_depth", math.nan),
        ],
    )
    def test_refuses_values_that_hang_or_corrupt_a_run(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{**BASE.__dict__, field: value})

    @pytest.mark.parametrize("pace_s", [-1.0, math.nan, math.inf])
    def test_refuses_a_pace_it_would_ignore(self, pace_s):
        with pytest.raises(ValueError, match="pace_s"):
            ServiceRuntime(BASE, _underlay(), chaos_plan=(), pace_s=pace_s)

    def test_cli_refuses_an_infinite_duration(self, capsys):
        from repro.service.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["poisson", "--duration", "inf"])
        assert exit_info.value.code == 2
        assert "duration_s" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("argv", "named"),
        [
            (["--duration", "-5"], "duration_s"),
            (["--duration", "nan"], "duration_s"),
            (["--workers", "0"], "join_workers"),
            (["--chaos", '[{"action": "meteor", "at_s": 1}]'], "REPRO_SERVICE_CHAOS"),
            (["--chaos", "not json"], "REPRO_SERVICE_CHAOS"),
            (["--chaos", "@{tmp}/missing.json"], "missing.json"),
        ],
    )
    def test_cli_usage_errors_run_nothing(
        self, argv, named, tmp_path, monkeypatch, capsys
    ):
        """A bad option is ``parser.error`` (exit 2) before any run or journal."""
        from repro.service import __main__ as cli

        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]

        def no_run(*args, **kwargs):
            raise AssertionError("a refused invocation built a runtime")

        monkeypatch.setattr(cli, "ServiceRuntime", no_run)
        jdir = tmp_path / "svc"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["poisson", "--journal", str(jdir), *argv])
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err
        assert not jdir.exists()


class TestServiceChaos:
    CRASH = (ServiceChaosRule(action="agent-crash", at_s=100.0, node_index=1),)
    STALL = (ServiceChaosRule(action="bus-stall", at_s=100.0, duration_s=40.0),)
    JUMP = (ServiceChaosRule(action="clock-jump", at_s=150.0),)
    FULL = tuple(sorted(CRASH + STALL + JUMP, key=lambda r: r.at_s))

    def test_agent_crash_detected_and_recovered(self):
        rt = _run(BASE, self.CRASH)
        rep = rt.report()
        assert rep["chaos"]["agent_crashes"] == 1
        assert rep["invariant_violations"] == 0
        # the orphan watchdog recovered the crashed node's subtree
        assert not rt.recovery.orphans

    def test_bus_stall_flips_health_and_recovers(self):
        cfg = ServiceConfig(**{**BASE.__dict__, "probe_period_s": 2.0})
        rep = _run(cfg, self.STALL).report()
        assert rep["chaos"]["bus_stalls"] == 1
        bus_flips = [
            t["healthy"] for t in rep["health_transitions"]
            if t["component"] == "bus"
        ]
        assert bus_flips == [False, True]  # degraded, then recovered
        assert rep["time_in_degraded_s"] > 0
        assert rep["invariant_violations"] == 0

    def test_clock_jump_is_survivable(self):
        rep = _run(BASE, self.JUMP).report()
        assert rep["chaos"]["clock_jumps"] == 1
        assert rep["invariant_violations"] == 0

    def test_full_chaos_plan_deterministic(self):
        a = _run(BASE, self.FULL).metrics_json()
        b = _run(BASE, self.FULL).metrics_json()
        assert a == b


class TestServiceSweep:
    def test_smoke_tables_deterministic(self):
        from repro.harness.experiments import ch8_service_tables, clear_cache
        from repro.harness.presets import PRESETS

        preset = PRESETS["smoke"]
        tables = ch8_service_tables(preset)
        assert set(tables) == {
            "p50_first_chunk_s", "p99_first_chunk_s",
            "rejected_pct", "degraded_pct",
        }
        def snapshot(table):
            return [(s.name, s.means()) for s in table.series]

        first = snapshot(tables["p99_first_chunk_s"])
        clear_cache()
        again = snapshot(ch8_service_tables(preset)["p99_first_chunk_s"])
        assert first == again
