"""Tests for the crash-safe supervision layer (PR 5 tentpole).

The invariants under test:

* **Determinism through failure** — a batch whose workers are killed,
  hung, or made to raise must still produce results bit-identical to a
  serial fault-free run (seeds are derived before dispatch, so a retry
  recomputes exactly the same replication).
* **Exact blame** — a collective pool break never charges attempts to
  innocent in-flight tasks; only self-attributing failures (timeout,
  solo break, worker exception) consume the retry budget.
* **Graceful quarantine** — a persistently failing task is quarantined
  as a structured :class:`TaskFailure` *after* the rest of the batch
  drains, so completed work is never discarded with the error.
"""

from __future__ import annotations

import dataclasses
import json
import signal

import pytest

from repro.harness import chaos, experiments, parallel
from repro.harness.chaos import ChaosRule, load_plan
from repro.harness.parallel import kill_pool, run_replications, shutdown_pool
from repro.harness.presets import PRESETS
from repro.harness.supervisor import (
    SupervisorConfig,
    SweepAborted,
    TaskFailure,
    run_supervised,
)

SMOKE = PRESETS["smoke"]


@pytest.fixture(autouse=True)
def fresh_state(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_BACKOFF_S", "0")
    experiments.clear_cache()
    yield
    experiments.clear_cache()
    shutdown_pool()


def _echo_worker(tag: str, rep: int, seed: int) -> tuple[str, int, int]:
    return (tag, rep, seed)


def _chaos(monkeypatch, *rules: dict) -> None:
    monkeypatch.setenv(chaos.CHAOS_ENV, json.dumps(list(rules)))


# ---------------------------------------------------------------------------
# chaos plan parsing and matching
# ---------------------------------------------------------------------------


class TestChaosPlan:
    def test_unset_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
        assert load_plan() == ()

    def test_inline_json(self, monkeypatch):
        _chaos(monkeypatch, {"action": "kill", "group": "g", "rep": 1})
        (rule,) = load_plan()
        assert rule == ChaosRule(action="kill", group="g", rep=1)

    def test_file_reference(self, tmp_path, monkeypatch):
        plan = tmp_path / "plan.json"
        plan.write_text('[{"action": "raise"}]')
        monkeypatch.setenv(chaos.CHAOS_ENV, f"@{plan}")
        (rule,) = load_plan()
        assert rule.action == "raise"

    @pytest.mark.parametrize(
        "raw",
        [
            "not json",
            '{"action": "kill"}',  # object, not list
            '[{"action": "explode"}]',  # unknown action
            '[{"action": "kill", "who": "me"}]',  # unknown field
            "[42]",  # not an object
        ],
    )
    def test_malformed_plans_are_rejected(self, raw):
        with pytest.raises(ValueError, match="REPRO_CHAOS"):
            load_plan(raw)

    def test_matching_is_by_group_rep_attempt(self):
        rule = ChaosRule(action="kill", group="g", rep=2, max_attempt=1)
        assert rule.applies(("g", "VDM", 0.1), 2, 1)
        assert not rule.applies(("g",), 2, 2)  # later attempt
        assert not rule.applies(("g",), 1, 1)  # other rep
        assert not rule.applies(("other",), 2, 1)  # other group
        assert not rule.applies(None, 2, 1)  # un-keyed task

    def test_groupless_rule_matches_any_key(self):
        rule = ChaosRule(action="raise", rep=0)
        assert rule.applies(None, 0, 1)
        assert rule.applies(("anything",), 0, 1)


# ---------------------------------------------------------------------------
# failure recovery: kills, hangs, raises
# ---------------------------------------------------------------------------


class TestFailureRecovery:
    def test_killed_worker_retried_equals_serial(self, monkeypatch):
        serial = run_replications(_echo_worker, ("t",), [5, 6, 7, 8], jobs=1)
        _chaos(monkeypatch, {"action": "kill", "group": "grp", "rep": 1})
        out = run_replications(
            _echo_worker, ("t",), [5, 6, 7, 8], jobs=2, key=("grp",)
        )
        assert out == serial

    def test_raising_worker_retried_equals_serial(self, monkeypatch):
        serial = run_replications(_echo_worker, ("t",), [5, 6, 7, 8], jobs=1)
        _chaos(monkeypatch, {"action": "raise", "group": "grp", "rep": 2})
        out = run_replications(
            _echo_worker, ("t",), [5, 6, 7, 8], jobs=2, key=("grp",)
        )
        assert out == serial

    def test_hang_reaped_by_timeout_and_retried(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT_S", "1.5")
        _chaos(
            monkeypatch,
            {"action": "hang", "group": "grp", "rep": 0, "hang_s": 600},
        )
        out = run_replications(
            _echo_worker, ("t",), [1, 2, 3], jobs=2, key=("grp",)
        )
        assert out == [("t", 0, 1), ("t", 1, 2), ("t", 2, 3)]

    def test_pool_resurrected_after_break(self, monkeypatch):
        _chaos(monkeypatch, {"action": "kill", "group": "grp", "rep": 0})
        run_replications(_echo_worker, ("t",), [1, 2, 3], jobs=2, key=("grp",))
        # The pool must be usable again without any manual intervention.
        monkeypatch.delenv(chaos.CHAOS_ENV)
        out = run_replications(_echo_worker, ("u",), [4, 5, 6], jobs=2)
        assert out == [("u", 0, 4), ("u", 1, 5), ("u", 2, 6)]

    def test_multiple_simultaneous_faults(self, monkeypatch):
        serial = run_replications(_echo_worker, ("t",), list(range(6)), jobs=1)
        _chaos(
            monkeypatch,
            {"action": "kill", "group": "grp", "rep": 1},
            {"action": "raise", "group": "grp", "rep": 3},
            {"action": "kill", "group": "grp", "rep": 4},
        )
        out = run_replications(
            _echo_worker, ("t",), list(range(6)), jobs=2, key=("grp",)
        )
        assert out == serial


# ---------------------------------------------------------------------------
# quarantine: exhausting the retry budget
# ---------------------------------------------------------------------------


class TestQuarantine:
    def test_persistent_kill_quarantines_and_drains(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "2")
        _chaos(
            monkeypatch,
            {"action": "kill", "group": "grp", "rep": 1, "max_attempt": 99},
        )
        delivered: dict[int, tuple] = {}
        with pytest.raises(SweepAborted) as err:
            run_supervised(
                _echo_worker,
                ("t",),
                [(0, 10), (1, 11), (2, 12), (3, 13)],
                workers=2,
                key=("grp",),
                on_result=lambda rep, seed, res: delivered.__setitem__(rep, res),
            )
        (failure,) = err.value.failures
        assert isinstance(failure, TaskFailure)
        assert failure.rep == 1
        assert failure.kind == "pool-break"
        assert failure.attempts == 2
        assert chaos.KILL_EXIT_CODE in failure.exit_codes
        # Every healthy task completed before the abort surfaced.
        assert delivered == {0: ("t", 0, 10), 2: ("t", 2, 12), 3: ("t", 3, 13)}

    def test_persistent_hang_quarantines(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "2")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT_S", "1")
        _chaos(
            monkeypatch,
            {"action": "hang", "group": "grp", "rep": 0,
             "hang_s": 600, "max_attempt": 99},
        )
        delivered: dict[int, tuple] = {}
        with pytest.raises(SweepAborted) as err:
            run_supervised(
                _echo_worker,
                ("t",),
                [(0, 10), (1, 11), (2, 12)],
                workers=2,
                key=("grp",),
                on_result=lambda rep, seed, res: delivered.__setitem__(rep, res),
            )
        (failure,) = err.value.failures
        assert failure.kind == "timeout"
        assert "wall-clock timeout" in failure.error
        assert sorted(delivered) == [1, 2]

    def test_persistent_exception_quarantines(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "2")
        _chaos(
            monkeypatch,
            {"action": "raise", "group": "grp", "rep": 2, "max_attempt": 99},
        )
        with pytest.raises(SweepAborted) as err:
            run_replications(
                _echo_worker, ("t",), [1, 2, 3, 4], jobs=2, key=("grp",)
            )
        (failure,) = err.value.failures
        assert failure.kind == "exception"
        assert "ChaosError" in failure.error

    def test_innocents_are_never_charged(self, monkeypatch):
        # Reps 0-3 ride alongside a poison task with a retry budget of 2:
        # if the collective pool break charged everyone, some innocent
        # would be quarantined too.  Exactly one failure must surface.
        monkeypatch.setenv("REPRO_TASK_RETRIES", "2")
        _chaos(
            monkeypatch,
            {"action": "kill", "group": "grp", "rep": 4, "max_attempt": 99},
        )
        with pytest.raises(SweepAborted) as err:
            run_replications(
                _echo_worker, ("t",), [1, 2, 3, 4, 5], jobs=2, key=("grp",)
            )
        assert [f.rep for f in err.value.failures] == [4]


# ---------------------------------------------------------------------------
# determinism on real experiment tables
# ---------------------------------------------------------------------------


class TestRetryDeterminism:
    def test_chaos_tables_bit_identical_to_serial(self, monkeypatch):
        preset = dataclasses.replace(SMOKE, replications=3)
        serial = {
            m: t.to_json()
            for m, t in experiments.ch3_churn_tables(preset).items()
        }
        experiments.clear_cache()
        _chaos(
            monkeypatch,
            {"action": "kill", "group": "ch3_churn", "rep": 1},
            {"action": "raise", "group": "ch3_churn", "rep": 0},
        )
        chaotic = {
            m: t.to_json()
            for m, t in experiments.ch3_churn_tables(
                dataclasses.replace(preset, jobs=2)
            ).items()
        }
        assert chaotic == serial


# ---------------------------------------------------------------------------
# supervision mechanics
# ---------------------------------------------------------------------------


class TestSupervisorConfig:
    def test_from_env_defaults(self, monkeypatch):
        for var in ("REPRO_TASK_TIMEOUT_S", "REPRO_TASK_RETRIES",
                    "REPRO_RETRY_BACKOFF_S", "REPRO_GRACE_S"):
            monkeypatch.delenv(var, raising=False)
        cfg = SupervisorConfig.from_env()
        assert cfg.timeout_s is None
        assert cfg.retry.max_attempts == 3
        assert cfg.retry.backoff_base_s == 0.25
        assert cfg.grace_s == 5.0

    def test_from_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT_S", "12.5")
        monkeypatch.setenv("REPRO_TASK_RETRIES", "5")
        monkeypatch.setenv("REPRO_GRACE_S", "1")
        cfg = SupervisorConfig.from_env()
        assert cfg.timeout_s == 12.5
        assert cfg.retry.max_attempts == 5
        assert cfg.grace_s == 1.0

    def test_bad_retry_count_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "0")
        with pytest.raises(ValueError, match="REPRO_TASK_RETRIES"):
            SupervisorConfig.from_env()

    def test_stats_returned_on_success(self, monkeypatch):
        _chaos(monkeypatch, {"action": "raise", "group": "grp", "rep": 0})
        stats = run_supervised(
            _echo_worker,
            ("t",),
            [(0, 1), (1, 2), (2, 3)],
            workers=2,
            key=("grp",),
            on_result=lambda *a: None,
        )
        assert stats.retries >= 1


class TestKillPool:
    def test_kill_pool_on_no_pool_is_noop(self):
        shutdown_pool()
        assert kill_pool() == []

    def test_kill_pool_resets_state(self):
        run_replications(_echo_worker, ("t",), [1, 2], jobs=2)
        assert parallel._POOL is not None
        kill_pool()
        assert parallel._POOL is None
        assert parallel._POOL_WORKERS == 0
        assert parallel._POOL_METHOD is None

    def test_sigterm_handler_installed_with_pool(self):
        run_replications(_echo_worker, ("t",), [1, 2], jobs=2)
        assert parallel._SIGTERM_INSTALLED
        assert signal.getsignal(signal.SIGTERM) is parallel._handle_sigterm
