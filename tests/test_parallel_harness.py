"""Tests for the parallel replication engine and the underlay fast paths.

The two invariants PR 1 must never break:

* ``run_replications`` is *execution-transparent* — ``jobs=1`` and
  ``jobs>1`` produce bit-identical experiment tables;
* the per-pair underlay caches are *behavior-transparent* — cached and
  uncached queries agree exactly on every host pair.

The pooled path's failure contract is pinned here too: a batch whose
worker raises or dies journals every replication that completed, raises
the lowest failing rep's error and leaves a fresh pool for the next
batch; an interrupt drains the running replications into the journal.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import experiments, journal, parallel
from repro.harness.parallel import (
    clamp_jobs,
    kill_pool,
    resolve_jobs,
    run_replications,
    shutdown_pool,
)
from repro.harness.presets import PRESETS
from repro.sim.network import MatrixUnderlay
from tests.helpers import (
    exit_on_marked_rep,
    interrupt_parent_on_marked_rep,
    lazy_transit_stub_underlay,
    line_matrix,
    raise_on_marked_rep,
)

SMOKE = PRESETS["smoke"]
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def fresh_cache():
    experiments.clear_cache()
    yield
    experiments.clear_cache()
    shutdown_pool()


# ---------------------------------------------------------------------------
# run_replications mechanics
# ---------------------------------------------------------------------------


def _echo_worker(tag: str, rep: int, seed: int) -> tuple[str, int, int]:
    return (tag, rep, seed)


def _raise_on_odd_rep(tag: str, rep: int, seed: int) -> tuple[str, int, int]:
    if rep % 2:
        raise RuntimeError(f"rep {rep} failed on purpose")
    return (tag, rep, seed)


class TestRunReplications:
    def test_serial_runs_in_rep_order(self):
        out = run_replications(_echo_worker, ("t",), [11, 22, 33], jobs=1)
        assert out == [("t", 0, 11), ("t", 1, 22), ("t", 2, 33)]

    def test_parallel_merges_in_rep_order(self):
        out = run_replications(_echo_worker, ("t",), list(range(100, 110)), jobs=2)
        assert out == [("t", rep, 100 + rep) for rep in range(10)]

    def test_parallel_equals_serial(self):
        serial = run_replications(_echo_worker, ("x",), [5, 6, 7], jobs=1)
        parallel = run_replications(_echo_worker, ("x",), [5, 6, 7], jobs=3)
        assert serial == parallel

    def test_single_replication_stays_in_process(self):
        # len(seeds) <= 1 short-circuits the pool even with jobs > 1.
        assert run_replications(_echo_worker, ("s",), [1], jobs=8) == [("s", 0, 1)]

    def test_resolve_jobs_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_resolve_jobs_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_resolve_jobs_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_resolve_jobs_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)

    def test_resolve_jobs_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(0)

    @pytest.mark.parametrize(
        ("jobs", "message"),
        [
            (-2, r"jobs must be >= 1, got -2"),
            (2.5, r"jobs must be an integer, got 2\.5"),
            (True, r"jobs must be an integer, got True"),
            ("2", r"jobs must be an integer, got '2'"),
        ],
    )
    def test_resolve_jobs_refuses_what_is_not_a_count(self, jobs, message):
        with pytest.raises(ValueError, match=message):
            resolve_jobs(jobs)

    def test_resolve_jobs_refuses_a_zero_env_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError, match=r"REPRO_JOBS must be >= 1, got 0"):
            resolve_jobs(None)

    def test_fractional_jobs_refused_before_any_pool(self):
        # Once a TypeError from inside ProcessPoolExecutor naming no field.
        with pytest.raises(ValueError, match="jobs must be an integer"):
            run_replications(_echo_worker, ("t",), [1, 2, 3], jobs=2.5)
        assert parallel._POOL is None

    @pytest.mark.parametrize(
        ("argv", "env"),
        [(["--jobs", "0"], None), (["--jobs", "-2"], None), ([], "0"), ([], "many")],
        ids=["jobs=0", "jobs=-2", "REPRO_JOBS=0", "REPRO_JOBS=many"],
    )
    def test_cli_refuses_bad_job_counts_before_the_journal(
        self, argv, env, tmp_path, monkeypatch, capsys
    ):
        from repro.harness import __main__ as cli

        if env is None:
            monkeypatch.delenv("REPRO_JOBS", raising=False)
        else:
            monkeypatch.setenv("REPRO_JOBS", env)
        jdir = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig3_25", "--preset", "smoke", "--journal", str(jdir), *argv])
        assert exit_info.value.code == 2
        assert "jobs" in capsys.readouterr().err.lower()
        assert not jdir.exists()


class TestClampJobs:
    def test_none_passes_through(self):
        assert clamp_jobs(None) is None

    def test_within_cpu_budget_is_untouched(self, monkeypatch):
        import warnings

        monkeypatch.setattr("os.cpu_count", lambda: 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning would fail the test
            assert clamp_jobs(8) == 8
            assert clamp_jobs(3) == 3

    def test_oversubscription_clamps_with_warning(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="clamping to 2"):
            assert clamp_jobs(16) == 2

    def test_unknown_cpu_count_assumes_one(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: None)
        with pytest.warns(RuntimeWarning, match="clamping to 1"):
            assert clamp_jobs(4) == 1

    def test_cli_jobs_flow_through_clamp(self, monkeypatch):
        from repro.harness import __main__ as cli

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        seen: dict = {}

        def fake_run(fig_id, preset, jobs=None, faults=None, failover=None):
            seen["jobs"] = jobs

            class _T:
                def render(self):
                    return ""

            return _T()

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        with pytest.warns(RuntimeWarning, match="clamping"):
            cli.main(["fig3_25", "--jobs", "9", "--preset", "smoke"])
        assert seen["jobs"] == 2


class TestPoolLifetime:
    def test_pool_reused_across_batches(self):
        run_replications(_echo_worker, ("m",), [1, 2], jobs=2)
        initial_pool = parallel._POOL
        run_replications(_echo_worker, ("m",), [3, 4], jobs=2)
        assert parallel._POOL is initial_pool

    def test_worker_count_change_recreates(self):
        run_replications(_echo_worker, ("m",), [1, 2], jobs=2)
        initial_pool = parallel._POOL
        run_replications(_echo_worker, ("m",), [1, 2, 3], jobs=3)
        assert parallel._POOL is not initial_pool
        assert parallel._POOL_WORKERS == 3

    def test_shutdown_clears_state(self):
        run_replications(_echo_worker, ("m",), [1, 2], jobs=2)
        shutdown_pool()
        assert parallel._POOL is None
        assert parallel._POOL_WORKERS == 0


class TestKillPool:
    def test_kill_pool_on_no_pool_is_noop(self):
        shutdown_pool()
        assert kill_pool() is None
        assert parallel._POOL is None

    def test_kill_pool_resets_state(self):
        run_replications(_echo_worker, ("t",), [1, 2], jobs=2)
        assert parallel._POOL is not None
        kill_pool()
        assert parallel._POOL is None
        assert parallel._POOL_WORKERS == 0

    def test_sigterm_handler_installed_with_pool(self):
        run_replications(_echo_worker, ("t",), [1, 2], jobs=2)
        assert parallel._SIGTERM_INSTALLED
        assert signal.getsignal(signal.SIGTERM) is parallel._handle_sigterm

    def test_sigterm_after_a_journaled_run_ends_the_process(self, tmp_path):
        """The pool is created inside a run context, so its teardown
        handler sits on top of the journal's SIGTERM conversion.  Once the
        run is over a SIGTERM must kill the workers and end the process
        with the SIGTERM status, not raise KeyboardInterrupt."""
        code = textwrap.dedent(
            f"""
            import os, signal, time
            from repro.harness import journal, parallel
            from repro.harness.parallel import run_replications
            from tests.helpers import raise_on_marked_rep

            with journal.run_context({str(tmp_path / "run")!r}):
                run_replications(
                    raise_on_marked_rep, ("absent", -1), [1, 2, 3], jobs=2,
                    key=("g",),
                )
            print(*parallel._POOL._processes, flush=True)
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(10)
            raise SystemExit("still alive after SIGTERM")
            """
        )
        path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGTERM, proc.stderr
        assert "KeyboardInterrupt" not in proc.stderr
        workers = [int(pid) for pid in proc.stdout.split()]
        assert len(workers) == 2
        for pid in workers:  # the handler reaped them before exiting
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


# ---------------------------------------------------------------------------
# pooled failures: completed replications reach the journal, the error of
# the lowest failing rep is raised, and --resume fills only the hole
# ---------------------------------------------------------------------------

SEEDS = [10, 11, 12, 13, 14, 15]


class TestPooledFailures:
    @pytest.mark.parametrize(
        ("worker", "error"),
        [(raise_on_marked_rep, RuntimeError), (exit_on_marked_rep, BrokenProcessPool)],
        ids=["raise", "exit"],
    )
    def test_failed_rep_raises_after_others_journaled(
        self, worker, error, tmp_path
    ):
        marker = tmp_path / "fail"
        marker.touch()
        bad = len(SEEDS) - 1
        args = (str(marker), bad)
        with pytest.raises(error):
            with journal.run_context(tmp_path / "run"):
                run_replications(worker, args, SEEDS, jobs=2, key=("g",))
        manifest = json.loads((tmp_path / "run" / journal.MANIFEST_NAME).read_text())
        assert manifest["status"] == "failed"
        assert manifest["journal_entries"] == len(SEEDS) - 1

        # The failed batch reset the pool: the next batch gets a fresh one.
        assert parallel._POOL is None
        assert run_replications(_echo_worker, ("u",), [4, 5], jobs=2) == [
            ("u", 0, 4), ("u", 1, 5),
        ]
        fresh = parallel._POOL
        assert fresh is not None

        # Cause fixed: --resume executes only the hole, and equals serial.
        marker.unlink()
        serial = run_replications(worker, args, SEEDS, jobs=1)
        with journal.run_context(tmp_path / "run", resume=True) as ctx:
            resumed = run_replications(worker, args, SEEDS, jobs=2, key=("g",))
            assert (ctx.journal.replayed, ctx.journal.appended) == (len(SEEDS) - 1, 1)
        assert resumed == serial == [[rep, seed] for rep, seed in enumerate(SEEDS)]

    def test_lowest_failing_rep_is_raised(self):
        # Three reps fail in whatever order the pool finishes them; the
        # raised error is always rep 1's.
        for _ in range(3):
            with pytest.raises(RuntimeError, match=r"^rep 1 failed"):
                run_replications(_raise_on_odd_rep, ("t",), SEEDS, jobs=2)

    def test_pool_resurrected_after_break(self, tmp_path):
        # A worker dying mid-batch breaks the pool; the next batch runs on
        # new worker processes, not on the broken executor.
        marker = tmp_path / "fail"
        marker.touch()
        run_replications(_echo_worker, ("t",), [1, 2], jobs=2)
        broken = parallel._POOL
        old_pids = set(broken._processes)
        with pytest.raises(BrokenProcessPool):
            run_replications(exit_on_marked_rep, (str(marker), 0), SEEDS, jobs=2)
        assert parallel._POOL is None
        assert run_replications(_echo_worker, ("u",), [3, 4], jobs=2) == [
            ("u", 0, 3), ("u", 1, 4),
        ]
        assert parallel._POOL is not broken
        assert not old_pids & set(parallel._POOL._processes)

    def test_pool_broken_while_idle_is_reset(self):
        run_replications(_echo_worker, ("t",), [1, 2], jobs=2)
        pool = parallel._POOL
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        for _ in range(200):  # until the executor has noticed the death
            if pool._broken:
                break
            time.sleep(0.025)
        assert pool._broken
        with pytest.raises(BrokenProcessPool):
            run_replications(_echo_worker, ("t",), [1, 2], jobs=2)
        assert parallel._POOL is None
        assert run_replications(_echo_worker, ("u",), [3, 4], jobs=2) == [
            ("u", 0, 3), ("u", 1, 4),
        ]

    def test_interrupt_journals_the_running_results(self, tmp_path):
        marker = tmp_path / "interrupt"
        marker.touch()
        seeds = list(range(20, 30))
        args = (str(marker), 0)
        run_replications(_echo_worker, ("warm",), [1, 2], jobs=2)  # pool is up
        with pytest.raises(KeyboardInterrupt):
            with journal.run_context(tmp_path / "run"):
                run_replications(
                    interrupt_parent_on_marked_rep, args, seeds, jobs=2, key=("g",)
                )
        assert parallel._POOL is None
        manifest = json.loads((tmp_path / "run" / journal.MANIFEST_NAME).read_text())
        assert manifest["status"] == "interrupted"
        lines = (tmp_path / "run" / journal.JOURNAL_NAME).read_text().splitlines()
        journaled = {entry["rep"]: entry["result"] for entry in map(json.loads, lines)}
        # Reps 0 and 1 were running when the interrupt landed and finish
        # inside the drain window; the queued tail was cancelled.
        assert {0, 1} <= set(journaled) and len(journaled) < len(seeds)
        assert all(result == [rep, seeds[rep]] for rep, result in journaled.items())


# ---------------------------------------------------------------------------
# serial / parallel experiment equivalence
# ---------------------------------------------------------------------------


class TestSerialParallelEquivalence:
    def test_ch3_churn_tables_bit_identical(self):
        preset = dataclasses.replace(SMOKE, replications=3)
        serial = {
            m: t.to_json()
            for m, t in experiments.ch3_churn_tables(preset).items()
        }
        experiments.clear_cache()
        parallel_preset = dataclasses.replace(preset, jobs=2)
        parallel = {
            m: t.to_json()
            for m, t in experiments.ch3_churn_tables(parallel_preset).items()
        }
        assert serial == parallel

    def test_ch5_mst_bit_identical(self):
        preset = dataclasses.replace(SMOKE, pl_replications=2)
        serial = experiments.ch5_mst_table(preset)["mst_ratio"].to_json()
        experiments.clear_cache()
        parallel = experiments.ch5_mst_table(
            dataclasses.replace(preset, jobs=2)
        )["mst_ratio"].to_json()
        assert serial == parallel


# ---------------------------------------------------------------------------
# underlay cache transparency
# ---------------------------------------------------------------------------


def _router_underlay_pair(monkeypatch_env: dict | None = None):
    from repro.harness.substrates import build_transit_stub_underlay
    from repro.topology.linkmodel import LinkErrorConfig
    from repro.topology.transit_stub import TransitStubConfig

    kwargs = dict(
        n_hosts=24,
        seed=9,
        ts_config=TransitStubConfig(
            total_nodes=100,
            transit_domains=2,
            transit_nodes_per_domain=3,
            stub_domains_per_transit=2,
        ),
        link_errors=LinkErrorConfig(max_error=0.05),
    )
    return build_transit_stub_underlay(**kwargs), kwargs


_CACHED_UL, _UL_KWARGS = _router_underlay_pair()


def _answers(underlay, a, b):
    return underlay.delay_ms(a, b), underlay.path_links(a, b), underlay.path_error(a, b)


host_pairs = st.tuples(
    st.integers(min_value=0, max_value=23), st.integers(min_value=0, max_value=23)
)


class TestUnderlayCaches:
    def test_cached_matches_uncached(self):
        """Memo transparency on the builder's substrate and its lazy twin:
        the first query of a pair on a fresh twin (a miss, computed), the
        repeat (a hit, served) and the long-warm module underlay all
        answer alike."""
        from repro.harness.substrates import build_transit_stub_underlay

        built = build_transit_stub_underlay(**_UL_KWARGS)
        lazy = lazy_transit_stub_underlay(**_UL_KWARGS)
        assert built is not _CACHED_UL and type(lazy) is not type(built)
        for twin in (built, lazy):
            for a in range(24):
                for b in range(24):
                    miss = _answers(twin, a, b)
                    assert miss == _answers(twin, a, b) == _answers(_CACHED_UL, a, b)

    def test_sparse_memos_answer_alike_across_a_cap_clear(self, monkeypatch):
        """``_PAIR_MEMO_CAP`` is a bound, not a switch: with the cap at 4
        every fifth new pair wipes the memo, and each answer — computed,
        served, or recomputed after a wipe — equals the long-warm module
        underlay's."""
        from repro.harness.substrates import build_transit_stub_underlay
        from repro.sim import sparse as sparse_module

        monkeypatch.setattr(sparse_module, "_PAIR_MEMO_CAP", 4)
        twin = build_transit_stub_underlay(**_UL_KWARGS)
        assert isinstance(twin, sparse_module.SparseUnderlay)
        pairs = [(a, b) for a in range(8) for b in range(8)]
        for a, b in pairs + pairs:  # second lap: every pair was wiped since
            miss = _answers(twin, a, b)
            assert miss == _answers(twin, a, b) == _answers(_CACHED_UL, a, b)
            memos = (twin._delay_cache, twin._path_cache, twin._error_cache)
            assert all(len(memo) <= 4 for memo in memos)

    @given(pair=host_pairs)
    @settings(max_examples=30, deadline=None)
    def test_repeat_queries_are_stable(self, pair):
        a, b = pair
        first = (
            _CACHED_UL.delay_ms(a, b),
            _CACHED_UL.path_links(a, b),
            _CACHED_UL.path_error(a, b),
        )
        second = (
            _CACHED_UL.delay_ms(a, b),
            _CACHED_UL.path_links(a, b),
            _CACHED_UL.path_error(a, b),
        )
        assert first == second

    def test_unknown_host_still_rejected_after_warmup(self):
        _CACHED_UL.delay_ms(2, 3)
        with pytest.raises(KeyError, match="unknown host"):
            _CACHED_UL.delay_ms(2, 999)


# ---------------------------------------------------------------------------
# malformed link ids (satellite fix)
# ---------------------------------------------------------------------------


class TestMalformedLinkIds:
    def make_matrix(self):
        return MatrixUnderlay(line_matrix([0.0, 10.0, 20.0]))

    @pytest.mark.parametrize(
        "link",
        [
            ("pair",),  # wrong arity: too short
            ("pair", 0),  # wrong arity: missing one host
            ("pair", 0, 1, 2),  # wrong arity: too long
            ("link", 0, 1),  # wrong kind
            "pair",  # not a tuple at all
            42,
            (),
        ],
    )
    def test_matrix_link_delay_raises_keyerror(self, link):
        with pytest.raises(KeyError, match="unknown link id"):
            self.make_matrix().link_delay(link)

    @pytest.mark.parametrize("link", [("pair", 0), ("pair", 0, 1, 2), "x", ()])
    def test_matrix_link_error_raises_keyerror(self, link):
        with pytest.raises(KeyError, match="unknown link id"):
            self.make_matrix().link_error(link)

    def test_matrix_wellformed_still_works(self):
        ul = self.make_matrix()
        assert ul.link_delay(("pair", 0, 1)) == 5.0
        assert ul.link_error(("pair", 0, 1)) == 0.0

    @pytest.mark.parametrize(
        "link",
        [("access",), ("access", 0, 1), ("router", 5), ("bogus", 1, 2), (), "access", 7],
    )
    def test_router_malformed_links_raise_keyerror(self, link):
        with pytest.raises(KeyError):
            _CACHED_UL.link_delay(link)
        with pytest.raises(KeyError):
            _CACHED_UL.link_error(link)
