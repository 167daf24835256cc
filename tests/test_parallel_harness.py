"""Tests for the parallel replication engine and the underlay fast paths.

The two invariants PR 1 must never break:

* ``run_replications`` is *execution-transparent* — ``jobs=1`` and
  ``jobs>1`` produce bit-identical experiment tables;
* the per-pair underlay caches are *behavior-transparent* — cached and
  uncached queries agree exactly on every host pair.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import experiments
from repro.harness.parallel import (
    clamp_jobs,
    resolve_jobs,
    run_replications,
    shutdown_pool,
)
from repro.harness.presets import PRESETS
from repro.sim.network import MatrixUnderlay
from tests.helpers import lazy_transit_stub_underlay, line_matrix

SMOKE = PRESETS["smoke"]


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


# ---------------------------------------------------------------------------
# start-method handling (PR 4 satellite): the shared pool must be torn
# down and rebuilt when the *resolved* start method changes, not only
# when the worker count does — a stale fork pool would silently ignore a
# test (or user) forcing spawn via REPRO_START_METHOD.
# ---------------------------------------------------------------------------


class TestStartMethodRecreation:
    def _methods(self):
        import multiprocessing

        available = multiprocessing.get_all_start_methods()
        if "fork" not in available or "spawn" not in available:
            pytest.skip("needs both fork and spawn start methods")
        return "fork", "spawn"

    def test_pool_recreated_when_method_changes(self, monkeypatch):
        from repro.harness import parallel

        first, second = self._methods()
        monkeypatch.setenv(parallel.START_METHOD_ENV, first)
        out_first = run_replications(_echo_worker, ("m",), [1, 2], jobs=2)
        initial_pool = parallel._POOL
        assert parallel._POOL_METHOD == first
        monkeypatch.setenv(parallel.START_METHOD_ENV, second)
        out_second = run_replications(_echo_worker, ("m",), [1, 2], jobs=2)
        assert parallel._POOL is not initial_pool
        assert parallel._POOL_METHOD == second
        assert out_first == out_second  # results are method-independent

    def test_pool_reused_when_method_stable(self, monkeypatch):
        from repro.harness import parallel

        first, _ = self._methods()
        monkeypatch.setenv(parallel.START_METHOD_ENV, first)
        run_replications(_echo_worker, ("m",), [1, 2], jobs=2)
        initial_pool = parallel._POOL
        run_replications(_echo_worker, ("m",), [3, 4], jobs=2)
        assert parallel._POOL is initial_pool

    def test_worker_count_change_still_recreates(self, monkeypatch):
        from repro.harness import parallel

        first, _ = self._methods()
        monkeypatch.setenv(parallel.START_METHOD_ENV, first)
        run_replications(_echo_worker, ("m",), [1, 2], jobs=2)
        initial_pool = parallel._POOL
        run_replications(_echo_worker, ("m",), [1, 2, 3], jobs=3)
        assert parallel._POOL is not initial_pool
        assert parallel._POOL_WORKERS == 3

    def test_unknown_method_rejected(self, monkeypatch):
        from repro.harness import parallel

        monkeypatch.setenv(parallel.START_METHOD_ENV, "teleport")
        with pytest.raises(ValueError, match="REPRO_START_METHOD"):
            run_replications(_echo_worker, ("m",), [1, 2], jobs=2)

    def test_shutdown_clears_method_state(self, monkeypatch):
        from repro.harness import parallel

        first, _ = self._methods()
        monkeypatch.setenv(parallel.START_METHOD_ENV, first)
        run_replications(_echo_worker, ("m",), [1, 2], jobs=2)
        shutdown_pool()
        assert parallel._POOL is None
        assert parallel._POOL_WORKERS == 0
        assert parallel._POOL_METHOD is None


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
