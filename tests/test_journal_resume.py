"""Tests for journaled checkpoint/resume (PR 5 tentpole).

The contract: a run interrupted after *k* completed replications, then
resumed, must (a) re-execute only the missing tasks and (b) render
tables byte-identical to an uninterrupted run.  That hinges on JSON
float round-tripping (shortest-repr floats parse back to the same
IEEE-754 doubles), recipe hashing that ignores execution policy, and an
append discipline that survives torn writes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal

import pytest

from repro.harness import experiments, journal
from repro.harness.journal import (
    RunJournal,
    RunJournalError,
    recipe_hash,
    run_context,
)
from repro.harness.parallel import run_replications, shutdown_pool
from repro.harness.presets import PRESETS

SMOKE = PRESETS["smoke"]


@pytest.fixture(autouse=True)
def fresh_state():
    experiments.clear_cache()
    yield
    experiments.clear_cache()
    shutdown_pool()
    assert journal.active() is None  # no test may leak an open run


def _float_worker(tag: str, rep: int, seed: int) -> dict:
    # Awkward floats on purpose: the journal must round-trip them exactly.
    return {"v": seed * 0.1 + 1e-17, "third": seed / 3.0, "rep": rep}


def _count_worker(tag: str, rep: int, seed: int) -> list:
    # Returns a JSON-natural value: journal replay hands back parsed
    # JSON, so a tuple-returning worker would compare unequal after a
    # resume (tuples become lists).  Real replication workers return
    # dicts of floats for exactly this reason.
    path = os.environ["REPRO_TEST_COUNT_FILE"]
    with open(path, "a") as fh:
        fh.write(f"{rep}\n")
    return [tag, rep, seed]


# ---------------------------------------------------------------------------
# journal storage semantics
# ---------------------------------------------------------------------------


class TestRunJournal:
    def test_record_then_lookup_roundtrips_floats(self, tmp_path):
        j = RunJournal(tmp_path)
        result = {"v": 0.1 + 0.2, "w": 1e-300, "n": [1.5, 2 / 3]}
        j.record(("g", 0.06), 0, 42, "r" * 64, result)
        j.close()
        j2 = RunJournal(tmp_path, resume=True)
        hit = j2.lookup(("g", 0.06), 0, 42, "r" * 64)
        assert not RunJournal.is_miss(hit)
        assert hit == result
        assert hit["v"] == 0.1 + 0.2 and hit["w"] == 1e-300
        j2.close()

    def test_fresh_run_refuses_nonempty_journal(self, tmp_path):
        j = RunJournal(tmp_path)
        j.record(("g",), 0, 1, "r", 1.0)
        j.close()
        with pytest.raises(RunJournalError, match="--resume"):
            RunJournal(tmp_path)

    def test_mismatched_recipe_is_a_miss(self, tmp_path):
        j = RunJournal(tmp_path)
        j.record(("g",), 0, 1, "recipe-a", 1.0)
        assert RunJournal.is_miss(j.lookup(("g",), 0, 1, "recipe-b"))
        assert not RunJournal.is_miss(j.lookup(("g",), 0, 1, "recipe-a"))
        j.close()

    def test_torn_trailing_line_tolerated(self, tmp_path):
        j = RunJournal(tmp_path)
        j.record(("g",), 0, 1, "r", 1.0)
        j.record(("g",), 1, 2, "r", 2.0)
        j.close()
        path = tmp_path / journal.JOURNAL_NAME
        path.write_text(path.read_text() + '{"key": ["g"], "rep": 2')
        with pytest.warns(RuntimeWarning, match="torn trailing"):
            j2 = RunJournal(tmp_path, resume=True)
        assert len(j2) == 2
        assert j2.lookup(("g",), 1, 2, "r") == 2.0
        j2.close()

    def test_torn_line_truncated_before_append(self, tmp_path):
        """Crash -> resume -> record -> resume again must stay parseable.

        The torn fragment has to be truncated from the file, not just
        dropped from the index: otherwise the resumed run's first append
        concatenates onto it and every later resume refuses the journal.
        """
        j = RunJournal(tmp_path)
        j.record(("g",), 0, 1, "r", 1.0)
        j.close()
        path = tmp_path / journal.JOURNAL_NAME
        path.write_text(path.read_text() + '{"key": ["g"], "rep": 1')
        with pytest.warns(RuntimeWarning, match="torn trailing"):
            j2 = RunJournal(tmp_path, resume=True)
        j2.record(("g",), 1, 2, "r", 2.0)
        j2.record(("g",), 2, 3, "r", 3.0)
        j2.close()
        j3 = RunJournal(tmp_path, resume=True)  # must not warn or raise
        assert len(j3) == 3
        assert j3.lookup(("g",), 1, 2, "r") == 2.0
        assert j3.lookup(("g",), 2, 3, "r") == 3.0
        j3.close()

    def test_midfile_corruption_refused(self, tmp_path):
        j = RunJournal(tmp_path)
        j.record(("g",), 0, 1, "r", 1.0)
        j.record(("g",), 1, 2, "r", 2.0)
        j.close()
        path = tmp_path / journal.JOURNAL_NAME
        lines = path.read_text().splitlines()
        lines[0] = "garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RunJournalError, match="corrupt journal entry"):
            RunJournal(tmp_path, resume=True)

    def test_duplicate_records_deduplicated(self, tmp_path):
        j = RunJournal(tmp_path)
        j.record(("g",), 0, 1, "r", 1.0)
        j.record(("g",), 0, 1, "r", 1.0)
        assert j.appended == 1 and len(j) == 1
        j.close()


class TestRecipeHash:
    def test_jobs_is_execution_policy_not_recipe(self):
        p2 = dataclasses.replace(SMOKE, jobs=2)
        p8 = dataclasses.replace(SMOKE, jobs=8)
        assert recipe_hash(_float_worker, (p2, 0.06)) == recipe_hash(
            _float_worker, (p8, 0.06)
        )

    def test_result_shaping_fields_change_the_hash(self):
        changed = dataclasses.replace(SMOKE, replications=SMOKE.replications + 1)
        assert recipe_hash(_float_worker, (SMOKE,)) != recipe_hash(
            _float_worker, (changed,)
        )

    def test_worker_identity_changes_the_hash(self):
        assert recipe_hash(_float_worker, (1,)) != recipe_hash(_count_worker, (1,))


# ---------------------------------------------------------------------------
# run_replications + journal integration
# ---------------------------------------------------------------------------


class TestJournaledRuns:
    def test_results_checkpointed_and_replayed_exactly(self, tmp_path):
        seeds = [3, 7, 11]
        with run_context(tmp_path):
            first = run_replications(
                _float_worker, ("t",), seeds, jobs=1, key=("g",)
            )
        with run_context(tmp_path, resume=True) as ctx:
            second = run_replications(
                _float_worker, ("t",), seeds, jobs=1, key=("g",)
            )
            assert ctx.journal.replayed == 3 and ctx.journal.appended == 0
        assert second == first  # exact float equality via == on dicts

    def test_resume_executes_only_missing_tasks(self, tmp_path, monkeypatch):
        counter = tmp_path / "calls.txt"
        monkeypatch.setenv("REPRO_TEST_COUNT_FILE", str(counter))
        seeds = [10, 20, 30, 40]
        with run_context(tmp_path / "run"):
            run_replications(_count_worker, ("t",), seeds, jobs=1, key=("g",))
        assert sorted(counter.read_text().split()) == ["0", "1", "2", "3"]

        # Simulate a crash that lost the last two results.
        jpath = tmp_path / "run" / journal.JOURNAL_NAME
        lines = jpath.read_text().splitlines()[:2]
        jpath.write_text("\n".join(lines) + "\n")
        counter.write_text("")
        with run_context(tmp_path / "run", resume=True):
            out = run_replications(
                _count_worker, ("t",), seeds, jobs=1, key=("g",)
            )
        assert sorted(counter.read_text().split()) == ["2", "3"]
        assert out == [["t", rep, seeds[rep]] for rep in range(4)]

    def test_unkeyed_calls_bypass_the_journal(self, tmp_path):
        with run_context(tmp_path) as ctx:
            run_replications(_float_worker, ("t",), [1, 2], jobs=1)
            assert len(ctx.journal) == 0

    def test_nested_run_contexts_refused(self, tmp_path):
        with run_context(tmp_path / "a"):
            with pytest.raises(RunJournalError, match="already active"):
                with run_context(tmp_path / "b"):
                    pass


# ---------------------------------------------------------------------------
# manifest + signal handling
# ---------------------------------------------------------------------------


class TestRunContext:
    def _manifest(self, directory):
        return json.loads((directory / journal.MANIFEST_NAME).read_text())

    def test_manifest_lifecycle(self, tmp_path):
        with run_context(tmp_path, manifest={"preset": "smoke"}) as ctx:
            assert self._manifest(tmp_path)["status"] == "running"
            run_replications(_float_worker, ("t",), [1, 2], jobs=1, key=("g",))
            ctx.write_manifest()
        m = self._manifest(tmp_path)
        assert m["status"] == "complete"
        assert m["schema"] == "repro-run-manifest/1"
        assert m["preset"] == "smoke"
        assert m["journal_entries"] == 2
        assert json.dumps(["g"]) in m["recipes"]

    def test_interrupt_stamps_manifest_interrupted(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with run_context(tmp_path):
                raise KeyboardInterrupt()
        assert self._manifest(tmp_path)["status"] == "interrupted"

    def test_failure_stamps_manifest_failed(self, tmp_path):
        with pytest.raises(RuntimeError):
            with run_context(tmp_path):
                raise RuntimeError("boom")
        assert self._manifest(tmp_path)["status"] == "failed"

    def test_sigterm_becomes_keyboard_interrupt(self, tmp_path):
        with pytest.raises(KeyboardInterrupt, match="signal"):
            with run_context(tmp_path):
                os.kill(os.getpid(), signal.SIGTERM)
                signal.sigtimedwait([], 1)  # let the handler run
        assert self._manifest(tmp_path)["status"] == "interrupted"

    def test_setup_failure_releases_active_slot(self, tmp_path, monkeypatch):
        """A failed initial manifest write must not wedge the process.

        If the up-front ``write_manifest`` raises (ENOSPC, unwritable
        dir), the context must still clear the process-wide active slot
        and close the journal, or every later run_context would refuse
        with "already active".
        """
        monkeypatch.setattr(
            journal.RunContext,
            "write_manifest",
            lambda self, status=None: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(OSError, match="disk full"):
            with run_context(tmp_path / "a"):
                pass  # pragma: no cover - never entered
        assert journal.active() is None
        monkeypatch.undo()
        with run_context(tmp_path / "b"):  # slot was released
            pass

    def test_previous_sigterm_handler_restored(self, tmp_path):
        before = signal.getsignal(signal.SIGTERM)
        with run_context(tmp_path):
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before


# ---------------------------------------------------------------------------
# CLI round trip: interrupt-free journal + resume renders identically
# ---------------------------------------------------------------------------


class TestCLIResume:
    def test_journal_then_resume_byte_identical(self, tmp_path, capsys):
        from repro.harness import __main__ as cli

        jdir = tmp_path / "run"
        argv = ["fig3_25", "--preset", "smoke", "--json", "--journal", str(jdir)]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        experiments.clear_cache()

        # Drop one journaled result; --resume must fill the hole and
        # render the same bytes.
        jpath = jdir / journal.JOURNAL_NAME
        lines = jpath.read_text().splitlines()
        jpath.write_text("\n".join(lines[:-1]) + "\n")
        assert cli.main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert second == first

    def test_failure_prints_the_resume_command(self, tmp_path, monkeypatch, capsys):
        from repro.harness import __main__ as cli

        def failing_run(*args, **kwargs):
            raise RuntimeError("rep 3 failed")

        monkeypatch.setattr(cli, "run_experiment", failing_run)
        jdir = tmp_path / "run"
        argv = ["fig3_25", "--preset", "smoke", "--journal", str(jdir)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "RuntimeError: rep 3 failed" in err
        assert f"--journal {jdir} --resume" in err
        manifest = json.loads((jdir / journal.MANIFEST_NAME).read_text())
        assert manifest["status"] == "failed"

    def test_resume_without_journal_dir_errors(self):
        from repro.harness import __main__ as cli

        with pytest.raises(SystemExit):
            cli.main(["fig3_25", "--resume"])
