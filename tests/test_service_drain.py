"""Graceful drain + journaled resume: a SIGTERM'd service run must be
resumable to *byte-identical* final metrics.

The in-process tests drive drain programmatically (a sim-scheduled
:meth:`ServiceRuntime.request_drain`, exactly what the CLI's SIGTERM
handler calls); one subprocess test exercises the real signal path
end to end via ``python -m repro.service --pace``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.harness import journal as journal_mod
from repro.harness.journal import RunJournalError
from repro.service.runtime import (
    ServiceConfig,
    ServiceDeterminismError,
    ServiceRuntime,
)
from repro.sim.network import MatrixUnderlay

CFG = ServiceConfig(
    scenario="poisson",
    duration_s=300.0,
    seed=11,
    n_hosts=24,
    arrival_rate_hz=0.15,
    hold_s=80.0,
)


def _underlay() -> MatrixUnderlay:
    rng = np.random.default_rng(7)
    pos = np.sort(rng.uniform(0.0, 100.0, CFG.n_hosts))
    return MatrixUnderlay(np.abs(pos[:, None] - pos[None, :]) * 2.0)


def _baseline_metrics() -> str:
    rt = ServiceRuntime(CFG, _underlay(), journal_outcomes=False)
    rt.run()
    return rt.metrics_json()


def _journaled_run(directory, *, resume: bool, drain_at_s: float | None = None):
    """One journaled service run; returns (runtime, metrics_json)."""
    with journal_mod.run_context(directory, resume=resume, manifest={"service": True}):
        rt = ServiceRuntime(CFG, _underlay(), journal_outcomes=True)
        if drain_at_s is not None:
            rt.sim.schedule(drain_at_s, rt.request_drain, label="test-drain")
        rt.run()
        return rt, rt.metrics_json()


class TestProgrammaticDrain:
    def test_drain_then_resume_is_byte_identical(self, tmp_path):
        baseline = _baseline_metrics()

        rt, _ = _journaled_run(tmp_path, resume=False, drain_at_s=150.0)
        assert rt.drained
        assert rt.report()["drain_time_s"] == pytest.approx(150.0)
        partial = len(rt._outcomes)
        assert 0 < partial  # some joins landed before the drain

        rt2, metrics = _journaled_run(tmp_path, resume=True)
        assert not rt2.drained
        assert len(rt2._outcomes) > partial
        assert metrics == baseline

        manifest = json.loads((tmp_path / "run.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["service"] is True

    def test_drain_stops_admissions_but_finishes_in_flight(self, tmp_path):
        rt, _ = _journaled_run(tmp_path, resume=False, drain_at_s=150.0)
        rep = rt.report()
        # nothing admitted after the drain point...
        assert all(o["arrival_s"] <= 150.0 for o in rt._outcomes.values())
        # ...but everything admitted before it ran to completion.
        admitted = [o for o in rt._outcomes.values() if o["admitted"]]
        assert admitted
        assert all(
            o["succeeded"] or not o["admitted"] or o["attempts"] > 0
            for o in rt._outcomes.values()
        )
        assert rep["invariant_violations"] == 0

    def test_resume_without_interruption_replays_everything(self, tmp_path):
        _, first = _journaled_run(tmp_path, resume=False)
        ctxs = []
        with journal_mod.run_context(tmp_path, resume=True, manifest={}) as ctx:
            rt = ServiceRuntime(CFG, _underlay(), journal_outcomes=True)
            rt.run()
            ctxs.append(ctx)
            assert rt.metrics_json() == first
        assert ctxs[0].journal.appended == 0  # pure replay, nothing new

    def test_fresh_journal_refuses_nonempty_dir_without_resume(self, tmp_path):
        _journaled_run(tmp_path, resume=False, drain_at_s=150.0)
        with pytest.raises(RunJournalError):
            with journal_mod.run_context(tmp_path, resume=False, manifest={}):
                pass


class TestJournalDamage:
    def test_torn_trailing_line_is_dropped_and_resume_matches(self, tmp_path):
        baseline = _baseline_metrics()
        _journaled_run(tmp_path, resume=False, drain_at_s=150.0)
        path = tmp_path / "journal.jsonl"
        with open(path, "ab") as fh:
            fh.write(b'{"key": ["ch8_service_run", "poisson"], "rep": 99')

        with pytest.warns(RuntimeWarning, match="torn trailing"):
            _, metrics = _journaled_run(tmp_path, resume=True)
        assert metrics == baseline
        # the fragment was truncated away, leaving a parseable journal
        for line in path.read_bytes().splitlines():
            json.loads(line)

    def test_corrupt_witness_entry_raises_determinism_error(self, tmp_path):
        _journaled_run(tmp_path, resume=False, drain_at_s=150.0)
        path = tmp_path / "journal.jsonl"
        lines = path.read_text().splitlines()
        entry = json.loads(lines[0])
        entry["result"]["attempts"] = 777  # valid JSON, wrong witness
        lines[0] = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")

        with pytest.raises(ServiceDeterminismError):
            _journaled_run(tmp_path, resume=True)

    def test_mid_file_garbage_refuses_resume(self, tmp_path):
        _journaled_run(tmp_path, resume=False, drain_at_s=150.0)
        path = tmp_path / "journal.jsonl"
        lines = path.read_text().splitlines()
        assert len(lines) >= 2
        lines[0] = "not json"
        path.write_text("\n".join(lines) + "\n")

        with pytest.raises(RunJournalError, match="mid-file"):
            _journaled_run(tmp_path, resume=True)


@pytest.mark.slow
class TestSigtermSubprocess:
    """The real signal path: SIGTERM a paced CLI run, then --resume it."""

    ARGS = [
        "poisson", "--duration", "300", "--seed", "11", "--hosts", "16",
        "--rate", "0.15", "--hold", "80",
    ]

    def _env(self):
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(root / "src")
        env.pop("REPRO_SERVICE_CHAOS", None)
        return env

    def _run(self, *extra, **kwargs):
        return subprocess.run(
            [sys.executable, "-m", "repro.service", *self.ARGS, *extra],
            capture_output=True, text=True, env=self._env(),
            timeout=120, **kwargs,
        )

    def test_sigterm_drains_then_resume_matches_uninterrupted(self, tmp_path):
        out = tmp_path / "metrics.json"
        ref = self._run("--metrics-out", str(out))
        assert ref.returncode == 0, ref.stderr
        baseline = out.read_bytes()

        jdir = tmp_path / "journal"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", *self.ARGS,
             "--journal", str(jdir), "--pace", "0.05"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=self._env(),
        )
        time.sleep(3.0)  # let it admit some joins, then interrupt mid-run
        proc.send_signal(signal.SIGTERM)
        stdout, _ = proc.communicate(timeout=120)
        assert proc.returncode == 130, stdout
        assert "drained" in stdout
        assert "--resume" in stdout  # prints the exact resume command
        journal = (jdir / "journal.jsonl").read_text()
        assert journal.strip()  # partial outcomes are durable
        manifest = json.loads((jdir / "run.json").read_text())
        assert manifest["status"] == "interrupted"

        out2 = tmp_path / "metrics2.json"
        resumed = self._run(
            "--journal", str(jdir), "--resume", "--metrics-out", str(out2)
        )
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert out2.read_bytes() == baseline
