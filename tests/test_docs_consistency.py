"""Docs-vs-repo consistency: every committed-snapshot name the docs and
the harness mention exists in the repository.

``BENCH_PR9.json`` was cited by README.md and was
``scalebench.DEFAULT_OUT`` for five PRs without ever being committed;
this keeps that from recurring silently.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_BENCH_RE = re.compile(r"BENCH_\w+\.json")


def _files_naming_snapshots() -> list[Path]:
    docs = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    return docs + sorted((ROOT / "src" / "repro" / "harness").glob("*.py"))


def test_every_named_bench_snapshot_is_committed():
    missing = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in _files_naming_snapshots()
        for name in _BENCH_RE.findall(path.read_text())
        if not (ROOT / name).is_file()
    }
    assert not missing, (
        f"snapshot(s) named but absent from the repo root: {sorted(missing)} — "
        "commit the file or fix the reference"
    )


def test_the_scan_sees_the_names_it_guards():
    # Spot-pin so a regex or path regression cannot make the check vacuous.
    from repro.harness.scalebench import DEFAULT_OUT

    named = {
        name
        for path in _files_naming_snapshots()
        for name in _BENCH_RE.findall(path.read_text())
    }
    assert {"BENCH_PR6.json", "BENCH_PR8.json", DEFAULT_OUT} <= named
