"""Docs-vs-repo consistency: every committed-snapshot name the docs and
the harness mention exists in the repository, and every ``REPRO_*`` knob
the docs name is one the code still reads.

``BENCH_PR9.json`` was cited by README.md and was
``scalebench.DEFAULT_OUT`` for five PRs without ever being committed;
this keeps that from recurring silently.  The flag scan does the same
for demoted flags: ``tests/test_envflags_registry.py`` ties the registry
to the reads under ``src/``, this ties the docs to the registry.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_BENCH_RE = re.compile(r"BENCH_\w+\.json")
_FLAG_RE = re.compile(r"REPRO_[A-Z_]+")
_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

#: knobs the docs may name although ``src/`` never reads them (so the
#: registry, which is scanned against ``src/``, cannot list them).
_READ_OUTSIDE_SRC = {
    "REPRO_BENCH_PRESET",  # benchmarks/conftest.py
}


def _files_naming_snapshots() -> list[Path]:
    docs = [ROOT / name for name in _DOCS]
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


def test_every_flag_the_docs_name_is_registered():
    from repro.util.envflags import FLAG_REGISTRY

    stale = {
        f"{name}: {flag}"
        for name in _DOCS
        for flag in _FLAG_RE.findall((ROOT / name).read_text())
        if flag not in FLAG_REGISTRY and flag not in _READ_OUTSIDE_SRC
    }
    assert not stale, (
        f"docs name REPRO_* knob(s) nothing reads any more: {sorted(stale)} — "
        "drop the mention, or register the flag in repro.util.envflags"
    )


def test_the_flag_allow_list_is_not_a_hiding_place():
    from repro.util.envflags import FLAG_REGISTRY

    assert not _READ_OUTSIDE_SRC & set(FLAG_REGISTRY)
    for flag in _READ_OUTSIDE_SRC:
        assert flag in (ROOT / "benchmarks" / "conftest.py").read_text()
    named = {
        flag for name in _DOCS for flag in _FLAG_RE.findall((ROOT / name).read_text())
    }
    assert {"REPRO_JOBS", "REPRO_SPARSE_ROWS"} | _READ_OUTSIDE_SRC <= named
