"""FLAG_REGISTRY completeness: every ``REPRO_*`` environment variable the
codebase reads is registered, and every registration still has a read.

This is the satellite that keeps knobs discoverable: adding an
``os.environ`` read without a registry entry fails here, and so does
deleting a knob's last read site while leaving its entry behind.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.util.envflags import FLAG_REGISTRY, FlagSpec

SRC = Path(__file__).resolve().parent.parent / "src"

_FLAG_RE = re.compile(r"REPRO_[A-Z0-9_]+")


def _flags_in_source() -> set[str]:
    found: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        found.update(_FLAG_RE.findall(path.read_text()))
    return found


def test_every_source_flag_is_registered():
    unregistered = _flags_in_source() - set(FLAG_REGISTRY)
    assert not unregistered, (
        f"REPRO_* name(s) {sorted(unregistered)} appear in src/ but are not "
        "registered in repro.util.envflags.FLAG_REGISTRY — add an entry "
        "(default, one-line description, read site)"
    )


def test_every_registered_flag_is_read_somewhere():
    stale = set(FLAG_REGISTRY) - _flags_in_source()
    assert not stale, (
        f"FLAG_REGISTRY entr{'ies' if len(stale) > 1 else 'y'} "
        f"{sorted(stale)} no longer appear anywhere in src/ — remove the "
        "registration or restore the knob"
    )


def test_specs_are_complete():
    for name, spec in FLAG_REGISTRY.items():
        assert isinstance(spec, FlagSpec), name
        assert spec.default, name
        assert spec.description, name
        assert spec.read_in.startswith("repro."), name


def test_registry_covers_known_knobs():
    # Spot-pin a few load-bearing names so a regex regression in
    # _flags_in_source cannot silently make both directions vacuous.
    for name in (
        "REPRO_JOBS",
        "REPRO_SERVICE_CHAOS",
        "REPRO_BATCHED_REPS",
    ):
        assert name in FLAG_REGISTRY


def test_registered_defaults_are_the_module_constants():
    # A registry default restates a constant the code reads; this ties
    # the two wherever the constant exists (the cache root once read
    # ``~/.cache/repro-vdm`` here while the code used ``.repro_cache``).
    from repro.util import artifacts

    constants = {
        "REPRO_CACHE_DIR": artifacts.DEFAULT_CACHE_DIR,
        "REPRO_CACHE_MAX_BYTES": str(artifacts.DEFAULT_MAX_BYTES),
    }
    for name, value in constants.items():
        assert FLAG_REGISTRY[name].default == value, name


# The same two-way discipline for the paper's one arithmetic rule: the
# longest-side test with its relative tie slack lives in the validating
# reference (core/cases.py) and the join kernel (core/join.py).  Every
# engine used to carry its own inlined copy; this keeps them from
# growing back.
_TIE_SLACK_RE = re.compile(
    r"max(?:imum)?\(\s*longest\s*,\s*1\.0\s*\)"
    r"|longest\s+if\s+longest\s*>=\s*1\.0\s+else\s+1\.0"
)
_TIE_SLACK_HOMES = {"core/cases.py", "core/join.py"}


def test_tie_slack_arithmetic_lives_only_in_the_kernel():
    package = SRC / "repro"
    found = {
        path.relative_to(package).as_posix()
        for path in sorted(package.rglob("*.py"))
        if _TIE_SLACK_RE.search(path.read_text())
    }
    assert found == _TIE_SLACK_HOMES, (
        f"the Case I/II/III tie-slack expression appears in {sorted(found)}; "
        "call repro.core.join.split_cases instead of inlining it"
    )


# Oracles live in tests/, not behind switches in production paths: the
# retired ablation flags and the second implementations they selected,
# the engine-selector, approximation and row-store/shard sizing flags
# (there is one router-graph engine, sized by its input), and the perf
# reporter's repetition knob must not grow back — nor may src/ reach
# into tests/.
_RETIRED_RE = re.compile(
    r"def _reference_|\b(?:incremental_tree_enabled|_cache_enabled_from_env"
    r"|_tuple_heap|_fast_path|compiled_underlay_enabled|sparse_underlay_enabled"
    r"|sparse_exact|substrate_dtype|select_landmarks|sparse_row_cache|shard_bytes"
    r"|REPRO_(?:PERF_REPS|COMPILED_UNDERLAY|SPARSE_UNDERLAY|SPARSE_EXACT"
    r"|SUBSTRATE_DTYPE|SPARSE_ROWS|SHARD_BYTES))\b|^\s*(?:from|import)\s+tests\b",
    re.MULTILINE,
)


def test_no_oracle_or_retired_switch_in_production_code():
    found = {
        path.relative_to(SRC).as_posix(): sorted(set(_RETIRED_RE.findall(text)))
        for path in sorted(SRC.rglob("*.py"))
        if _RETIRED_RE.search(text := path.read_text())
    }
    assert not found, (
        f"retired switch or in-production oracle in {found}; state the "
        "reference answer in tests/oracles.py and compare against it there"
    )
    assert _RETIRED_RE.search("def _reference_x(): self._fast_path")  # scan works
    assert _RETIRED_RE.search('os.environ.get("REPRO_SPARSE_EXACT", "1")')
    assert len(FLAG_REGISTRY) == 6


def test_oracles_module_does_not_call_the_code_under_test():
    """``tests/oracles.py`` may name ``repro`` types in annotations (under
    ``TYPE_CHECKING``) and nothing more: an oracle that imported the
    package at run time could end up restating the answer by calling it."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    typing_only = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If)
        and isinstance(block.test, ast.Name)
        and block.test.id == "TYPE_CHECKING"
        for stmt in block.body
        for node in ast.walk(stmt)
    }
    runtime_imports = []
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.Import):
            runtime_imports += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            runtime_imports.append(node.module or "")
    offenders = [m for m in runtime_imports if m.split(".")[0] in ("repro", "tests")]
    assert not offenders, f"tests/oracles.py imports {offenders} at run time"
    assert "numpy" in runtime_imports  # the walk sees the imports it filters
