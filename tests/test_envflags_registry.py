"""FLAG_REGISTRY completeness: every ``REPRO_*`` environment variable the
codebase reads is registered, and every registration still has a read.

This is the satellite that keeps knobs discoverable: adding an
``os.environ`` read without a registry entry fails here, and so does
deleting a knob's last read site while leaving its entry behind.
"""

from __future__ import annotations

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
        "REPRO_CHAOS",
        "REPRO_SERVICE_CHAOS",
        "REPRO_JOURNAL_DIR",
        "REPRO_RETRY_BACKOFF_S",
        "REPRO_BATCHED_REPS",
    ):
        assert name in FLAG_REGISTRY


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
