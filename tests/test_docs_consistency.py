"""Docs-vs-repo consistency: the docs and the harness name no root perf
snapshot (there are none: ``bench/`` is the one perf tool and keeps its
baselines under ``bench/out/``), every ``REPRO_*`` knob the docs name
is one the code still reads, and the scale walk's docs state the handle
bound it keeps rather than a handle per pivot decision.

``tests/test_envflags_registry.py`` ties the flag registry to the reads
under ``src/``; the flag scan here ties the docs to the registry.  The
repository layout in DESIGN §2 names exactly the files that exist, and
every dotted ``repro.*`` module the docs name is one of them.

The docs also keep to budgets: DESIGN.md states the design as it is in
at most 35 000 bytes with no "PR <n>" narration (nor does README.md),
EXPERIMENTS.md is the paper-vs-measured record in at most 22 000 bytes
with no host-cost history, README.md fits in 24 000 bytes (timings are
``bench/run.py``'s to report), each numbered entry at the head of
CHANGES.md fits in 1 500 bytes, and every "DESIGN §N[.M]" pointer in the code, the tests,
CI and the docs names a section DESIGN.md has.
"""

from __future__ import annotations

import importlib
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


def test_no_root_bench_snapshot_is_named():
    named = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in _files_naming_snapshots()
        for name in _BENCH_RE.findall(path.read_text())
    }
    assert not named, (
        f"root perf snapshot(s) named: {sorted(named)} — price performance "
        "with bench/run.py and bench/compare.py instead"
    )
    # Spot-pin so a regex or path regression cannot make the check vacuous.
    assert _BENCH_RE.findall("BENCH_PR6.json, bench/out/a.json") == ["BENCH_PR6.json"]
    scanned = {path.name for path in _files_naming_snapshots()}
    assert {"README.md", "EXPERIMENTS.md", "__main__.py", "substrates.py"} <= scanned


_ONCE_PER_PIVOT_RE = re.compile(r"once\s+per\s+pivot")
_HANDLE_BOUND_RE = re.compile(r"at\s+most\s+\**2·\(n−1\)\**\s+handles")


def _scale_walk_docs() -> dict[str, str]:
    import repro.harness.scale as scale

    design = (ROOT / "DESIGN.md").read_text()
    start = design.index("\n## 11. ")
    return {
        "DESIGN.md §11": design[start : design.index("\n## 12. ", start)],
        "README.md": (ROOT / "README.md").read_text(),
        "harness/scale.py docstring": scale.__doc__,
    }


def test_scale_walk_docs_name_the_handle_bound():
    docs = _scale_walk_docs()
    for name, text in docs.items():
        assert not _ONCE_PER_PIVOT_RE.search(text), (
            f"{name} still says a handle is opened once per pivot decision"
        )
        assert _HANDLE_BOUND_RE.search(text), (
            f"{name} does not name the 2·(n−1) handle bound of a scale build"
        )
    # Spot-pin so a regex or slicing regression cannot make the scan vacuous.
    assert _ONCE_PER_PIVOT_RE.search("once per joining member, once per\n  pivot")
    assert _HANDLE_BOUND_RE.search("opens at most **2·(n−1)\nhandles**")
    assert _HANDLE_BOUND_RE.search("opens at most\n2·(n−1) handles: one per")
    section = docs["DESIGN.md §11"]
    assert "### 11.1" in section and "## 12." not in section


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
    assert {"REPRO_JOBS", "REPRO_CACHE_DIR"} | _READ_OUTSIDE_SRC <= named


_LAYOUT_LINE_RE = re.compile(r"^( *)([\w./]+/)?\s*(.*)$")


def _design_layout() -> set[str]:
    """The repo paths DESIGN §2's layout block names, one per file."""
    design = (ROOT / "DESIGN.md").read_text()
    section = design[design.index("\n## 2. ") : design.index("\n## 3. ")]
    block = section.split("```")[1]
    named: set[str] = set()
    top = here = ""
    for line in block.splitlines():
        indent, directory, rest = _LAYOUT_LINE_RE.match(line).groups()
        if directory and not indent:
            top = here = directory
        elif directory:
            here = top + directory
        named |= {here + name for name in re.findall(r"\b[\w]+\.py\b", rest)}
    return named


def test_design_layout_names_existing_files():
    named = _design_layout()
    missing = sorted(path for path in named if not (ROOT / path).is_file())
    assert not missing, f"DESIGN §2 names files that do not exist: {missing}"
    modules = {
        str(path.relative_to(ROOT))
        for path in (ROOT / "src" / "repro").rglob("*.py")
        if path.name != "__init__.py" or path.parent.name == "repro"
    }
    examples = {
        str(path.relative_to(ROOT)) for path in (ROOT / "examples").glob("*.py")
    }
    unnamed = sorted((modules | examples) - named)
    assert not unnamed, f"DESIGN §2 omits: {unnamed}"
    # Spot-pin so a parsing regression cannot make the check vacuous.
    assert {"src/repro/factories.py", "src/repro/sim/batched.py"} <= named
    assert "examples/quickstart.py" in named


_MODULE_RE = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def _missing_module(dotted: str) -> str | None:
    """The part of ``dotted`` that names no module, or ``None``.

    Components are walked down ``src/`` while they name packages; the
    next one must be a module file or a name its package defines, and
    whatever follows a module file is that module's attribute.
    """
    here = ROOT / "src" / "repro"
    parts = dotted.split(".")
    for i, part in enumerate(parts[1:], start=1):
        if (here / part / "__init__.py").is_file():
            here = here / part
        elif (here / f"{part}.py").is_file():
            return None
        elif hasattr(importlib.import_module(".".join(parts[:i])), part):
            return None
        else:
            return ".".join(parts[: i + 1])
    return None


def _named_modules(text: str) -> set[str]:
    # a sentence-ending period is not part of the name
    return {name.rstrip(".") for name in _MODULE_RE.findall(text)}


def test_every_module_the_docs_name_exists():
    missing = {
        f"{name}: {dotted}"
        for name in _DOCS
        for dotted in _named_modules((ROOT / name).read_text())
        if _missing_module(dotted) is not None
    }
    assert not missing, f"docs name repro modules that do not exist: {sorted(missing)}"
    # Spot-pin so a regex or walk regression cannot make the check vacuous.
    assert _named_modules("see `repro.sim.session.collect_tree_metrics`.") == {
        "repro.sim.session.collect_tree_metrics"
    }
    assert _missing_module("repro.sim.session.collect_tree_metrics") is None
    assert _missing_module("repro.NoRouteError") is None
    assert _missing_module("repro.service.nowhere") == "repro.service.nowhere"
    assert _missing_module("repro.nowhere.module") == "repro.nowhere"
    named = set().union(*(_named_modules((ROOT / n).read_text()) for n in _DOCS))
    assert {"repro.harness", "repro.sim.engine", "repro.service"} <= named


# -- budgets -----------------------------------------------------------------

_DESIGN_BUDGET = 35_000
_EXPERIMENTS_BUDGET = 22_000
_README_BUDGET = 24_000
_CHANGES_ENTRY_BUDGET = 1_500
_HOST_COST_RE = re.compile(r"^#+ .*host cost.*$", re.IGNORECASE | re.MULTILINE)
_PR_NARRATION_RE = re.compile(r"\bPRs?\s*\d+")


def _size(name: str) -> int:
    return len((ROOT / name).read_bytes())


def test_design_and_experiments_fit_their_budgets():
    assert _size("DESIGN.md") <= _DESIGN_BUDGET, (
        f"DESIGN.md is {_size('DESIGN.md')} bytes, over {_DESIGN_BUDGET}: "
        "it states the design as it is, not how it got there"
    )
    assert _size("EXPERIMENTS.md") <= _EXPERIMENTS_BUDGET, (
        f"EXPERIMENTS.md is {_size('EXPERIMENTS.md')} bytes, over "
        f"{_EXPERIMENTS_BUDGET}: it is the paper-vs-measured record"
    )
    headings = _HOST_COST_RE.findall((ROOT / "EXPERIMENTS.md").read_text())
    assert not headings, (
        f"EXPERIMENTS.md has host-cost section(s) {headings}: host timings "
        "are what bench/run.py reports"
    )
    # Spot-pin so a regex regression cannot make the check vacuous.
    assert _HOST_COST_RE.findall("x\n## Host cost — one walk\ny") == [
        "## Host cost — one walk"
    ]


def test_readme_fits_its_budget():
    assert _size("README.md") <= _README_BUDGET, (
        f"README.md is {_size('README.md')} bytes, over {_README_BUDGET}: "
        "it says how to run things; bench/run.py reports what they cost"
    )


_NUMBERED_ENTRY_RE = re.compile(r"PR \d+ ")
#: the changes whose entries may still run long
_RECENT_CHANGES = 5


def _early_changes_entries() -> list[str]:
    """Every changelog entry older than the last five changes, one line each.

    A change is a headline line plus the ``FOUND:``/``MENDED:`` lines
    that follow it; early headlines carry a "PR n" prefix, later ones
    do not.
    """
    lines = [line for line in (ROOT / "CHANGES.md").read_text().splitlines() if line]
    headlines = [
        i for i, line in enumerate(lines) if not line.startswith(("FOUND:", "MENDED:"))
    ]
    return lines[: headlines[-_RECENT_CHANGES]]


def test_early_changes_entries_fit_their_budget():
    entries = _early_changes_entries()
    long = {
        entry[:40]: len(entry.encode())
        for entry in entries
        if len(entry.encode()) > _CHANGES_ENTRY_BUDGET
    }
    assert not long, f"CHANGES.md entries over {_CHANGES_ENTRY_BUDGET} bytes: {long}"
    # Spot-pin so a parsing regression cannot make the check vacuous: the
    # numbered run and the unnumbered entries after it are both seen.
    assert sum(1 for entry in entries if _NUMBERED_ENTRY_RE.match(entry)) >= 30
    assert not _NUMBERED_ENTRY_RE.match(entries[-1])


def test_design_and_readme_carry_no_pr_narration():
    found = {
        f"{name}: {match}"
        for name in ("DESIGN.md", "README.md")
        for match in _PR_NARRATION_RE.findall((ROOT / name).read_text())
    }
    assert not found, (
        f"PR narration in {sorted(found)} — say what the code does, not "
        "which change made it"
    )
    # Spot-pin so a regex regression cannot make the scan vacuous; the
    # sample is assembled so this file names no change number itself.
    tag = "PR"
    sample = f"({tag} 7) and {tag}s 36–38, not A{tag} 2"
    assert _PR_NARRATION_RE.findall(sample) == [f"{tag} 7", f"{tag}s 36"]


# -- DESIGN section pointers ---------------------------------------------------

_POINTER_RE = re.compile(
    r"DESIGN(?:\.md)?`?\s*(§\s*\d+(?:\.\d+)?(?:\s*,\s*§\s*\d+(?:\.\d+)?)*)"
)
_SECTION_RE = re.compile(r"§\s*(\d+(?:\.\d+)?)")
_HEADING_RE = re.compile(r"^#{2,3} (\d+(?:\.\d+)?)\.? ", re.MULTILINE)


def _pointer_sources() -> list[Path]:
    files = [ROOT / "README.md", ROOT / "EXPERIMENTS.md"]
    for tree, pattern in (("src", "*.py"), ("tests", "*.py"), (".github", "*.yml")):
        files += sorted((ROOT / tree).rglob(pattern))
    return files


def _pointers(text: str) -> list[str]:
    return [
        section
        for group in _POINTER_RE.findall(text)
        for section in _SECTION_RE.findall(group)
    ]


def test_every_design_pointer_resolves():
    sections = set(_HEADING_RE.findall((ROOT / "DESIGN.md").read_text()))
    cited: dict[str, set[str]] = {}
    for path in _pointer_sources():
        for section in _pointers(path.read_text()):
            cited.setdefault(section, set()).add(str(path.relative_to(ROOT)))
    stale = {f"§{sec}": sorted(where) for sec, where in cited.items() if sec not in sections}
    assert not stale, f"DESIGN pointers to sections DESIGN.md does not have: {stale}"
    # Spot-pins so a regex, heading or file-walk regression cannot make
    # the check vacuous.
    assert {"2", "4.1", "11", "11.1", "12.1"} <= sections
    assert _pointers("(" + "DESIGN.md §7, §11)") == ["7", "11"]
    assert _pointers("`DESIGN" + ".md`\n§6.3 and") == ["6.3"]
    assert _pointers("DESIGN" + " §2's layout") == ["2"]
    assert {"6.3", "7", "11", "12.1"} <= set(cited)
    assert any(path.name == "ci.yml" for path in _pointer_sources())
