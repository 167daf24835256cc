"""Benchmark-suite configuration.

Each benchmark regenerates one figure of the paper at the preset chosen by
``REPRO_BENCH_PRESET`` (default ``quick``; set to ``paper`` for the full
replication — hours, not minutes).  Rendered tables are printed and also
written under ``benchmarks/results/`` so the series survive pytest's
output capture.

Figures sharing a parameter sweep share one cached run: the first figure
of a group pays for the sweep, the rest read the cache.  The suite times
nothing; ``bench/run.py`` owns timing.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness.presets import PRESETS
from repro.harness.registry import run_experiment

RESULTS_DIR = Path(__file__).parent / "results"


def bench_preset():
    name = os.environ.get("REPRO_BENCH_PRESET", "quick")
    return PRESETS[name]


@pytest.fixture(scope="session")
def preset():
    return bench_preset()


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def expect_shape(preset):
    """Assert a paper-shape relationship — strictly at quick/paper scale.

    The ``smoke`` preset (single replication, tiny trees) exists for fast
    plumbing checks; its stochastic shape relationships are not
    statistically meaningful, so there the helper only warns.
    """
    import warnings

    def check(condition: bool, message: str) -> None:
        if preset.name == "smoke":
            if not condition:
                warnings.warn(f"[smoke preset] shape not met: {message}")
            return
        assert condition, message

    return check


@pytest.fixture
def figure_bench(preset, results_dir):
    """Regenerate one figure id and persist its rendered table."""

    def run(fig_id: str):
        table = run_experiment(fig_id, preset)
        text = table.render()
        print("\n" + text)
        (results_dir / f"{fig_id}.txt").write_text(text + "\n")
        (results_dir / f"{fig_id}.json").write_text(table.to_json() + "\n")
        return table

    return run

