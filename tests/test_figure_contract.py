"""The paper's figures as a tier-1 contract.

Every figure id of ``REGISTRY`` and both sample trees (Figs 5.5/5.6) are
regenerated at the ``smoke`` preset — once with the batched engine free
to take every cell it accepts, once with ``REPRO_BATCHED_REPS=0`` (every
replication on the scalar engine) — and compared with one committed
fixture.  Keys, counts, titles, expected shapes, x values and series order
must match exactly; floats may move only within :data:`FLOAT_REL_TOL`.

A change that is *meant* to move a figure regenerates the fixture::

    PYTHONPATH=src python -m tests.test_figure_contract
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.harness import experiments
from repro.harness.presets import PRESETS
from repro.harness.registry import REGISTRY, run_experiment

SMOKE = PRESETS["smoke"]
FIXTURE = Path(__file__).parent / "fixtures" / "figure_contract_smoke.json"

#: The one tolerance of the contract, relative.  Two correct runs of the
#: same statistic may still add its terms in a different order (float
#: association: a sum over a set, a reordered traversal), which moves the
#: last ulp or two of a mean or a CI half-width — ~1e-15 relative.  A
#: behaviour change moves a smoke-size figure by far more than 1e-12.
FLOAT_REL_TOL = 1e-12


def render_figures() -> dict:
    """Every figure of the contract, as parsed table JSON (or tree text)."""
    experiments.clear_cache()
    try:
        out = {
            fig_id: json.loads(run_experiment(fig_id, SMOKE).to_json())
            for fig_id in REGISTRY
        }
        out["fig5_5"] = experiments.ch5_sample_tree(SMOKE)
        out["fig5_6"] = experiments.ch5_sample_tree(SMOKE, transatlantic=True)
    finally:
        experiments.clear_cache()
    return out


def assert_matches(got, want, where: str = "figures") -> None:
    """``got`` equals ``want`` in structure, order and type; floats within
    :data:`FLOAT_REL_TOL` (NaN matches only NaN)."""
    assert type(got) is type(want), f"{where}: {got!r} is not a {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: {len(got)} items != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        same = (math.isnan(got) and math.isnan(want)) or math.isclose(
            got, want, rel_tol=FLOAT_REL_TOL, abs_tol=0.0
        )
        assert same, f"{where}: {got!r} != {want!r} (rel tol {FLOAT_REL_TOL})"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def committed() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("batched_reps", [None, "0"], ids=["batched", "scalar"])
def test_figures_match_the_committed_contract(batched_reps, committed, monkeypatch):
    if batched_reps is None:
        monkeypatch.delenv("REPRO_BATCHED_REPS", raising=False)
    else:
        monkeypatch.setenv("REPRO_BATCHED_REPS", batched_reps)
    assert_matches(render_figures(), committed)


def test_the_comparison_is_not_vacuous():
    table = {"series": {"VDM": {"mean": [1.0, 2.0]}, "HMTP": {"mean": [3.0]}}}
    assert_matches(json.loads(json.dumps(table)), table)
    ulp = {"series": {"VDM": {"mean": [1.0 + 4e-16, 2.0]}, "HMTP": {"mean": [3.0]}}}
    assert_matches(ulp, table)
    for broken in (
        {"series": {"HMTP": {"mean": [3.0]}, "VDM": {"mean": [1.0, 2.0]}}},
        {"series": {"VDM": {"mean": [1.0 + 1e-11, 2.0]}, "HMTP": {"mean": [3.0]}}},
        {"series": {"VDM": {"mean": [1.0]}, "HMTP": {"mean": [3.0]}}},
        {"series": {"VDM": {"mean": [1, 2.0]}, "HMTP": {"mean": [3.0]}}},
    ):
        with pytest.raises(AssertionError):
            assert_matches(broken, table)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(render_figures(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
