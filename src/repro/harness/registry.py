"""Figure-id lookup: ``run_experiment`` runs the sweep group behind an id.

Used by the CLI (``python -m repro.harness <id> [--preset quick]``) and by
the benchmark suite.  The ids themselves (:data:`REGISTRY`) are read off
the sweep rows of :mod:`repro.harness.experiments`.
"""

from __future__ import annotations

import dataclasses

from repro.harness.experiments import REGISTRY, run_group
from repro.harness.presets import PRESETS, Preset
from repro.metrics.report import SeriesTable

__all__ = ["REGISTRY", "run_experiment"]


def run_experiment(
    fig_id: str,
    preset: Preset | str = "quick",
    *,
    jobs: int | None = None,
    faults: str | None = None,
    failover: str | None = None,
) -> SeriesTable:
    """Run (or fetch from cache) the experiment behind a figure id.

    ``jobs`` overrides the preset's replication worker count (see
    :mod:`repro.harness.parallel`); results are identical at any value.
    ``faults`` overrides the preset's fault plan (a name from
    :data:`repro.sim.faults.FAULT_PRESETS`), running every session of the
    experiment under that fault schedule.  ``failover`` overrides the
    preset's orphan-recovery strategy (``"reactive"`` or
    ``"precomputed"``); the ch6 sweep compares both regardless.
    """
    if isinstance(preset, str):
        try:
            preset = PRESETS[preset]
        except KeyError:
            raise KeyError(
                f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
            ) from None
    overrides = {"jobs": jobs, "fault_plan": faults, "failover": failover}
    overrides = {name: value for name, value in overrides.items() if value is not None}
    if overrides:
        preset = dataclasses.replace(preset, **overrides)
    try:
        entry = REGISTRY[fig_id]
    except KeyError:
        raise KeyError(
            f"unknown figure id {fig_id!r}; choose from {sorted(REGISTRY)}"
        ) from None
    return run_group(entry.group, preset)[entry.table]
