"""Experiment harness: one entry point per paper figure.

* :mod:`repro.harness.substrates` — builders for the two evaluation
  substrates (transit-stub router underlay, PlanetLab matrix underlay).
* :mod:`repro.harness.experiments` — the figure table: one row per
  sweep group, run by one ``run_sweep`` into
  :class:`repro.metrics.report.SeriesTable` s, and the figure ids read
  off it.
* :mod:`repro.harness.cells` — what one sweep cell runs: substrate memos,
  per-chapter configs, the workers that are not one plain session.
* :mod:`repro.harness.presets` — ``paper`` vs ``quick`` scale presets.
* :mod:`repro.harness.registry` — ``run_experiment``: a figure id to its
  table, used by the CLI (``python -m repro.harness fig3_26``) and the
  benchmarks.
"""

from repro.harness.substrates import (
    build_transit_stub_underlay,
    build_planetlab_underlay,
    PlanetLabSubstrate,
)
from repro.harness.presets import Preset, PRESETS
from repro.harness.registry import REGISTRY, run_experiment

__all__ = [
    "build_transit_stub_underlay",
    "build_planetlab_underlay",
    "PlanetLabSubstrate",
    "Preset",
    "PRESETS",
    "REGISTRY",
    "run_experiment",
]
