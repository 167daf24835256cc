"""Process-wide feature toggles read from the environment.

A knob earns a place here when it picks between engines that both still
run, bounds a resource, or configures the harness around a run.  An
optimization that is always on gets no switch: the plain statement of the
answer it must reproduce lives in ``tests/`` (``tests/oracles.py``) and the
tests compare the two directly.

There is one router-graph engine, and how many Dijkstra rows its store
keeps is the input size's answer (a byte budget over the row size), not
a knob.  The artifact-cache knobs (``REPRO_CACHE_DIR``,
``REPRO_SUBSTRATE_CACHE``, ``REPRO_CACHE_MAX_BYTES``) live in
:mod:`repro.util.artifacts`.

Run-level knobs:

* ``REPRO_JOBS`` — replication worker processes
  (:mod:`repro.harness.parallel`); default 1, the in-process path.
* ``REPRO_JOURNAL_DIR`` — default journal directory for the harness CLI
  (equivalent to ``--journal DIR``); see :mod:`repro.harness.journal`.
* ``REPRO_SERVICE_CHAOS`` — deterministic fault plan for the live
  service runtime (JSON, or ``@path`` to a JSON file); see
  :mod:`repro.harness.chaos`.  Unset = no chaos.

Batched execution:

* ``REPRO_BATCHED_REPS`` — cap the replications the batched
  multi-replication engine (:mod:`repro.harness.batchrun`) takes per
  batch; ``0`` disables it entirely so every replication runs on the
  scalar oracle engine (whose output the batched mode must match byte
  for byte).  Unset = unlimited, the default.

Flags are read at object construction time, not per call, so a running
session never changes behavior mid-flight.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "FLAG_REGISTRY",
    "FlagSpec",
    "batched_reps",
]

_FALSE_VALUES = ("0", "false", "no")


@dataclass(frozen=True)
class FlagSpec:
    """One registered environment knob: default, meaning, read site."""

    default: str
    description: str
    read_in: str


#: Every ``REPRO_*`` environment variable the codebase reads, by name.
#: A conformance test regex-scans ``src`` for ``REPRO_`` reads and fails
#: in *both* directions — an unregistered read (someone added a knob
#: without documenting it here) and a stale registration (the knob's
#: last read site was deleted).  Keep descriptions to one line; the
#: module docstring above carries the full story.
FLAG_REGISTRY: dict[str, FlagSpec] = {
    "REPRO_CACHE_DIR": FlagSpec(
        ".repro_cache", "artifact-cache root directory (under the cwd)",
        "repro.util.artifacts",
    ),
    "REPRO_SUBSTRATE_CACHE": FlagSpec(
        "1", "on-disk substrate artifact cache", "repro.util.artifacts"
    ),
    "REPRO_CACHE_MAX_BYTES": FlagSpec(
        "2147483648", "artifact-cache size bound (LRU eviction)", "repro.util.artifacts"
    ),
    "REPRO_JOURNAL_DIR": FlagSpec(
        "unset", "default journal directory for the CLIs", "repro.harness.journal"
    ),
    "REPRO_SERVICE_CHAOS": FlagSpec(
        "unset", "live-service chaos plan: agent-crash / bus-stall / clock-jump",
        "repro.harness.chaos",
    ),
    "REPRO_JOBS": FlagSpec(
        "1", "replication worker processes (sweep parallelism)",
        "repro.harness.parallel",
    ),
    "REPRO_BATCHED_REPS": FlagSpec(
        "unlimited", "batched-engine replication cap (0 = scalar oracle)",
        "repro.util.envflags",
    ),
}


def batched_reps() -> int | None:
    """Batched-engine replication cap (``REPRO_BATCHED_REPS``, PR 6).

    * unset or empty — ``None``: the batched engine may take every
      replication of a sweep cell in one batch (the default);
    * ``0`` / ``false`` / ``no`` — ``0``: batched execution disabled,
      every replication runs on the scalar oracle engine (the ablation
      baseline whose table JSON the batched mode must reproduce byte
      for byte);
    * a positive integer — at most that many replications per batch.
    """
    raw = os.environ.get("REPRO_BATCHED_REPS", "").strip()
    if not raw:
        return None
    if raw.lower() in _FALSE_VALUES:
        return 0
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_BATCHED_REPS must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"REPRO_BATCHED_REPS must be >= 0, got {value}")
    return value
