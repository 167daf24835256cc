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

Robustness knobs — all inert by default so the fault-free hot path is
unchanged:

* ``REPRO_TASK_TIMEOUT_S`` — per-replication wall-clock timeout in the
  supervised pooled path of :mod:`repro.harness.supervisor`; a hung
  worker is killed and the task retried.  Unset or ``0`` disables
  timeouts (the default: simulations have no natural upper bound).
* ``REPRO_TASK_RETRIES`` — attempts per task before the supervisor
  quarantines it (default 3; the first run counts as attempt 1).
* ``REPRO_RETRY_BACKOFF_S`` — base of the exponential backoff with
  decorrelated jitter slept before a retry (default 0.25; ``0`` retries
  immediately — tests and CI chaos jobs use that).
* ``REPRO_GRACE_S`` — how long an interrupted supervised run waits for
  in-flight replications to finish before killing the pool, so their
  results still reach the journal (default 5).
* ``REPRO_JOURNAL_DIR`` — default journal directory for the harness CLI
  (equivalent to ``--journal DIR``); see :mod:`repro.harness.journal`.
* ``REPRO_CHAOS`` — deterministic worker-fault plan (JSON, or ``@path``
  to a JSON file) injected by the supervisor for self-tests; see
  :mod:`repro.harness.chaos`.  Unset = no chaos, zero overhead.

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
    "interrupt_grace_s",
    "retry_backoff_s",
    "task_max_attempts",
    "task_timeout_s",
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
    "REPRO_TASK_TIMEOUT_S": FlagSpec(
        "0 (off)", "per-replication wall-clock timeout (supervised pool)",
        "repro.util.envflags",
    ),
    "REPRO_TASK_RETRIES": FlagSpec(
        "3", "attempts per task before quarantine", "repro.util.envflags"
    ),
    "REPRO_RETRY_BACKOFF_S": FlagSpec(
        "0.25", "base of the decorrelated-jitter retry backoff",
        "repro.util.envflags",
    ),
    "REPRO_GRACE_S": FlagSpec(
        "5", "interrupted-run drain grace for in-flight tasks",
        "repro.util.envflags",
    ),
    "REPRO_JOURNAL_DIR": FlagSpec(
        "unset", "default journal directory for the CLIs", "repro.harness.journal"
    ),
    "REPRO_CHAOS": FlagSpec(
        "unset", "worker-fault chaos plan (JSON or @path)", "repro.harness.chaos"
    ),
    "REPRO_SERVICE_CHAOS": FlagSpec(
        "unset", "live-service chaos plan: agent-crash / bus-stall / clock-jump",
        "repro.harness.chaos",
    ),
    "REPRO_JOBS": FlagSpec(
        "1", "replication worker processes (sweep parallelism)",
        "repro.harness.parallel",
    ),
    "REPRO_START_METHOD": FlagSpec(
        "platform default", "multiprocessing start method for the pool",
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


def _positive_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def task_timeout_s() -> float | None:
    """Per-task wall-clock timeout for supervised pooled replications.

    ``REPRO_TASK_TIMEOUT_S``; unset or ``0`` means no timeout (default).
    """
    value = _positive_float("REPRO_TASK_TIMEOUT_S", 0.0)
    return value if value > 0 else None


def task_max_attempts() -> int:
    """Attempts per task before quarantine (``REPRO_TASK_RETRIES``, default 3)."""
    raw = os.environ.get("REPRO_TASK_RETRIES", "").strip()
    if not raw:
        return 3
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_TASK_RETRIES must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"REPRO_TASK_RETRIES must be >= 1, got {value}")
    return value


def retry_backoff_s() -> float:
    """Base retry backoff in seconds (``REPRO_RETRY_BACKOFF_S``, default 0.25)."""
    return _positive_float("REPRO_RETRY_BACKOFF_S", 0.25)


def interrupt_grace_s() -> float:
    """Seconds an interrupted run waits for in-flight tasks (``REPRO_GRACE_S``)."""
    return _positive_float("REPRO_GRACE_S", 5.0)

