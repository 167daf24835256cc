"""Deterministic open-loop workload generators for the service runtime.

Arrival schedules are materialized *up front* from the run seed — the
same convention :class:`~repro.sim.churn.SlottedChurnModel` follows
(``spawn_rng(seed, ...)`` key paths, draws in a fixed order) — so the
workload is a pure function of ``(scenario, seed, parameters)`` and two
runs of the same config offer identical traffic regardless of how the
control plane orders its reactions.

Three scenario shapes, per the self-organizing membership literature
(Ripeanu et al., "In Search of Simplicity"):

* ``poisson`` — memoryless session arrivals at a constant rate;
* ``diurnal`` — a sinusoidally modulated rate (day/night cycle),
  realized by thinning a Poisson stream at the peak rate;
* ``flash`` — the Poisson baseline plus a flash-crowd burst: a second,
  much hotter arrival stream confined to a window.  This is the scenario
  that must drive the join queue past its high-water mark and make
  admission control visible.

Hold (session lifetime) draws are exponential and come from a separate
spawned stream indexed after the merged arrival order is fixed, so the
k-th admitted session holds identically across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util.rngtools import spawn_rng

__all__ = ["SCENARIOS", "SessionArrival", "build_workload"]

SCENARIOS = ("poisson", "diurnal", "flash")


@dataclass(frozen=True)
class SessionArrival:
    """One open-loop session: when it asks to join, how long it stays."""

    index: int
    time: float
    hold_s: float


def _poisson_times(rng: np.random.Generator, rate_hz: float, duration_s: float):
    """Arrival instants of a homogeneous Poisson process on [0, duration)."""
    times = []
    t = float(rng.exponential(1.0 / rate_hz))
    while t < duration_s:
        times.append(t)
        t += float(rng.exponential(1.0 / rate_hz))
    return times


def build_workload(
    scenario: str,
    *,
    seed: int,
    duration_s: float,
    rate_hz: float,
    hold_s: float,
    burst_at_s: float = 0.0,
    burst_rate_hz: float = 0.0,
    burst_duration_s: float = 0.0,
    diurnal_period_s: float = 0.0,
    diurnal_depth: float = 0.8,
) -> list[SessionArrival]:
    """Materialize the full arrival schedule for one service run.

    ``rate_hz`` is the baseline session-arrival rate.  For ``diurnal``,
    the instantaneous rate is ``rate_hz * (1 + depth * sin(2*pi*t/T))``
    (mean ``rate_hz``, thinning against the peak); for ``flash``, an
    extra stream at ``burst_rate_hz`` runs inside
    ``[burst_at_s, burst_at_s + burst_duration_s)``.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be > 0, got {rate_hz}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    if hold_s <= 0:
        raise ValueError(f"hold_s must be > 0, got {hold_s}")

    rng = spawn_rng(seed, "service", scenario, "arrivals")
    if scenario == "poisson":
        times = _poisson_times(rng, rate_hz, duration_s)
    elif scenario == "diurnal":
        if not 0.0 <= diurnal_depth < 1.0:
            raise ValueError(
                f"diurnal_depth must be in [0, 1), got {diurnal_depth}"
            )
        period = diurnal_period_s if diurnal_period_s > 0 else duration_s
        peak = rate_hz * (1.0 + diurnal_depth)
        times = []
        for t in _poisson_times(rng, peak, duration_s):
            rate_t = rate_hz * (
                1.0 + diurnal_depth * math.sin(2.0 * math.pi * t / period)
            )
            # Thinning: one uniform per candidate, drawn unconditionally
            # in stream order so acceptance never shifts later draws.
            if float(rng.random()) < rate_t / peak:
                times.append(t)
    else:  # flash
        if burst_rate_hz <= 0 or burst_duration_s <= 0:
            raise ValueError(
                "flash scenario needs burst_rate_hz > 0 and burst_duration_s > 0"
            )
        times = _poisson_times(rng, rate_hz, duration_s)
        burst_rng = spawn_rng(seed, "service", scenario, "burst")
        burst_end = min(duration_s, burst_at_s + burst_duration_s)
        t = burst_at_s + float(burst_rng.exponential(1.0 / burst_rate_hz))
        while t < burst_end:
            times.append(t)
            t += float(burst_rng.exponential(1.0 / burst_rate_hz))
        times.sort()

    hold_rng = spawn_rng(seed, "service", scenario, "hold")
    return [
        SessionArrival(
            index=i, time=float(t), hold_s=float(hold_rng.exponential(hold_s))
        )
        for i, t in enumerate(times)
    ]
