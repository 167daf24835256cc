"""Per-component health probes with time-in-degraded accounting.

A :class:`HealthMonitor` evaluates a fixed dictionary of boolean probes
on a virtual-time cadence.  Components start healthy; every flip is
recorded as a :class:`HealthTransition` (virtual timestamp, component,
new state), and the run's *time in degraded state* — the SLO field — is
the total virtual time during which at least one component probed
unhealthy, integrated at probe-tick granularity (a blip shorter than one
probe period that spans no tick is invisible, exactly as it would be to
a real liveness prober).

Probes are evaluated in sorted name order so the transition log is
deterministic.  The monitor only probes when told: the service runtime
calls :meth:`HealthMonitor.probe_once` from a health-tick timer every
``period_s`` virtual seconds — chaos that stalls the join queue or
crashes agents must show up here as a flip *and a recovery*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.util.validation import check_positive

__all__ = ["HealthMonitor", "HealthTransition"]


@dataclass(frozen=True)
class HealthTransition:
    """One probe flip: component went (un)healthy at a virtual time."""

    time: float
    component: str
    healthy: bool

    def as_dict(self) -> dict:
        return {
            "time": self.time,
            "component": self.component,
            "healthy": self.healthy,
        }


class HealthMonitor:
    """Evaluation of named boolean probes at virtual times.

    ``clock`` is anything with a ``now`` (the run's simulator).
    """

    def __init__(
        self,
        clock,
        probes: dict[str, Callable[[], bool]],
        *,
        period_s: float,
    ) -> None:
        check_positive("period_s", period_s)
        if not probes:
            raise ValueError("at least one probe is required")
        self.clock = clock
        self.probes = dict(probes)
        self.period_s = period_s
        self.status: dict[str, bool] = {name: True for name in probes}
        self.transitions: list[HealthTransition] = []
        self.time_in_degraded_s = 0.0
        self.probe_ticks = 0
        self._degraded_since: float | None = None

    @property
    def healthy(self) -> bool:
        return all(self.status.values())

    def probe_once(self) -> None:
        """Evaluate every probe now; record flips and degraded time."""
        now = self.clock.now
        self.probe_ticks += 1
        for name in sorted(self.probes):
            healthy = bool(self.probes[name]())
            if healthy != self.status[name]:
                self.status[name] = healthy
                self.transitions.append(HealthTransition(now, name, healthy))
        if not self.healthy:
            if self._degraded_since is None:
                self._degraded_since = now
        elif self._degraded_since is not None:
            self.time_in_degraded_s += now - self._degraded_since
            self._degraded_since = None

    def finish(self) -> None:
        """Close an open degraded interval at the current virtual time."""
        if self._degraded_since is not None:
            self.time_in_degraded_s += self.clock.now - self._degraded_since
            self._degraded_since = None
