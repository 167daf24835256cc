"""Replication statistics.

The paper repeats each simulation 32 times and reports means with 90%
confidence intervals; :func:`mean_ci` reproduces that (Student-t, so the
intervals are honest for the 5-replication PlanetLab runs too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# Only the Student-t quantile is needed: ``stdtrit`` is the function
# ``scipy.stats.t.ppf`` itself evaluates, and importing it alone keeps
# all of ``scipy.stats`` (~0.4 s, ~35 MiB resident) out of the process.
from scipy.special import stdtrit

__all__ = ["mean_ci", "summarize", "SummaryStats"]


@dataclass(frozen=True)
class SummaryStats:
    """Mean plus a symmetric confidence halfwidth."""

    mean: float
    ci_halfwidth: float
    n: int
    confidence: float

    @property
    def lo(self) -> float:
        return self.mean - self.ci_halfwidth

    @property
    def hi(self) -> float:
        return self.mean + self.ci_halfwidth

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.ci_halfwidth:.2g}"


def mean_ci(values: Sequence[float], confidence: float = 0.90) -> SummaryStats:
    """Mean and Student-t confidence halfwidth of a replication sample."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    vals = [float(v) for v in values]
    n = len(vals)
    if n == 0:
        raise ValueError("need at least one value")
    mean = sum(vals) / n
    if n == 1:
        return SummaryStats(mean, math.inf, 1, confidence)
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    sem = math.sqrt(var / n)
    t = float(stdtrit(n - 1, 0.5 + confidence / 2.0))
    return SummaryStats(mean, t * sem, n, confidence)


def summarize(
    samples: dict[str, Sequence[float]], confidence: float = 0.90
) -> dict[str, SummaryStats]:
    """Apply :func:`mean_ci` to a dict of named replication samples."""
    return {name: mean_ci(vals, confidence) for name, vals in samples.items()}
