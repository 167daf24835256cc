"""Performance metrics (Sections 3.6.3 and 5.3).

* :mod:`repro.metrics.collectors` — instantaneous tree metrics: stress
  (eq. 3.4), stretch (eq. 3.5), hopcount, resource usage, MST ratio.
* :mod:`repro.metrics.stats` — replication statistics (means with the
  paper's 90% confidence intervals).
* :mod:`repro.metrics.report` — measurement records and experiment series
  containers with table printing.
"""

from repro.metrics.collectors import (
    mst_ratio,
    StressStats,
    StretchStats,
    HopcountStats,
    ResourceUsage,
)
from repro.metrics.stats import mean_ci, summarize
from repro.metrics.report import MeasurementRecord, Series, SeriesTable

__all__ = [
    "mst_ratio",
    "StressStats",
    "StretchStats",
    "HopcountStats",
    "ResourceUsage",
    "mean_ci",
    "summarize",
    "MeasurementRecord",
    "Series",
    "SeriesTable",
]
