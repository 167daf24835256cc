"""Geographic latency modelling for the PlanetLab substrate.

Chapter 5 runs on PlanetLab, where inter-host RTTs are dominated by
geography (the sample trees in Figs. 5.5/5.6 cluster by continent) but are
noisy: routing detours and background traffic produce triangle-inequality
violations.  This module provides the deterministic part of that model:

* :class:`GeoSite` — a named site at a latitude/longitude;
* :func:`great_circle_km` — haversine distance;
* :func:`rtt_ms_between` — an RTT model: speed-of-light-in-fiber propagation
  over an inflated great-circle path, plus per-site access delays.

The stochastic parts (jitter, detours, flaky nodes) live in
:mod:`repro.topology.planetlab`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.validation import check_fields, checked, in_range, non_negative, string

__all__ = ["GeoSite", "great_circle_km", "rtt_ms_between"]

EARTH_RADIUS_KM = 6371.0

#: Effective one-way propagation speed in fiber, km per millisecond.
#: Light in fiber covers ~204 km/ms; real paths are longer than great
#: circles, which the route inflation factor captures separately.
FIBER_KM_PER_MS = 204.0

#: Multiplier applied to great-circle distance to approximate actual fiber
#: route length (commonly estimated at 1.5-2.5x for the Internet).
DEFAULT_ROUTE_INFLATION = 2.0


@dataclass(frozen=True)
class GeoSite:
    """A hosting site: name, region label, and coordinates in degrees."""

    name: str = checked(string)
    region: str = checked(string)
    lat: float = checked(in_range(-90.0, 90.0, "latitude"))
    lon: float = checked(in_range(-180.0, 180.0, "longitude"))
    #: one-way last-mile/campus delay contribution
    access_ms: float = checked(non_negative, 1.0)

    __post_init__ = check_fields


def great_circle_km(a: GeoSite, b: GeoSite) -> float:
    """Haversine great-circle distance between two sites, in kilometres."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def rtt_ms_between(
    a: GeoSite,
    b: GeoSite,
    *,
    route_inflation: float = DEFAULT_ROUTE_INFLATION,
) -> float:
    """Base (noise-free) RTT between two sites in milliseconds.

    RTT = 2 * (inflated distance / fiber speed + both access delays).
    Same-site pairs still pay the access terms, so the RTT is never zero
    for distinct hosts.
    """
    if route_inflation < 1.0:
        raise ValueError(f"route_inflation must be >= 1, got {route_inflation}")
    dist = great_circle_km(a, b)
    propagation_one_way = dist * route_inflation / FIBER_KM_PER_MS
    return 2.0 * (propagation_one_way + a.access_ms + b.access_ms)
