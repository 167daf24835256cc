"""Underlay topology generation.

The paper's two evaluation environments are rebuilt here:

* :mod:`repro.topology.transit_stub` — a GT-ITM-style transit-stub router
  topology generator (Chapter 3 used GT-ITM graphs with 792 routers).
* :mod:`repro.topology.geo` / :mod:`repro.topology.planetlab` — synthetic
  PlanetLab: geographically clustered sites whose pairwise RTTs follow
  great-circle propagation plus access and jitter terms (Chapter 5 used the
  real PlanetLab testbed).
* :mod:`repro.topology.linkmodel` — per-link loss-rate assignment, including
  the delay/loss decorrelation that motivates Chapter 4.
"""

from repro.topology.transit_stub import TransitStubConfig
from repro.topology.geo import GeoSite, great_circle_km, rtt_ms_between
from repro.topology.planetlab import (
    PlanetLabNode,
    PlanetLabPool,
    generate_planetlab_pool,
)
from repro.topology.linkmodel import LinkErrorConfig

__all__ = [
    "TransitStubConfig",
    "GeoSite",
    "great_circle_km",
    "rtt_ms_between",
    "PlanetLabNode",
    "PlanetLabPool",
    "generate_planetlab_pool",
    "LinkErrorConfig",
]
