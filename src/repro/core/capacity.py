"""Bandwidth-derived degree limits (the paper's second future-work item).

The evaluation assigns degree limits "randomly ... between upper and
lower bounds", and the future-work section notes that a real deployment
needs "a system ... to measure and determine the degree of each node"
from its outgoing bandwidth.  This module provides that system:

* :func:`degree_from_uplink` — how many children a peer can feed, given
  its uplink, the stream bitrate, and a control/overhead headroom;
* :class:`UplinkPopulation` — a peer-population model (lognormal uplink
  distribution with an optional free-rider fraction) usable directly as
  a session degree spec;
* :func:`admission_check` — the bottleneck test the paper flags ("even
  though one node has enough capacity ... a bottleneck point between
  these two nodes may not satisfy bandwidth requirement").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import (
    check_fields, check_in_range, check_positive, checked, count, in_range,
    positive, probability,
)

__all__ = ["degree_from_uplink", "UplinkPopulation", "admission_check"]


def degree_from_uplink(
    uplink_kbps: float,
    stream_kbps: float,
    *,
    headroom: float = 0.1,
    min_degree: int = 1,
    max_degree: int | None = None,
) -> int:
    """Children a peer can feed from its uplink.

    ``headroom`` reserves a fraction of the uplink for control traffic
    and rate variation.  Every peer gets at least ``min_degree`` (the
    protocol's assumption that "degree limit of each node is at least
    one"); pass ``min_degree=0`` to model pure free riders.
    """
    check_positive("uplink_kbps", uplink_kbps)
    check_positive("stream_kbps", stream_kbps)
    check_in_range("headroom", headroom, 0.0, 0.99)
    if min_degree < 0:
        raise ValueError(f"min_degree must be >= 0, got {min_degree}")
    usable = uplink_kbps * (1.0 - headroom)
    degree = int(usable // stream_kbps)
    degree = max(min_degree, degree)
    if max_degree is not None:
        degree = min(degree, int(max_degree))
    return degree


@dataclass(frozen=True)
class UplinkPopulation:
    """A peer-population uplink model, usable as a session degree spec.

    Uplinks are lognormal (median ``median_uplink_kbps``, shape
    ``sigma``), matching the long observed skew of residential uplinks;
    a ``free_rider_fraction`` of peers contributes only the protocol
    minimum of one slot.  Instances are callables ``spec(rng) -> int``,
    the session's :func:`~repro.sim.session.draw_degree` contract.

    Example
    -------
    >>> import numpy as np
    >>> spec = UplinkPopulation(median_uplink_kbps=2000, stream_kbps=500)
    >>> degree = spec(np.random.default_rng(0))
    >>> degree >= 1
    True
    """

    median_uplink_kbps: float = checked(positive, 2000.0)
    sigma: float = checked(positive, 0.8)
    stream_kbps: float = checked(positive, 500.0)
    headroom: float = checked(in_range(0.0, 0.99), 0.1)
    max_degree: int = checked(count(), 20)
    free_rider_fraction: float = checked(probability, 0.0)

    __post_init__ = check_fields

    def draw_uplink(self, rng: np.random.Generator) -> float:
        return float(
            self.median_uplink_kbps * rng.lognormal(0.0, self.sigma)
        )

    def __call__(self, rng: np.random.Generator) -> int:
        if (
            self.free_rider_fraction > 0
            and rng.random() < self.free_rider_fraction
        ):
            return 1  # contributes the bare protocol minimum
        return degree_from_uplink(
            self.draw_uplink(rng),
            self.stream_kbps,
            headroom=self.headroom,
            min_degree=1,
            max_degree=self.max_degree,
        )


def admission_check(
    parent_uplink_kbps: float,
    current_children: int,
    stream_kbps: float,
    *,
    path_bottleneck_kbps: float | None = None,
    headroom: float = 0.1,
) -> bool:
    """Can this parent accept one more child over this path?

    Two conditions: the parent must have an unused uplink share, and the
    parent-to-child path bottleneck (when known) must carry the stream.
    """
    capacity = degree_from_uplink(
        parent_uplink_kbps, stream_kbps, headroom=headroom, min_degree=0
    )
    if current_children + 1 > capacity:
        return False
    if path_bottleneck_kbps is not None and path_bottleneck_kbps < stream_kbps:
        return False
    return True
