"""Generalized virtual distances (Chapter 4).

A key property of VDM is that "virtual directions" need not be built from
RTT: any per-path performance metric that behaves like a length can define
the 1-D abstraction.  The paper demonstrates delay (VDM-D) and loss rate
(VDM-L); this module provides both plus a weighted composite, all behind a
single callable interface that plugs into
:class:`repro.protocols.base.ProtocolRuntime` as its ``metric``.

Loss as a length
----------------
Raw loss probabilities do not add along concatenated paths
(``1-(1-p1)(1-p2) != p1+p2``), which would make the "longest side of the
triangle" test noisy.  :class:`LossDistance` therefore defaults to the
*additive* transform ``-log(1 - p)`` (scaled x100 so small losses read
like percentages: ``-100*log(1-0.01) ~= 1.005``).  Raw percentages — what
the paper's Figures 4.1/4.2 display — remain available with
``log_scale=False``; for the sub-2% error rates of the Chapter 4 setup the
two are nearly identical.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.sim.network import Underlay
from repro.util.validation import check_non_negative

__all__ = [
    "VirtualDistance",
    "DelayDistance",
    "LossDistance",
    "CompositeDistance",
]


class VirtualDistance(ABC):
    """A virtual-distance metric over underlay hosts.

    Instances are callables ``metric(a, b) -> float`` returning a
    non-negative, symmetric distance; zero only for ``a == b``.
    """

    def __init__(self, underlay: Underlay) -> None:
        self.underlay = underlay

    @abstractmethod
    def __call__(self, a: int, b: int) -> float:
        """Virtual distance between hosts ``a`` and ``b``."""

    def row(self, a: int, hosts) -> np.ndarray:
        """Distances from ``a`` to every host in ``hosts`` as one array.

        Element ``i`` is bit-identical to ``self(a, hosts[i])``.  The
        generic implementation loops the scalar call; metrics with dense
        backing (``DelayDistance`` over a matrix-holding underlay)
        override it with a vectorized gather.
        """
        return np.array([self(a, b) for b in hosts], dtype=np.float64)

    @property
    def name(self) -> str:
        return type(self).__name__


class DelayDistance(VirtualDistance):
    """RTT-based virtual distance (VDM-D; also what HMTP/BTP probe)."""

    def __call__(self, a: int, b: int) -> float:
        return self.underlay.rtt_ms(a, b)

    def row(self, a: int, hosts) -> np.ndarray:
        base = self.underlay.delay_row(a)
        if base is None:
            return super().row(a, hosts)
        # Doubling only bumps the float64 exponent, so 2*delay gathered
        # from the dense row matches per-pair ``rtt_ms`` bit for bit.
        row = np.asarray(base, dtype=np.float64)
        return 2.0 * row[np.asarray(hosts, dtype=np.intp)]


class LossDistance(VirtualDistance):
    """Loss-based virtual distance (VDM-L).

    ``floor_ms_equivalent`` adds a tiny constant so that two loss-free
    paths still order deterministically rather than collapsing to zero
    distance; it is scaled by the pair's RTT so ties break toward nearer
    peers, mirroring the paper's observation that loss measurements need a
    secondary discriminator in practice.
    """

    def __init__(
        self,
        underlay: Underlay,
        *,
        log_scale: bool = True,
        rtt_tiebreak_weight: float = 1e-6,
    ) -> None:
        super().__init__(underlay)
        check_non_negative("rtt_tiebreak_weight", rtt_tiebreak_weight)
        self.log_scale = log_scale
        self.rtt_tiebreak_weight = rtt_tiebreak_weight

    def __call__(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        p = self.underlay.path_error(a, b)
        if not 0.0 <= p < 1.0:
            # A fully lossy path is "infinitely far" in loss space.
            return math.inf if p >= 1.0 else 0.0
        if self.log_scale:
            base = -100.0 * math.log1p(-p)
        else:
            base = 100.0 * p
        return base + self.rtt_tiebreak_weight * self.underlay.rtt_ms(a, b)


class CompositeDistance(VirtualDistance):
    """Weighted blend of delay and loss distances (an extension knob).

    ``alpha`` = 1 reproduces VDM-D, ``alpha`` = 0 reproduces VDM-L.  Delay
    is normalized by ``delay_scale_ms`` so the two terms are commensurate.
    """

    def __init__(
        self,
        underlay: Underlay,
        *,
        alpha: float = 0.5,
        delay_scale_ms: float = 100.0,
        loss_metric: LossDistance | None = None,
    ) -> None:
        super().__init__(underlay)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if delay_scale_ms <= 0:
            raise ValueError(f"delay_scale_ms must be > 0, got {delay_scale_ms}")
        self.alpha = alpha
        self.delay_scale_ms = delay_scale_ms
        self.loss_metric = loss_metric or LossDistance(underlay)

    def __call__(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        delay_term = self.underlay.rtt_ms(a, b) / self.delay_scale_ms
        loss_term = self.loss_metric(a, b)
        return self.alpha * delay_term + (1.0 - self.alpha) * loss_term
