"""Per-link loss-rate assignment.

Chapter 4 motivates loss-based virtual directions with a measurement
observation: across inter-PoP links, delay and loss are largely
*uncorrelated* — in the paper's iPlane sample, 44% of link pairs were
inversely correlated and the rest gave differing ratios.  The Chapter 4
experiments then assign each physical link "a random error rate between 0%
and 2%".

:func:`link_error_array` implements both regimes:

* ``correlation=0`` (the paper's setup) — i.i.d. uniform error rates,
  independent of link delay;
* ``correlation`` in (0, 1] — error rates rank-blended with link delay, for
  ablations studying how much decorrelation VDM-L actually needs;
* ``correlation`` in [-1, 0) — inversely blended (longer links lose less),
  the adversarial regime where delay-based trees pick lossy paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rngtools import rng_from_seed
from repro.util.validation import check_fields, checked, in_range, probability

__all__ = ["LinkErrorConfig", "link_error_array"]


@dataclass(frozen=True)
class LinkErrorConfig:
    """Parameters for loss-rate assignment.

    ``max_error`` = 0.02 reproduces the paper's "between 0% and 2%".
    """

    max_error: float = checked(probability, 0.02)
    min_error: float = checked(probability, 0.0)
    correlation: float = checked(in_range(-1.0, 1.0), 0.0)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.min_error > self.max_error:
            raise ValueError(
                f"min_error {self.min_error} exceeds max_error {self.max_error}"
            )


def link_error_array(
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_delay: np.ndarray,
    config: LinkErrorConfig | None = None,
    *,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Per-edge error rates for a triplet-form edge list.

    With nonzero ``correlation`` c, the error *rank* of each link is a blend
    of its delay rank and an independent random rank: rank = |c| * delay_rank
    + (1-|c|) * random_rank, inverted when c < 0.  Ranks map linearly onto
    [min_error, max_error].

    Draws happen in the *stable sort of the edge list by min endpoint* —
    the ``graph.edges()`` order of the historical graph-form draw, whose
    nodes were added ascending (each edge is yielded when its lower
    endpoint is visited, in per-node insertion order) — and scatter back
    to edge-array order.  ``tests/lazy_underlay.assign_link_errors`` is
    that graph-form twin; the equivalence suites pin the two bit for bit.
    """
    config = config or LinkErrorConfig()
    rng = rng_from_seed(seed)
    m = int(edge_u.size)
    errors = np.zeros(m)
    if m == 0:
        return errors
    order = np.argsort(np.minimum(edge_u, edge_v), kind="stable")
    lo, hi = config.min_error, config.max_error

    if config.correlation == 0.0:
        errors[order] = rng.uniform(lo, hi, size=m)
    else:
        delays = np.asarray(edge_delay, dtype=float)[order]
        delay_rank = np.argsort(np.argsort(delays)) / max(1, m - 1)
        random_rank = rng.permutation(m) / max(1, m - 1)
        c = abs(config.correlation)
        blended = c * delay_rank + (1.0 - c) * random_rank
        if config.correlation < 0:
            blended = 1.0 - blended
        errors[order] = lo + blended * (hi - lo)
    return errors


def path_success_probability(errors: list[float]) -> float:
    """Probability a packet survives a path with the given link error rates."""
    prob = 1.0
    for err in errors:
        if not 0.0 <= err <= 1.0:
            raise ValueError(f"link error out of range: {err}")
        prob *= 1.0 - err
    return prob
