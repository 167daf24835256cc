"""Shared utilities: interval bookkeeping, RNG plumbing, argument validation."""

from repro.util.intervals import IntervalSet
from repro.util.rngtools import spawn_rng, rng_from_seed
from repro.util.validation import (
    check_finite,
    check_positive,
    check_non_negative,
    check_probability,
    check_in_range,
)

__all__ = [
    "IntervalSet",
    "spawn_rng",
    "rng_from_seed",
    "check_finite",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
]
