"""Small argument-validation helpers used across the library.

These raise ``ValueError`` with a consistent message format so tests can
assert on them and users get actionable errors at the API boundary rather
than deep inside the simulator.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import Any

__all__ = [
    "check_count",
    "check_finite",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
]


def _check_real(name: str, value: Any) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a real number, got {value!r}") from exc
    if math.isnan(out):
        raise ValueError(f"{name} must not be NaN")
    return out


def check_finite(name: str, value: Any) -> float:
    """Return ``value`` as float, requiring it to be neither NaN nor infinite."""
    out = _check_real(name, value)
    if math.isinf(out):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return out


def check_count(name: str, value: Any, minimum: int = 1) -> int:
    """Return ``value`` as int, requiring a whole number >= ``minimum``.

    A float is refused even when it is whole (``20.0``): counts size
    loops and slices, where a float one fails far from the caller or,
    fractional, never lets a countdown reach zero.  So is a bool, which
    ``int()`` would quietly read as 0 or 1.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not isinstance(value, Integral):
        check_finite(name, value)  # NaN and the infinities say so
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def check_positive(name: str, value: Any) -> float:
    """Return ``value`` as float, requiring it to be > 0."""
    out = _check_real(name, value)
    if out <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return out


def check_non_negative(name: str, value: Any) -> float:
    """Return ``value`` as float, requiring it to be >= 0."""
    out = _check_real(name, value)
    if out < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return out


def check_probability(name: str, value: Any) -> float:
    """Return ``value`` as float, requiring 0 <= value <= 1."""
    out = _check_real(name, value)
    if not 0.0 <= out <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return out


def check_in_range(
    name: str, value: Any, lo: float, hi: float, *, inclusive: bool = True
) -> float:
    """Return ``value`` as float, requiring it to lie in [lo, hi] (or (lo, hi))."""
    out = _check_real(name, value)
    if inclusive:
        ok = lo <= out <= hi
        bounds = f"[{lo}, {hi}]"
    else:
        ok = lo < out < hi
        bounds = f"({lo}, {hi})"
    if not ok:
        raise ValueError(f"{name} must be in {bounds}, got {value!r}")
    return out
