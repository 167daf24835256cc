"""Argument validation: the refusal helpers, and the field domains of configs.

The ``check_*`` helpers raise ``ValueError`` with a consistent message
format, so tests can assert on them and users get actionable errors at
the API boundary rather than deep inside the simulator.

**Field domains.**  Each field of a config or plan dataclass declares
what it admits once, in its metadata: ``n_nodes: int = checked(count(),
200)``.  A domain is a plain function ``(name, value) -> value`` built
on the helpers, so refusals keep their wording.  It returns the value to
store: the value as given, so a config hashes and serializes as its
caller wrote it (transit-stub delay pairs and chaos-rule times alone
normalize, to float tuples and floats).  :func:`check_fields` runs every
declared domain of a class from one cached tuple; a ``__post_init__``
is ``check_fields`` itself, or calls it first.

What stays hand-written: rules across fields (``total_s >=
join_phase_s``, ``min_error <= max_error``, a fault plan's set-together
knobs), after ``check_fields``; and the per-call checks of the engine,
the agent and the scale walk (``Simulator``, ``OverlayAgent``,
``build_scale_tree``), which call the helpers directly and skip them for
default values because they run per message or per call.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields
from functools import cache
from numbers import Integral
from typing import Any, Callable

from repro.util.rngtools import check_seed

__all__ = [
    "check_count", "check_finite", "check_positive", "check_non_negative",
    "check_probability", "check_in_range", "check_fields", "checked", "count",
    "positive", "non_negative", "probability", "in_range", "one_of", "boolean",
    "string", "rng_seed", "optional", "pair", "degree_spec",
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


# -- field domains --------------------------------------------------------------

Domain = Callable[[str, Any], Any]


def checked(domain: Domain, default: Any = MISSING) -> Any:
    """A dataclass field whose values ``domain`` admits (no default: required)."""
    return field(default=default, metadata={"domain": domain})


@cache
def _domains(cls: type) -> tuple[tuple[str, Domain], ...]:
    return tuple(
        (f.name, f.metadata["domain"]) for f in fields(cls) if "domain" in f.metadata
    )


def check_fields(obj: Any) -> None:
    """Run every field domain ``obj``'s dataclass declares, in field order."""
    for name, domain in _domains(type(obj)):
        value = getattr(obj, name)
        stored = domain(name, value)
        if stored is not value:
            object.__setattr__(obj, name, stored)


def _real(name: str, value: Any) -> Any:
    # float(True) is 1.0: a bool is a flag passed by mistake, not a number.
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def positive(name: str, value: Any) -> Any:
    """A finite real > 0."""
    check_finite(name, check_positive(name, _real(name, value)))
    return value


def non_negative(name: str, value: Any) -> Any:
    """A finite real >= 0."""
    check_finite(name, check_non_negative(name, _real(name, value)))
    return value


def probability(name: str, value: Any) -> Any:
    """A real in [0, 1]."""
    check_probability(name, _real(name, value))
    return value


def in_range(lo: float, hi: float, label: str | None = None) -> Domain:
    """A real in [lo, hi]; refusals say ``label`` when the field name is terse."""

    def domain(name: str, value: Any) -> Any:
        check_in_range(label or name, _real(name, value), lo, hi)
        return value

    return domain


def count(minimum: int = 1) -> Domain:
    """A whole number (not a float, not a bool) >= ``minimum``."""

    def domain(name: str, value: Any) -> Any:
        check_count(name, value, minimum)
        return value

    return domain


def one_of(*choices: str) -> Domain:
    """One of a fixed set of values."""

    def domain(name: str, value: Any) -> Any:
        if not isinstance(value, str) or value not in choices:
            raise ValueError(f"{name} must be one of {choices}, got {value!r}")
        return value

    return domain


def boolean(name: str, value: Any) -> Any:
    """A real ``bool``: a non-empty string would read as ``True``."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return value


def string(name: str, value: Any) -> Any:
    """A ``str``."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def rng_seed(name: str, value: Any) -> Any:
    """A seed :func:`~repro.util.rngtools.spawn_rng` takes without aliasing."""
    check_seed(value, name)
    return value


def optional(domain: Domain) -> Domain:
    """``None``, or a value ``domain`` admits."""

    return lambda name, value: value if value is None else domain(name, value)


def pair(bound: Domain) -> Domain:
    """A ``(lo, hi)`` tuple or list of two ``bound`` values with lo <= hi."""

    def domain(name: str, value: Any) -> Any:
        if not isinstance(value, (tuple, list)) or len(value) != 2:
            raise ValueError(f"{name} must be a (lo, hi) pair, got {value!r}")
        lo, hi = (bound(name, v) for v in value)
        if not lo <= hi:
            raise ValueError(f"{name} must satisfy lo <= hi, got {value!r}")
        return value

    return domain


def degree_spec(name: str, value: Any) -> Any:
    """A session degree spec (:func:`~repro.sim.session.draw_degree`): an
    int >= 1, a finite average >= 1, an int ``(lo, hi)`` tuple, or a draw."""
    if callable(value):
        return value
    if isinstance(value, tuple):
        return pair(count())(name, value)
    if isinstance(value, float):
        if check_finite(name, value) < 1.0:
            raise ValueError(f"{name} must be >= 1, got {value!r}")
        return value
    check_count(name, value)
    return value
