"""Deterministic fault plans for the live service runtime.

The *simulated* overlay has its fault arm (``sim/faults.py``); this
module holds the plan that strikes the long-running control plane of
:mod:`repro.service` at fixed *virtual* times, so a chaos run is exactly
as reproducible as a clean one.  The plan is read from the
``REPRO_SERVICE_CHAOS`` environment variable (or the service CLI's
``--chaos``) — inline JSON, or ``@path`` to a JSON file.  Unset (the
default) means no plan.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from repro.util.validation import (
    check_fields, checked, count, non_negative, one_of, positive,
)

__all__ = [
    "SERVICE_CHAOS_ENV",
    "ServiceChaosRule",
    "load_service_plan",
]

SERVICE_CHAOS_ENV = "REPRO_SERVICE_CHAOS"

_SERVICE_ACTIONS = ("agent-crash", "bus-stall", "clock-jump")


def _seconds(domain):
    """``domain``, stored as a float (JSON's ``600`` reads as ``600.0``)."""
    return lambda name, value: float(domain(name, value))


@dataclass(frozen=True)
class ServiceChaosRule:
    """One deterministic fault against the *live* service runtime.

    The ``bus`` in ``bus-stall`` (and in the health probe and report key
    of the same name) is the join queue: the service has no other queue.

    * ``agent-crash`` — kill the ``node_index``-th currently attached
      member (sorted order, source excluded) without a goodbye protocol,
      through the session fault arm (:mod:`repro.sim.faults`);
    * ``bus-stall`` — close the join queue's consumer gate for
      ``duration_s`` virtual seconds (serving slots stop taking joins,
      depth builds, the ``bus`` health probe must flip);
    * ``clock-jump`` — fire every pending service timer immediately,
      modelling a monotonic clock that leapt past all deadlines: join
      waits time out spuriously and the retry envelope must absorb it.
    """

    action: str = checked(one_of(*_SERVICE_ACTIONS))
    at_s: float = checked(_seconds(non_negative))
    node_index: int = checked(count(0), 0)
    duration_s: float = checked(_seconds(positive), 30.0)

    __post_init__ = check_fields


def load_service_plan(raw: str | None = None) -> tuple[ServiceChaosRule, ...]:
    """Parse the live-service chaos plan from ``raw`` or ``REPRO_SERVICE_CHAOS``.

    A JSON list (inline or ``@path``) of rules whose keys are the rule's
    fields, sorted by ``(at_s, action)``::

        [{"action": "agent-crash", "at_s": 40.0, "node_index": 1},
         {"action": "bus-stall", "at_s": 80.0, "duration_s": 20.0},
         {"action": "clock-jump", "at_s": 120.0}]

    Returns ``()`` when unset.  Raises :class:`ValueError` on a malformed
    plan, after ``REPRO_SERVICE_CHAOS[i]`` for a bad entry — silently
    ignoring a typo'd rule (an unknown key, a ``"node_index": "0"``)
    would make a chaos test vacuously green.
    """
    env = SERVICE_CHAOS_ENV
    if raw is None:
        raw = os.environ.get(env, "")
    raw = raw.strip()
    if not raw:
        return ()
    if raw.startswith("@"):
        raw = Path(raw[1:]).read_text()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{env} is not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise ValueError(f"{env} must be a JSON list of rules")
    known = fields(ServiceChaosRule)
    rules = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ValueError(f"{env}[{i}] must be an object")
        unknown = set(entry) - {f.name for f in known}
        if unknown:
            raise ValueError(f"{env}[{i}] has unknown field(s) {sorted(unknown)}")
        for f in known:
            if f.default is MISSING and f.name not in entry:
                raise ValueError(f"{env}[{i}] is missing {f.name}")
        try:
            rules.append(ServiceChaosRule(**entry))
        except ValueError as exc:
            raise ValueError(f"{env}[{i}].{exc}") from None
    return tuple(sorted(rules, key=lambda r: (r.at_s, r.action)))
