"""Deterministic worker-fault injection for supervisor self-tests.

PR 2 gave the *simulated* overlay a fault arm (``sim/faults.py``); this
module is the same idea one level up — faults injected into the
*replication harness itself*, so tests and the CI ``chaos-smoke`` job can
prove that :mod:`repro.harness.supervisor` finishes a sweep with
complete, byte-identical tables despite worker deaths, hangs, and raised
exceptions.

A chaos *plan* is a list of rules loaded from the ``REPRO_CHAOS``
environment variable — either inline JSON or ``@path`` to a JSON file.
Unset (the default) means no plan, and the supervisor pays nothing.  Each
rule selects tasks by their journal key fields and says what to do on
which attempts::

    [{"action": "kill", "group": "ch3_churn", "rep": 1},
     {"action": "hang", "group": "ch3_churn", "rep": 3, "hang_s": 600},
     {"action": "raise", "rep": 0, "max_attempt": 2}]

* ``action`` — ``kill`` (``os._exit`` inside the worker: simulates an
  OOM-killed or segfaulted process and breaks the pool), ``hang``
  (sleep ``hang_s`` inside the worker: simulates a wedged scenario, to
  be reaped by the supervisor's ``REPRO_TASK_TIMEOUT_S``), or ``raise``
  (raise :class:`ChaosError` inside the worker);
* ``group`` — match tasks whose sweep key starts with this group name
  (omit to match any group, including un-keyed tasks);
* ``rep`` — match this replication index (omit to match every rep);
* ``max_attempt`` — fire while the task's attempt number is <= this
  (default 1: only the first attempt faults, so the supervisor's retry
  succeeds and the sweep must still complete bit-identically).

Matching happens **supervisor-side** against the same (key, rep,
attempt) triple the retry bookkeeping uses, which is what makes the
injection deterministic: scheduling order, worker identity, and wall
clock never enter the decision.  The *arm* — the code that actually
kills, hangs, or raises — runs **worker-side**: the supervisor submits
:func:`chaos_apply` wrapping the real worker, so a ``kill`` takes down a
genuine pool process and exercises the real ``BrokenProcessPool``
recovery path, not a simulation of it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from repro.util.validation import (
    check_fields, checked, count, non_negative, one_of, optional, positive, string,
)

__all__ = [
    "CHAOS_ENV",
    "SERVICE_CHAOS_ENV",
    "ChaosError",
    "ChaosRule",
    "ServiceChaosRule",
    "chaos_apply",
    "load_plan",
    "load_service_plan",
    "match",
]

CHAOS_ENV = "REPRO_CHAOS"
SERVICE_CHAOS_ENV = "REPRO_SERVICE_CHAOS"

_ACTIONS = ("kill", "hang", "raise")
_SERVICE_ACTIONS = ("agent-crash", "bus-stall", "clock-jump")

#: exit status used by the ``kill`` action — distinctive, so a worker
#: that died of injected chaos is distinguishable from a real crash in
#: supervisor failure records.
KILL_EXIT_CODE = 117


class ChaosError(RuntimeError):
    """The exception raised inside a worker by the ``raise`` action."""


def _seconds(domain):
    """``domain``, stored as a float (JSON's ``600`` reads as ``600.0``)."""
    return lambda name, value: float(domain(name, value))


@dataclass(frozen=True)
class ChaosRule:
    """One deterministic fault: which tasks, which attempts, what to do."""

    action: str = checked(one_of(*_ACTIONS))
    group: str | None = checked(optional(string), None)
    rep: int | None = checked(optional(count(0)), None)
    max_attempt: int = checked(count(), 1)
    hang_s: float = checked(_seconds(positive), 3600.0)

    __post_init__ = check_fields

    def applies(self, key: tuple | None, rep: int, attempt: int) -> bool:
        if attempt > self.max_attempt:
            return False
        if self.rep is not None and rep != self.rep:
            return False
        if self.group is not None:
            if key is None or not key or str(key[0]) != self.group:
                return False
        return True


def _read_plan(raw: str | None, env: str, rule_cls: type) -> list:
    """Parse a JSON list (inline or ``@path``) of ``rule_cls`` rules: keys are
    the rule's fields, its domains refuse bad values, after ``env[i]``."""
    if raw is None:
        raw = os.environ.get(env, "")
    raw = raw.strip()
    if not raw:
        return []
    if raw.startswith("@"):
        raw = Path(raw[1:]).read_text()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{env} is not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise ValueError(f"{env} must be a JSON list of rules")
    known = fields(rule_cls)
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
            rules.append(rule_cls(**entry))
        except ValueError as exc:
            raise ValueError(f"{env}[{i}].{exc}") from None
    return rules


def load_plan(raw: str | None = None) -> tuple[ChaosRule, ...]:
    """Parse the chaos plan from ``raw`` or the ``REPRO_CHAOS`` variable.

    Returns ``()`` when unset.  Raises :class:`ValueError` on a malformed
    plan — silently ignoring a typo'd chaos spec (an unknown key, a
    ``"rep": "0"`` that never matches) would make a chaos test vacuously
    green.
    """
    return tuple(_read_plan(raw, CHAOS_ENV, ChaosRule))


def match(
    plan: tuple[ChaosRule, ...], key: tuple | None, rep: int, attempt: int
) -> ChaosRule | None:
    """First rule that applies to this (task, attempt), or ``None``."""
    for rule in plan:
        if rule.applies(key, rep, attempt):
            return rule
    return None


@dataclass(frozen=True)
class ServiceChaosRule:
    """One deterministic fault against the *live* service runtime (PR 10).

    Where :class:`ChaosRule` attacks pool workers, these rules attack the
    long-running control plane of :mod:`repro.service` at fixed *virtual*
    times, so a chaos run is exactly as reproducible as a clean one:

    * ``agent-crash`` — kill the ``node_index``-th currently attached
      member (sorted order, source excluded) without a goodbye protocol,
      through the session fault arm (:mod:`repro.sim.faults`);
    * ``bus-stall`` — close the consumer gate of event-bus ``topic`` for
      ``duration_s`` virtual seconds (deliveries stop, depth builds, the
      bus health probe must flip);
    * ``clock-jump`` — fire every pending virtual-clock timer immediately,
      modelling a monotonic clock that leapt past all deadlines: join
      waits time out spuriously and the retry envelope must absorb it.
    """

    action: str = checked(one_of(*_SERVICE_ACTIONS))
    at_s: float = checked(_seconds(non_negative))
    node_index: int = checked(count(0), 0)
    topic: str = checked(string, "joins")
    duration_s: float = checked(_seconds(positive), 30.0)

    __post_init__ = check_fields


def load_service_plan(raw: str | None = None) -> tuple[ServiceChaosRule, ...]:
    """Parse the live-service chaos plan (``REPRO_SERVICE_CHAOS``).

    Same contract as :func:`load_plan`, and sorted by ``(at_s, action)``::

        [{"action": "agent-crash", "at_s": 40.0, "node_index": 1},
         {"action": "bus-stall", "at_s": 80.0, "topic": "joins",
          "duration_s": 20.0},
         {"action": "clock-jump", "at_s": 120.0}]
    """
    rules = _read_plan(raw, SERVICE_CHAOS_ENV, ServiceChaosRule)
    return tuple(sorted(rules, key=lambda r: (r.at_s, r.action)))


def chaos_apply(action: str, hang_s: float, worker, *args):
    """Worker-side fault arm: perform ``action`` instead of the real work.

    Module-level (pickled by reference) so the supervisor can submit it
    to the pool wrapping any replication worker.  The ``worker``/``args``
    tail is carried so an action that is none of the three falls through
    to the real computation.
    """
    if action == "kill":
        os._exit(KILL_EXIT_CODE)
    if action == "hang":
        time.sleep(hang_s)
        raise ChaosError(f"injected hang outlived its {hang_s}s sleep")
    if action == "raise":
        raise ChaosError("injected worker exception")
    return worker(*args)
