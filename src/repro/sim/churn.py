"""The paper's slotted churn process (Section 3.6.2).

The evaluation defines churn over fixed 400 s slots: at a churn rate of
``r``, ``round(r * N)`` members leave and the same number of fresh nodes
join during each slot, keeping the population at ``N``.  The tree then
gets ``settle_s`` (100 s) of quiet before the slot's measurement.  "Some
nodes may join and leave several times while some never join" — joiners
are drawn from the whole inactive pool, including past leavers.

:class:`SlottedChurnModel` draws the per-slot leave/join events;
:func:`churn_order` orders any churn timeline, leaves before joins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

import numpy as np

from repro.util.rngtools import rng_from_seed
from repro.util.validation import (
    check_fields, check_non_negative, check_positive, check_probability, checked,
    count, non_negative, one_of,
)

__all__ = ["ChurnEvent", "SlottedChurnModel", "churn_order"]

#: Tie-break for simultaneous churn events: leaves apply before joins, so
#: a node leaving and (re)joining at the same instant frees its slot — and
#: its old tree position — before the join runs.  Relying on alphabetical
#: ``action`` ordering would put "join" first.
_ACTION_ORDER = {"leave": 0, "join": 1}


@dataclass(frozen=True)
class ChurnEvent:
    """One churn action: a node joins or leaves at an absolute time."""

    time: float = checked(non_negative)
    action: str = checked(one_of("join", "leave"))
    node: int = checked(count(0))

    __post_init__ = check_fields


def churn_order(event: ChurnEvent) -> tuple[float, int, int]:
    """Sort key of a churn timeline: by time, leaves before joins, by node."""
    return (event.time, _ACTION_ORDER[event.action], event.node)


class SlottedChurnModel:
    """Draws slotted churn against a live membership view.

    The session calls :meth:`plan_slot` at each slot boundary with the
    currently active member set; the model returns the leave/join events
    for that slot.  Events land uniformly inside the slot's churn window
    (everything before the settle period), so the measurement always sees
    a tree that had ``settle_s`` to stabilize — the paper's methodology.
    """

    def __init__(
        self,
        churn_rate: float,
        target_population: int,
        *,
        slot_s: float = 400.0,
        settle_s: float = 100.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        check_probability("churn_rate", churn_rate)
        check_positive("target_population", target_population)
        check_positive("slot_s", slot_s)
        check_non_negative("settle_s", settle_s)
        if settle_s >= slot_s:
            raise ValueError(
                f"settle_s ({settle_s}) must be shorter than slot_s ({slot_s})"
            )
        self.churn_rate = churn_rate
        self.target_population = int(target_population)
        self.slot_s = slot_s
        self.settle_s = settle_s
        self.rng = rng_from_seed(seed)

    @classmethod
    def from_config(cls, config, seed=None) -> "SlottedChurnModel":
        """Build the model a session config describes.

        ``config`` is any object with ``churn_rate`` / ``n_nodes`` /
        ``slot_s`` / ``settle_s`` attributes (in practice a
        :class:`~repro.sim.session.SessionConfig` — duck-typed here to
        keep this module import-light).  ``seed`` defaults to the
        config's own ``"churn"`` spawn stream, which is the contract the
        scalar session, the batched engine, and the parallel workers all
        share: one constructor means the three paths can never drift in
        how they derive the churn RNG.
        """
        if seed is None:
            from repro.util.rngtools import spawn_rng

            seed = spawn_rng(config.seed, "churn")
        return cls(
            config.churn_rate,
            config.n_nodes,
            slot_s=config.slot_s,
            settle_s=config.settle_s,
            seed=seed,
        )

    @property
    def per_slot_count(self) -> int:
        """How many nodes leave (and join) per slot."""
        return round(self.churn_rate * self.target_population)

    def plan_slot(
        self,
        slot_start: float,
        active: Collection[int],
        inactive_pool: Collection[int],
    ) -> list[ChurnEvent]:
        """Draw one slot's churn events.

        ``active`` are current members eligible to leave (the session must
        already exclude the source); ``inactive_pool`` are hosts eligible
        to join; either is drawn from in sorted order, whatever its type.
        If either side is smaller than the per-slot count, churn is clipped
        to what is available.
        """
        k = self.per_slot_count
        if k == 0:
            return []
        window = self.slot_s - self.settle_s
        events: list[ChurnEvent] = []

        leavers_n = min(k, len(active))
        joiners_n = min(k, len(inactive_pool))

        active_sorted = sorted(active)
        pool_sorted = sorted(inactive_pool)
        if leavers_n:
            leavers = self.rng.choice(active_sorted, size=leavers_n, replace=False)
            times = self.rng.uniform(0.0, window, size=leavers_n)
            events.extend(
                ChurnEvent(slot_start + float(t), "leave", int(n))
                for n, t in zip(leavers, times)
            )
        if joiners_n:
            joiners = self.rng.choice(pool_sorted, size=joiners_n, replace=False)
            times = self.rng.uniform(0.0, window, size=joiners_n)
            events.extend(
                ChurnEvent(slot_start + float(t), "join", int(n))
                for n, t in zip(joiners, times)
            )
        events.sort(key=churn_order)
        return events
