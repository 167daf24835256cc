"""Scenario files.

Section 5.2.2: "A line in scenario file mainly has action type, node
information and time.  Main controller reads this file and executes the
commands in this file sequentially."  The text format here follows that
line structure::

    # comment
    join    <node-id>  <time-s>
    leave   <node-id>  <time-s>
    terminate          <time-s>

Different seeds produce different scenario files for the same roster —
the paper's mechanism for its 5-seed replications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.sim.churn import ChurnEvent, churn_order
from repro.util.rngtools import rng_from_seed
from repro.util.validation import check_probability, positive

__all__ = [
    "Scenario",
    "generate_scenario",
    "parse_scenario",
    "render_scenario",
]


@dataclass
class Scenario:
    """A full experiment script: events plus the terminate time.

    Events sort like the churn timeline: a node that leaves and rejoins at
    one instant leaves first, so the rejoin does not find it still alive.
    """

    events: list[ChurnEvent]
    terminate_at: float
    source: int

    def __post_init__(self) -> None:
        # Finite and positive: the controller's session runs to it.
        positive("terminate_at", self.terminate_at)
        self.events.sort(key=churn_order)
        late = [e for e in self.events if e.time > self.terminate_at]
        if late:
            raise ValueError(
                f"{len(late)} events scheduled after terminate_at={self.terminate_at}"
            )
        if any(e.node == self.source for e in self.events):
            raise ValueError("the source must not appear in join/leave events")

    def validate(self, known_nodes: Iterable[int]) -> None:
        """Check every referenced node exists in the roster."""
        known = set(known_nodes)
        unknown = {e.node for e in self.events} - known
        if unknown:
            raise ValueError(f"scenario references unknown nodes: {sorted(unknown)}")
        if self.source not in known:
            raise ValueError(f"scenario source {self.source} not in roster")

    def joined_nodes(self) -> set[int]:
        return {e.node for e in self.events if e.action == "join"}


def generate_scenario(
    nodes: Sequence[int],
    source: int,
    *,
    n_initial: int,
    join_phase_s: float,
    total_s: float,
    churn_rate: float = 0.0,
    slot_s: float = 400.0,
    settle_s: float = 100.0,
    seed: int | None = 0,
) -> Scenario:
    """Generate a scenario with the paper's structure.

    ``n_initial`` members join during the join phase; churn then replaces
    ``churn_rate * n_initial`` members per slot.  The node roster excludes
    the source automatically.
    """
    check_probability("churn_rate", churn_rate)
    pool = sorted(set(nodes) - {source})
    if len(pool) < n_initial:
        raise ValueError(
            f"roster has {len(pool)} non-source nodes; cannot join {n_initial}"
        )
    if total_s < join_phase_s:
        raise ValueError("total_s must cover join_phase_s")
    rng = rng_from_seed(seed)

    events: list[ChurnEvent] = []
    initial = [int(n) for n in rng.choice(pool, size=n_initial, replace=False)]
    times = rng.uniform(0.0, 0.9 * join_phase_s, size=n_initial)
    events.extend(
        ChurnEvent(float(t), "join", n) for n, t in zip(initial, times)
    )

    active = set(initial)
    inactive = set(pool) - active
    k = round(churn_rate * n_initial)
    slot_start = join_phase_s
    while slot_start + slot_s <= total_s + 1e-9 and k > 0:
        window = slot_s - settle_s
        leavers = [
            int(n)
            for n in rng.choice(sorted(active), size=min(k, len(active)), replace=False)
        ]
        joiners = [
            int(n)
            for n in rng.choice(
                sorted(inactive), size=min(k, len(inactive)), replace=False
            )
        ]
        for n in leavers:
            events.append(
                ChurnEvent(slot_start + float(rng.uniform(0, window)), "leave", n)
            )
            active.discard(n)
            inactive.add(n)
        for n in joiners:
            events.append(
                ChurnEvent(slot_start + float(rng.uniform(0, window)), "join", n)
            )
            inactive.discard(n)
            active.add(n)
        slot_start += slot_s

    return Scenario(events=events, terminate_at=total_s, source=source)


def render_scenario(scenario: Scenario) -> str:
    """Serialize to the line-per-event text format."""
    lines = [
        "# VDM PlanetLab scenario",
        f"source {scenario.source}",
    ]
    for ev in scenario.events:
        lines.append(f"{ev.action}\t{ev.node}\t{ev.time:.3f}")
    lines.append(f"terminate\t{scenario.terminate_at:.3f}")
    return "\n".join(lines) + "\n"


def parse_scenario(text: str) -> Scenario:
    """Parse the text format back into a :class:`Scenario`."""
    events: list[ChurnEvent] = []
    terminate_at: float | None = None
    source: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "source":
                source = int(parts[1])
            elif parts[0] == "terminate":
                terminate_at = float(parts[1])
            else:  # a join or leave line; ChurnEvent refuses any other action
                events.append(
                    ChurnEvent(float(parts[2]), parts[0], int(parts[1]))
                )
        except (IndexError, ValueError) as exc:
            raise ValueError(f"scenario line {lineno}: {raw!r}: {exc}") from None
    if terminate_at is None:
        raise ValueError("scenario has no terminate line")
    if source is None:
        raise ValueError("scenario has no source line")
    return Scenario(events=events, terminate_at=terminate_at, source=source)
