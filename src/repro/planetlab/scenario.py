"""Scenario files.

Section 5.2.2: "A line in scenario file mainly has action type, node
information and time.  Main controller reads this file and executes the
commands in this file sequentially."  The text format here follows that
line structure::

    # comment
    join    <node-id>  <time-s>
    leave   <node-id>  <time-s>
    terminate          <time-s>

A generated scenario is no second copy of the paper procedure: it is
the schedule a :class:`~repro.sim.session.MulticastSession` draws for the
same :class:`~repro.sim.session.SessionConfig`, written down, so the
controller replaying it runs that session.  Different seeds produce
different scenario files for the same roster — the paper's mechanism for
its 5-seed replications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.sim.churn import ChurnEvent, SlottedChurnModel, churn_order
from repro.sim.session import SessionConfig, session_schedule
from repro.util.validation import positive

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


def generate_scenario(config: SessionConfig, hosts: Sequence[int]) -> Scenario:
    """Write down the session ``config`` runs over ``hosts``.

    The source and the initial joins are :func:`session_schedule`'s draws,
    and each slot's churn is the session's own :class:`SlottedChurnModel`
    drawing against the membership so far, so replaying the file through
    the main controller replays that session.  The membership is tracked
    offline: no member drops out between its join and its scripted leave.
    """
    schedule = session_schedule(config, list(hosts))
    churn = SlottedChurnModel.from_config(config)
    events: list[ChurnEvent] = []
    active: set[int] = set()
    for time, _, kind, node in schedule.entries:
        if kind == "join":
            events.append(ChurnEvent(time, "join", node))
            active.add(node)
        elif kind == "slot":
            for ev in churn.plan_slot(time, active, schedule.pool - active):
                events.append(ev)
                (active.add if ev.action == "join" else active.discard)(ev.node)
    return Scenario(events, config.total_s, schedule.source)


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
