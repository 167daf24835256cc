"""Banana Tree Protocol (BTP) — related-work extra baseline.

BTP (Helder & Jamin, 2002) is "one of the simplest protocols"
(Section 2.4.6): a newcomer attaches to the root, then periodically
*switches to a closer sibling* — it asks its parent for the children list
and, if some sibling is closer than the parent, adopts that sibling as its
new parent.  Loop avoidance: a node never switches to its own descendant,
and a node that is itself mid-switch rejects incoming switches (both
covered by the shared runtime's ancestor checks).

BTP is not part of the paper's quantitative evaluation; it is included
here as the natural third point on the join-intelligence spectrum
(BTP < HMTP < VDM) for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.join import Attach, Decision
from repro.util.validation import check_fields, checked, positive

__all__ = ["BTPConfig", "btp_join_decision", "parent_or_source"]


@dataclass(frozen=True)
class BTPConfig:
    """BTP tunables: the sibling-switch refinement period."""

    refine_period_s: float = checked(positive, 30.0)

    __post_init__ = check_fields


def btp_join_decision(row, agent, pivot, dist_to_pivot, info, probes) -> Decision:
    """Attach to the contacted node; while refining, switch to a sibling."""
    process = agent.active_process
    if process is not None and process.kind == "refine" and probes:
        # Sibling switch: adopt the closest sibling with a free slot if it
        # beats the parent; otherwise stay put (Attach(parent) is a no-op
        # for refinement).
        open_sibs = [
            (dist, sib) for sib, (dist, ci) in probes.items() if ci.free_degree > 0
        ]
        if open_sibs:
            sib_dist, closest_sib = min(open_sibs)
            if sib_dist < dist_to_pivot:
                return Attach(closest_sib)
    # Initial join / reconnect: attach to the contacted node; a full
    # node's rejection redirects us to its closest free child.
    return Attach(pivot)


def parent_or_source(agent) -> int:
    """Where BTP refines: against its current parent's children list."""
    return agent.parent if agent.parent is not None else agent.env.source
