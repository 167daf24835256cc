"""VDM's row of the protocol table: its config and its join brain.

The join loop (:mod:`repro.core.joinloop`, driven over messages by
:class:`~repro.protocols.base.JoinProcess`) queries the pivot (initially
the source) for its children, probes each, and hands the measured
distances to :func:`vdm_join_decision`, which asks the join kernel
(:mod:`repro.core.join`) to split the children by directionality case
and answer descend / insert / attach; the driver carries the answer out
as messages.

Reconnection (Section 3.3) restarts the join at the grandparent.
Refinement (Section 3.4) periodically re-runs the join from the source
and switches parents when a different one is found; ``refine_period_s``
arms it (the paper's VDM-R uses 3 min in simulation, 5 min on
PlanetLab).  :func:`vdm_backup_ok` is the direction-consistency filter
precomputed failover applies to backup parents.

The config also exposes the design decisions Section 3.2.2 discusses as
ablation knobs (descend-vs-insert priority, closest-vs-random directional
child, grandparent-vs-source reconnection) so the benchmark suite can
quantify each choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.join import Decision, Descend, split_cases, vdm_decide
from repro.util.validation import (
    boolean, check_fields, checked, count, non_negative, one_of, optional, positive,
)

__all__ = ["VDMConfig", "vdm_join_decision", "vdm_backup_ok"]


@dataclass(frozen=True)
class VDMConfig:
    """Tunables of the VDM join logic.

    ``tie_tolerance`` — relative tolerance for the longest-side test
    (Section 3.1.2); triangles degenerate within it yield Case I.

    ``max_adopt`` — upper bound on adoptions per insert; ``None``
    means "as many as the newcomer's degree allows" (the paper's rule).

    ``refine_period_s`` — when set, sessions arm periodic refinement with
    this period (the paper's VDM-R: 3 min simulated, 5 min on PlanetLab).

    Ablation knobs (defaults are the paper's choices):

    * ``case_priority`` — ``"case3"`` descends through a child that is on
      the way even when the newcomer could also insert before another
      (Scenario III's deliberate choice); ``"case2"`` inserts instead
      whenever possible.
    * ``case3_selection`` — ``"closest"`` follows the nearest child that
      is on the way; ``"random"`` picks uniformly (quantifies how much the
      closest-of rule matters).
    * ``reconnect_at`` — ``"grandparent"`` (Section 3.3) or ``"source"``.
    """

    tie_tolerance: float = checked(non_negative, 1e-9)
    max_adopt: int | None = checked(optional(count()), None)
    refine_period_s: float | None = checked(optional(positive), None)
    case_priority: str = checked(one_of("case3", "case2"), "case3")
    case3_selection: str = checked(one_of("closest", "random"), "closest")
    reconnect_at: str = checked(one_of("grandparent", "source"), "grandparent")
    #: foster-child quick start (HMTP's concept, Section 2.4.7): attach at
    #: the source immediately, then switch to the ideal parent.  Off by
    #: default — the paper's VDM relies on its fast join instead.
    foster_child: bool = checked(boolean, False)

    __post_init__ = check_fields


def vdm_join_decision(row, agent, pivot, dist_to_pivot, info, probes) -> Decision:
    """One iteration of Fig. 3.6 for ``agent`` under ``row.config``."""
    config = row.config
    case2, case3 = split_cases(
        dist_to_pivot,
        [(child, d_new, ci.distance) for child, (d_new, ci) in sorted(probes.items())],
        config.tie_tolerance,
    )
    budget = agent.free_degree
    if config.max_adopt is not None:
        budget = min(budget, config.max_adopt)
    decision = vdm_decide(
        pivot,
        info.free_degree,
        case2,
        case3,
        budget,
        [(d_new, child, ci.free_degree) for child, (d_new, ci) in probes.items()],
        config.case_priority == "case2",
    )
    if case3 and config.case3_selection == "random" and isinstance(decision, Descend):
        # The ablation knob: a uniform pick among the children on the way
        # (listed in ascending id order) instead of the kernel's closest.
        decision = Descend(case3[int(agent.rng.integers(len(case3)))][1])
    return decision


def vdm_backup_ok(row, agent, candidate: int, candidate_children: set[int]) -> bool:
    """Direction-consistency filter for precomputed backup parents.

    Attaching under ``candidate`` is consistent with VDM's virtual
    directions only if no existing child of the candidate lies strictly
    *on the way* from the candidate to this node (the kernel's third
    case): such a child defines a direction this node belongs under, and
    a direct attach would shadow it.  Distances use the protocol metric
    directly (not ``virtual_distance``) so the check never consumes the
    shared measurement-noise RNG stream.
    """
    env = agent.env
    metric = env.metric
    me = agent.node_id
    _case2, case3 = split_cases(
        metric(me, candidate),
        [
            (child, metric(me, child), metric(candidate, child))
            for child in candidate_children
            if child != me and env.is_alive(child)
        ],
        row.config.tie_tolerance,
    )
    return not case3
