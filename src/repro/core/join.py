"""The join kernel: one iteration of the Fig. 3.6 decision, written once.

Every driver in the repo — the message-level agents
(:mod:`repro.core.vdm`, :mod:`repro.protocols.hmtp`), the batched
emulator (:mod:`repro.sim.batched`) and the static scale walk
(:mod:`repro.harness.scale`) — gathers the distances of one join
iteration in its own way, calls into this module, and applies the
returned :class:`Descend` / :class:`Attach` / :class:`Insert` to its own
tree state.  The kernel is pure scalar Python over short sequences (a
pivot's child set is bounded by the degree limit) and imports nothing
from the rest of the package.

Conventions shared by every function here:

* a *probed child* is ``(child, d_new, d_pivot)`` — its id, the
  newcomer's distance to it and the pivot's distance to it;
* a *probe* is ``(d_new, child, free_degree)``; case lists hold
  ``(d_new, child)``.  Distance comes first so that plain tuple order
  *is* the paper's "closest" rule with the lowest id breaking ties, and
  no selection depends on the order the probes arrived in.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Attach",
    "Decision",
    "Descend",
    "Insert",
    "case1_tail",
    "closest_free_else_closest",
    "hmtp_decide",
    "split_cases",
    "vdm_decide",
]


@dataclass(frozen=True)
class Descend:
    """Continue the join iteration from ``child``."""

    child: int


@dataclass(frozen=True)
class Attach:
    """Terminal decision: request to become a child of ``target``."""

    target: int


@dataclass(frozen=True)
class Insert:
    """Terminal decision (VDM Case II): slot in between ``target`` and
    the children in ``adopt``."""

    target: int
    adopt: tuple[int, ...]


Decision = Descend | Attach | Insert


def split_cases(dist_to_pivot, children, tie_tolerance):
    """Split probed children into their Case II and Case III lists.

    The longest-side test of :func:`repro.core.cases.classify_case`
    (same IEEE-754 operations in the same order, including the relative
    tie slack that collapses degenerate triangles to Case I) without its
    input validation: callers pass distances their metric already vetted
    and a ``tie_tolerance >= 0``.  Case I children appear in neither
    list.

    >>> split_cases(10.0, [(1, 15.0, 25.0), (2, 6.0, 4.0), (3, 18.0, 8.0)], 1e-9)
    ([(15.0, 1)], [(6.0, 2)])
    """
    case2 = []
    case3 = []
    for child, d_new, d_pivot in children:
        # Compare-selects instead of max(): this runs per probed child on
        # the emulator's hot path.
        longest = dist_to_pivot
        if d_pivot > longest:
            longest = d_pivot
        if d_new > longest:
            longest = d_new
        cut = longest - tie_tolerance * (longest if longest >= 1.0 else 1.0)
        if d_new >= cut:
            continue  # the pivot sits in the middle, or a tie: Case I
        if d_pivot >= cut:
            if dist_to_pivot < cut:
                case2.append((d_new, child))  # newcomer in the middle
        else:
            case3.append((d_new, child))  # child in the middle
    return case2, case3


def closest_free_else_closest(probes):
    """Where a full node sends a newcomer next: its closest child with a
    free slot, else its closest child, else ``None`` (no children).

    Returns the winning ``(distance, child, free_degree)`` triple.  The
    distances are whoever ranks the children's: the newcomer's own probes
    in :func:`case1_tail`, the rejecting parent's in a reject redirect
    (BTP's rule, and every protocol's answer to a lost degree race).

    >>> closest_free_else_closest([(9.0, 4, 0), (12.0, 2, 1), (12.0, 1, 3)])
    (12.0, 1, 3)
    >>> closest_free_else_closest([(9.0, 4, 0), (7.0, 6, 0)])
    (7.0, 6, 0)
    >>> closest_free_else_closest([]) is None
    True
    """
    pool = [probe for probe in probes if probe[2] > 0] or probes
    return min(pool) if pool else None


def case1_tail(pivot, pivot_free, probes):
    """No directional child: attach to the pivot if it has a free slot,
    else to its closest free child, else descend through its closest
    child and re-evaluate there."""
    if pivot_free > 0:
        return Attach(pivot)
    best = closest_free_else_closest(probes)
    if best is None:
        # A childless pivot always has free degree under sane configs;
        # attach and let the rejection redirect recover.
        return Attach(pivot)
    _distance, child, child_free = best
    return Attach(child) if child_free > 0 else Descend(child)


def vdm_decide(pivot, pivot_free, case2, case3, adopt_budget, probes, case2_first):
    """One VDM join iteration (Fig. 3.6).

    Case III wins over a coexisting Case II (Scenario III's deliberate
    simplification) unless ``case2_first``; an insert adopts the closest
    Case II children, at most ``adopt_budget`` of them, and falls
    through when the budget is zero.

    >>> vdm_decide(0, 1, [(15.0, 1)], [(6.0, 2)], 4, [], False)
    Descend(child=2)
    >>> vdm_decide(0, 1, [(15.0, 1), (12.0, 5)], [], 1, [], False)
    Insert(target=0, adopt=(5,))
    """
    if case2 and adopt_budget > 0 and (case2_first or not case3):
        return Insert(
            pivot, tuple(child for _d, child in sorted(case2)[:adopt_budget])
        )
    if case3:
        return Descend(min(case3)[1])
    return case1_tail(pivot, pivot_free, probes)


def hmtp_decide(pivot, pivot_free, dist_to_pivot, probes, pivot_dist):
    """One HMTP join iteration: greedy descent toward the closest child.

    ``pivot_dist(child)`` is the pivot's distance to ``child``; it is
    consulted only for the U-turn check (dissertation Scenario II,
    Fig. 3.22): when the newcomer appears to lie *between* the pivot and
    its closest child, descending would hang it below the child and
    double the path back, so HMTP attaches to the pivot instead and
    relies on the child's later refinement to re-hang it.
    """
    if probes:
        closest_dist, closest, _free = min(probes)
        if closest_dist < dist_to_pivot:
            if pivot_free > 0 and pivot_dist(closest) > dist_to_pivot:
                return Attach(pivot)
            return Descend(closest)
    return case1_tail(pivot, pivot_free, probes)
