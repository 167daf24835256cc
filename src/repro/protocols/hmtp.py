"""Host Multicast Tree Protocol (HMTP) — the paper's primary comparator.

HMTP (Zhang, Jamin, Zhang, INFOCOM 2002) builds its tree by *closeness*:

* **Join** — iterative descent from the root: at each node, probe its
  children; if the closest child is closer to the newcomer than the
  current node is, descend into that child; otherwise attach here (the
  newcomer found its local minimum).  A full node redirects to its
  children ("H flags F and goes back ... looks for next available
  child").
* **Refinement** — periodically each member picks a *random node on its
  root path* and re-runs the join from there, switching parents only when
  the discovered parent is strictly closer than the current one.  Unlike
  VDM, HMTP *needs* this to converge: its greedy join cannot insert a new
  node between an existing parent-child pair, so improvements arrive only
  through periodic probing (Section 3.5 of the dissertation).
* **Recovery** — orphans rejoin from the root.  (Real HMTP caches its
  root path and retries members of it; when that state is stale — the
  common case under churn — it degenerates to a root rejoin, which is the
  behaviour modelled here and the one the dissertation's loss comparison
  reflects.)

The root-path lookup for refinement uses the ground-truth registry, the
simulation-local stand-in for the root-path state every HMTP member keeps.
The protocol's row of the table (:mod:`repro.protocols.table`) pairs
:func:`hmtp_join_decision` and :func:`root_path_member` with the shared
"strictly closer" switch rule and source reconnection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.join import Attach, Decision, hmtp_decide
from repro.util.validation import boolean, check_fields, checked, positive

__all__ = ["HMTPConfig", "hmtp_join_decision", "root_path_member"]


@dataclass(frozen=True)
class HMTPConfig:
    """HMTP tunables.

    ``refine_period_s`` — the periodic root-path refinement interval; the
    dissertation's PlanetLab runs used 30 s.  Refinement is armed by the
    session (like VDM-R), but HMTP is normally run *with* it because the
    protocol depends on it to converge.

    ``foster_child`` — HMTP's quick-start concept (Section 2.4.7): join
    the root immediately for instant stream start, then switch to the
    ideal parent once the real join finds it.
    """

    refine_period_s: float = checked(positive, 30.0)
    foster_child: bool = checked(boolean, False)

    __post_init__ = check_fields


def hmtp_join_decision(row, agent, pivot, dist_to_pivot, info, probes) -> Decision:
    """Greedy closest-child descent; a one-level check while refining."""
    process = agent.active_process
    if process is not None and process.kind == "refine":
        # One-level refinement check (Section 3.4/3.5 of the dissertation:
        # a node "selects one node on its root path and looks for if any
        # closer peer than its parent connected in meantime") — probe the
        # chosen root-path node and its children, switch to the closest
        # candidate with a free slot if it is strictly closer than the
        # current parent (the loop checks that), otherwise stay put.
        candidates: list[tuple[float, int]] = []
        if info.free_degree > 0:
            candidates.append((dist_to_pivot, pivot))
        candidates.extend(
            (dist, child) for child, (dist, ci) in probes.items() if ci.free_degree > 0
        )
        if not candidates:
            return Attach(agent.parent if agent.parent is not None else pivot)
        _, best = min(candidates)
        return Attach(best)
    return hmtp_decide(
        pivot,
        info.free_degree,
        dist_to_pivot,
        [(dist, child, ci.free_degree) for child, (dist, ci) in probes.items()],
        lambda child: probes[child][1].distance,
    )


def root_path_member(agent) -> int:
    """Where HMTP refines: a uniformly random member of the root path.

    One of our ``depth`` ancestors (the source included): a draw of
    ``rng.integers(depth)`` says how many steps past the first to walk up
    ``tree.parent``, so no root-path list is built.  The source itself and
    an orphaned or absent node refine from the source, without a draw.
    """
    env = agent.env
    node = agent.node_id
    try:
        depth = env.tree.depth(node)
    except ValueError:
        return env.source
    if depth <= 0:
        return env.source
    parent = env.tree.parent
    for _ in range(1 + int(agent.rng.integers(depth))):
        node = parent[node]
    return int(node)
