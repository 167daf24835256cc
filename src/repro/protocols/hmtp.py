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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.join import Attach, Decision, hmtp_decide
from repro.protocols.base import OverlayAgent, ProtocolRuntime
from repro.protocols.messages import ChildInfo, InfoResponse
from repro.util.rngtools import RngLike

__all__ = ["HMTPAgent", "HMTPConfig"]


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

    refine_period_s: float = 30.0
    foster_child: bool = False

    def __post_init__(self) -> None:
        if self.refine_period_s <= 0:
            raise ValueError(
                f"refine_period_s must be > 0, got {self.refine_period_s}"
            )


class HMTPAgent(OverlayAgent):
    """Host Multicast Tree Protocol peer."""

    protocol_name = "hmtp"

    def __init__(
        self,
        node_id: int,
        env: ProtocolRuntime,
        *,
        degree_limit: int = 4,
        config: HMTPConfig | None = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__(node_id, env, degree_limit=degree_limit, rng=rng)
        self.config = config or HMTPConfig()

    def auto_refine_period(self) -> float | None:
        """HMTP always refines; it needs it to converge."""
        return self.config.refine_period_s

    def foster_join_enabled(self) -> bool:
        return self.config.foster_child

    # -- join ------------------------------------------------------------------

    def join_decision(
        self,
        pivot: int,
        dist_to_pivot: float,
        pivot_info: InfoResponse,
        probes: dict[int, tuple[float, ChildInfo]],
    ) -> Decision:
        refining = (
            self.active_process is not None and self.active_process.kind == "refine"
        )
        if refining:
            # One-level refinement check (Section 3.4/3.5 of the
            # dissertation: a node "selects one node on its root path and
            # looks for if any closer peer than its parent connected in
            # meantime") — probe the chosen root-path node and its
            # children, switch to the closest candidate with a free slot
            # if it beats the current parent (checked by
            # :meth:`accept_refine_target`), otherwise stay put.
            candidates: list[tuple[float, int]] = []
            if pivot_info.free_degree > 0:
                candidates.append((dist_to_pivot, pivot))
            candidates.extend(
                (dist, child)
                for child, (dist, ci) in probes.items()
                if ci.free_degree > 0
            )
            if not candidates:
                return Attach(self.parent if self.parent is not None else pivot)
            _, best = min(candidates)
            return Attach(best)
        return hmtp_decide(
            pivot,
            pivot_info.free_degree,
            dist_to_pivot,
            [(dist, child, ci.free_degree) for child, (dist, ci) in probes.items()],
            lambda child: probes[child][1].distance,
        )

    # -- refinement ---------------------------------------------------------------

    def refinement_start_node(self) -> int:
        """A uniformly random member of this node's root path."""
        try:
            path = self.env.tree.path_to_source(self.node_id)
        except ValueError:
            return self.env.source
        # Exclude ourselves (index 0); the path still includes our parent
        # and root.  Indexing instead of slicing skips a tuple copy per
        # refinement tick.
        n = len(path) - 1
        if n <= 0:
            return self.env.source
        return int(path[1 + int(self.rng.integers(n))])

    def accept_refine_target(self, target: int) -> bool:
        """Switch only to a strictly closer parent (HMTP's rule)."""
        if self.parent is None:
            return True
        return self.env.virtual_distance(
            self.node_id, target
        ) < self.env.virtual_distance(self.node_id, self.parent)

    # -- recovery ----------------------------------------------------------------

    def _reconnect(self) -> None:
        """HMTP orphans rejoin from the root."""
        self.start_join(kind="reconnect", at=self.env.source)
