"""Precomputed backup-parent failover.

The reactive recovery the paper ships (Section 3.3) pays a full rejoin
round-trip per orphan: probe the grandparent, walk the tree, commit.
Under correlated failures — a transit domain going dark orphans many
nodes at once — those round-trips stack into seconds of outage.  This
module ports the precomputed-backup idea from SDN resilient multicast to
overlay form: every attached node keeps one *precomputed backup parent*,
maintained incrementally off the :class:`~repro.protocols.tree.TreeRegistry`
listener stream, and switches to it locally the instant parent death is
detected — no probes, no round-trips.

The backup rule
---------------
A node's backup is its deepest strict ancestor **above its current
parent** (grandparent first, then great-grandparent, … up to the source)
that is alive, has degree capacity, and passes the protocol's
:meth:`~repro.protocols.base.OverlayAgent.backup_parent_ok` veto — all
evaluated under the failure hypothesis the backup exists for: the chain
between the candidate and the node is assumed dead, so the candidate's
child on that chain does not count against capacity or direction.  Ancestors are the only safe candidate set: an ancestor can never
be a descendant of the switching node, so the local attach cannot create
a cycle no matter how stale the precomputed choice is.  VDM's veto adds
direction-consistency — the backup's child set must not contain a node
strictly *on the way* to the owner (a child the join kernel would
descend through), because attaching there
would violate the virtual-direction structure the tree's efficiency
rests on.

Every precondition is re-validated at switch time against ground truth
(aliveness, reachability, capacity, non-descendance, the protocol veto,
and — when a partition fault is up — same-side membership); a backup
that fails revalidation falls back to the protocol's reactive
reconnection, so precomputed failover is strictly an optimization, never
a correctness risk.  The manager only exists when the session runs with
``failover="precomputed"``; the reactive oracle path is byte-untouched.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from repro.protocols.base import JoinRecord
from repro.protocols.messages import FailoverAttach, GrandparentChange

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.base import ProtocolRuntime

__all__ = ["FailoverManager"]

#: the one switch notice every failover sends (it carries no fields)
_FAILOVER_ATTACH = FailoverAttach()


class FailoverManager:
    """Maintains one precomputed backup parent per attached node.

    Construction installs the manager as ``env.failover`` (the hook
    :meth:`OverlayAgent.on_parent_lost` consults) and subscribes to the
    registry listener stream, after the fault injector, so backup
    refreshes observe every mutation the injector commits.
    """

    def __init__(self, env: "ProtocolRuntime") -> None:
        self.env = env
        #: node -> currently precomputed backup parent (``None`` = no
        #: valid candidate existed at the last refresh)
        self.backups: dict[int, int | None] = {}
        #: backup -> the nodes holding it: the inverse of :attr:`backups`,
        #: so a mutation at one node finds its holders without a scan
        self._holders: dict[int, set[int]] = {}
        #: ``switch`` (local failover committed) / ``fallback`` (backup
        #: invalid at switch time, reactive path ran instead)
        self.counts: Counter[str] = Counter()
        env.failover = self
        env.tree.add_listener(self._on_tree_event)

    # -- incremental maintenance ----------------------------------------------

    def _on_tree_event(
        self, kind: str, node: int, parent: int | None, time: float
    ) -> None:
        tree = self.env.tree
        if kind in ("attach", "reparent"):
            # The whole moved subtree sees a new ancestor chain.
            for member in tree.subtree(node):
                self._refresh(member)
            # The new parent gained a child: anyone holding it as backup
            # may have lost the capacity slot or the direction clearance
            # they were counting on.  (Removals only relax constraints,
            # so depart/orphan need no mirror of this.)
            for member in sorted(self._holders.get(parent, ())):
                self._refresh(member)
        elif kind == "depart":
            held = self.backups.pop(node, None)
            if held is not None:
                self._holders[held].discard(node)
            # Everyone who had the departed node as backup must re-derive.
            for member in sorted(self._holders.get(node, ())):
                self._refresh(member)
        # "orphan": keep the stored backup — it is exactly the value the
        # imminent try_switch needs; refreshing now would wipe it (an
        # orphan has no ancestor chain to derive from).

    def _refresh(self, node: int) -> None:
        """Re-derive ``node``'s backup from its current ancestor chain.

        Each candidate is judged under the failure hypothesis it exists
        for: the ancestor chain strictly between the candidate and the
        node is dead.  Concretely the candidate's child on that chain
        (``path[i - 1]``) is excluded from its child set before the
        capacity and direction checks — a full grandparent gains a slot
        the instant the parent dies, and the parent is trivially "on the
        way" while alive.  Switch-time revalidation re-runs the same
        checks against unexcluded ground truth, which by then reflects
        whatever actually died.
        """
        tree = self.env.tree
        if node == tree.source:
            return
        if not tree.is_attached(node) or not tree.is_reachable(node):
            return
        path = tree.path_to_source(node)  # [node, parent, gp, ..., source]
        agent = self.env.agents.get(node)
        if agent is None:
            return
        for i in range(2, len(path)):
            if self._candidate_ok(agent, path[i], exclude=path[i - 1]):
                self._store(node, path[i])
                return
        self._store(node, None)

    def _store(self, node: int, backup: int | None) -> None:
        """Record ``node``'s backup in both directions."""
        held = self.backups.get(node)
        if held is not None:
            self._holders[held].discard(node)
        if backup is not None:
            self._holders.setdefault(backup, set()).add(node)
        self.backups[node] = backup

    def _candidate_ok(
        self, agent, candidate: int, *, exclude: int | None = None
    ) -> bool:
        env = self.env
        tree = env.tree
        if not env.is_alive(candidate):
            return False
        candidate_agent = env.agents.get(candidate)
        if candidate_agent is None:
            return False
        children = set(tree.children.get(candidate, ()))
        children.discard(exclude)
        if candidate_agent.degree_limit - len(children) <= 0:
            return False
        return agent.backup_parent_ok(candidate, children)

    # -- switching ------------------------------------------------------------

    def try_switch(self, node: int) -> bool:
        """Attempt the local backup switch for orphaned ``node``.

        Returns ``True`` when the switch committed (the caller must not
        run reactive reconnection); ``False`` sends the caller down the
        reactive path.  All preconditions are re-validated against ground
        truth at this instant — the precomputed value is a hint, never
        trusted stale.
        """
        env = self.env
        tree = env.tree
        agent = env.agents.get(node)
        backup = self.backups.get(node)
        ok = (
            agent is not None
            and env.is_alive(node)
            and tree.is_orphan(node)
            and backup is not None
            and env.is_alive(backup)
            and tree.is_present(backup)
            and tree.is_reachable(backup)
            and not tree.is_descendant(backup, node)
            and self._candidate_ok(agent, backup)
            and not (
                env.faults is not None and env.faults.is_partitioned(node, backup)
            )
        )
        if not ok:
            self.counts["fallback"] += 1
            return False
        now = env.sim.now
        tree.attach(node, backup, now)
        agent.parent = backup
        agent.grandparent = tree.parent.get(backup)
        env.tell(node, backup, _FAILOVER_ATTACH)
        for child in sorted(agent.children):
            env.tell(node, child, GrandparentChange(new_grandparent=backup))
        env.record_join(
            JoinRecord(
                node=node,
                kind="failover",
                started_at=now,
                completed_at=now,
                succeeded=True,
                iterations=1,
            )
        )
        self.counts["switch"] += 1
        return True
