"""The join loop: the rules around the Fig. 3.6 decision, written once.

The paper's join is one iterative procedure: query a pivot for its
children, probe them, decide (:mod:`repro.core.join`), connect, and let
the parent accept or reject.  Two drivers run it: the message-level
agents (:class:`repro.protocols.base.JoinProcess`, over
``ProtocolRuntime.request``) and the batched emulator
(:mod:`repro.sim.batched`, over flat heap entries).  Each keeps only its
transport, its seq allocation, its probe round and its commit messages;
the rules they share live here:

* the budgets (:data:`MAX_ITERATIONS`, :data:`MAX_RESTARTS`) and where
  the loop goes next — :meth:`JoinLoop.ask`, :meth:`JoinLoop.restart`
  and :meth:`JoinLoop.redirect` answer the pivot to query, or ``None``
  once a budget is spent (the driver then files :meth:`JoinLoop.finish`
  as a failure);
* which of a pivot's children the joiner may probe or be redirected to
  (never itself, never its own descendant);
* the refine/switch keep-parent rule and the connect guard;
* the parent's side: :func:`reconcile` and :func:`admit`.

Everything here is plain Python over the driver's own state: no I/O, no
scheduling and no RNG draw (a distance a rule needs comes from the
driver's callable, which owns any measurement noise).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.join import closest_free_else_closest

__all__ = [
    "MAX_ITERATIONS",
    "MAX_RESTARTS",
    "JoinLoop",
    "JoinRecord",
    "admit",
    "reconcile",
]

#: pivots one attempt may query before it gives up
MAX_ITERATIONS = 64
#: restarts at the source (after a timeout, a dead end or a loop) one
#: attempt may take before it gives up
MAX_RESTARTS = 3

_KINDS = ("join", "reconnect", "refine", "switch")

# ``tuple.__new__(Cls, values)`` builds a NamedTuple without the frame of
# its generated ``__new__``: one record is filed per attempt.
_new_tuple = tuple.__new__


class JoinRecord(NamedTuple):
    """One completed (or failed) join/reconnect/refine attempt.

    NamedTuple rather than a dataclass: one is built per join, reconnect,
    and refinement attempt, which adds up under churn.
    """

    node: int
    kind: str  # "join" | "reconnect" | "refine" | "switch"
    started_at: float
    completed_at: float
    succeeded: bool
    iterations: int

    @property
    def duration(self) -> float:
        return self.completed_at - self.started_at


class JoinLoop:
    """One join/reconnect/refine/switch attempt of ``node``.

    ``agent`` is the driver's per-node state; the loop reads and clears
    its ``active_process`` slot and nothing else.  ``tree`` arguments are
    the session's :class:`~repro.protocols.tree.TreeRegistry`, read only.
    """

    __slots__ = (
        "node",
        "agent",
        "source",
        "kind",
        "started_at",
        "iterations",
        "restarts",
        "cancelled",
        "finished",
    )

    def __init__(
        self, node: int, agent, source: int, kind: str, started_at: float
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown join kind {kind!r}")
        self.node = node
        self.agent = agent
        self.source = source
        self.kind = kind
        self.started_at = started_at
        self.iterations = 0
        self.restarts = 0
        self.cancelled = False
        self.finished = False

    def cancel(self) -> None:
        """Make every later reply or timeout of this attempt inert."""
        self.cancelled = True

    def finish(self, succeeded: bool, now: float) -> JoinRecord:
        """Close the attempt at ``now``; the driver files the record."""
        self.finished = True
        agent = self.agent
        if agent.active_process is self:
            agent.active_process = None
        return _new_tuple(
            JoinRecord,
            (self.node, self.kind, self.started_at, now, succeeded, self.iterations),
        )

    # -- where the loop goes next ------------------------------------------

    def ask(self, pivot: int) -> int | None:
        """Start an iteration at ``pivot``: the node to query, or ``None``
        once the iteration budget is spent.  A pivot that is the joiner
        itself restarts at the source."""
        self.iterations += 1
        if self.iterations > MAX_ITERATIONS:
            return None
        if pivot == self.node:
            return self.restart()
        return pivot

    def restart(self) -> int | None:
        """Begin again at the source: the node to query, or ``None`` once
        the restart budget is spent."""
        self.restarts += 1
        if self.restarts > MAX_RESTARTS:
            return None
        return self.ask(self.source)

    def candidates(self, children, tree) -> list:
        """The entries of a pivot's ``children`` (each led by a child id)
        the joiner may probe: neither itself nor one of its descendants."""
        me = self.node
        if tree.children.get(me):
            is_descendant = tree.is_descendant
            return [c for c in children if c[0] != me and not is_descendant(c[0], me)]
        # No committed children: nobody lies below us, skip the walks.
        return [c for c in children if c[0] != me]

    def redirect(self, children, tree) -> int | None:
        """After a rejection: the rejecting parent's closest child with a
        free slot, else its closest child, else a restart at the source.
        ``children`` are its ``(child, distance, free_degree)`` entries."""
        nxt = closest_free_else_closest(
            [(dist, child, free) for child, dist, free in self.candidates(children, tree)]
        )
        if nxt is None:
            return self.restart()
        return self.ask(nxt[1])

    # -- connecting --------------------------------------------------------

    def keeps_parent(self, target: int, parent, strictly_closer: bool, distance) -> bool:
        """Whether a refine or switch that ended at ``target`` keeps
        ``parent`` instead (the attempt then succeeds with no message):
        ``target`` is the parent already, or the row switches only to a
        strictly closer parent (HMTP's and BTP's rule; VDM takes any
        parent the rejoin found) and ``target`` is not.  ``distance(a, b)``
        is the driver's measurement, asked target first."""
        if self.kind != "refine" and self.kind != "switch":
            return False
        if target == parent:
            return True
        if strictly_closer and parent is not None:
            me = self.node
            return not distance(me, target) < distance(me, parent)
        return False

    def may_connect(self, target: int, tree) -> bool:
        """Whether a connection request to ``target`` may go out: never to
        the joiner itself or below it (the driver restarts instead)."""
        me = self.node
        return target != me and not tree.is_descendant(target, me)


# -- the parent's side ------------------------------------------------------


def reconcile(children: dict, registry, distance) -> bool:
    """Re-sync a parent's local ``children`` table (child -> distance)
    with ``registry``, its child set in the tree; ``distance(child)``
    measures a child the table lacks, in ascending id order.  Returns
    whether the table changed.

    Under message faults the reply that tells a new parent about its
    adopted children (or a departing child's ``ChildRemove``) can be lost
    after the registry edge was already committed, leaving the local table
    stale.  Real deployments repair such drift with periodic soft-state
    refresh; here it runs at acceptance points, so a parent never grants
    capacity it does not have.
    """
    if children.keys() == registry:
        return False
    for child in [child for child in children if child not in registry]:
        del children[child]
    for child in sorted(registry - children.keys()):
        children[child] = distance(child)
    return True


def admit(
    tree, node: int, free: int, children, sender: int, adopt, alive, sender_limit
):
    """The parent's acceptance rule for ``sender``'s connection request.

    ``node`` is the parent, with ``free`` slots and its ``children``
    table already reconciled with the tree; ``adopt`` is ``None`` for an
    attach, else the children an insert asks to take over.  Returns
    ``None`` to reject, else the tuple of children that move below the
    sender (``()`` for an attach, or for an insert whose children all
    vanished but which finds a free slot).

    A dangling parent refuses, and so does one that would take its own
    ancestor.  An insert moves only adopted children that are still this
    parent's, alive, and not the sender; after :func:`reconcile` the
    table equals the tree's child set, and the tree keeps its parent and
    child pointers symmetric, so every one of them still has ``node`` as
    its tree parent.  The move is clamped to the sender's own room at
    commit time (``sender_limit`` less its children in the tree; no clamp
    when it is ``None``): the adopt list was sized from the sender's view
    of its capacity, which a late duplicate ``ChildRemove`` can stale or
    an attach accepted while the insert was in flight can race.
    """
    if node != tree.source and not tree.is_reachable(node):
        return None
    if tree.is_descendant(node, sender):
        return None
    if adopt is None:
        return () if free > 0 else None
    moved = [c for c in adopt if c in children and c in alive and c != sender]
    if sender_limit is not None:
        room = sender_limit - len(tree.children.get(sender, ()))
        if len(moved) > room:
            moved = moved[: max(room, 0)]
    if not moved and free <= 0:
        # The directional children vanished and no slot is free, so
        # neither the insert nor an attach fallback can proceed.
        return None
    return tuple(moved)
