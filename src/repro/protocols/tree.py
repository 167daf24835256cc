"""The ground-truth overlay tree, updated at the instant a parent commits
a connection; metrics, the accountant and both session engines observe
it, while agents keep their own (slightly lagged) views, as real peers
would.  Its :meth:`~TreeRegistry.is_descendant` is the joining peer's
"not inside my own subtree" guard: the simulation-local stand-in, at no
message cost, for the root path every deployed node keeps.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["TreeRegistry"]


class TreeRegistry:
    """Authoritative view of the overlay tree.

    Nodes are in one of three states: *attached* (has a parent, or is the
    source), *orphan* (present with a dangling subtree, waiting to
    reconnect), or *absent*.  Mutations fire listener callbacks with the
    simulation timestamp, which drives the data-plane accountant.

    Listener signature: ``listener(kind, node, parent, time)`` where kind is
    one of ``"attach"``, ``"orphan"``, ``"depart"``, ``"reparent"``.
    Mutation times never decrease: a mutation refuses a NaN time, or one
    earlier than the last mutation's, before any pointer moves.

    Reachability and depth are maintained *incrementally*: every mutation
    updates only the affected subtree with one downward pass, so
    :meth:`is_reachable` and :meth:`depth` are O(1) lookups and
    :meth:`attached_nodes` is O(n) with no parent-chain walks.  The
    chain-walking statements of the same answers live in
    ``tests/oracles.py``; the equivalence tests assert the maintained
    state agrees with them after every mutation.

    The incremental state is valid only for trees mutated through the
    public mutation methods.  Code that hand-corrupts ``parent`` /
    ``children`` (the invariant tests do) must validate with the
    full-sweep oracle, not with these queries.
    """

    def __init__(self, source: int) -> None:
        self.source = source
        self.parent: dict[int, int | None] = {source: None}
        self.children: dict[int, set[int]] = {source: set()}
        self._listeners: list[Callable[[str, int, int | None, float], None]] = []
        #: nodes with an unbroken parent chain to the source (maintained).
        self._reachable: set[int] = {source}
        #: overlay hops from the source, for reachable nodes only (maintained).
        self._depth: dict[int, int] = {source: 0}
        #: time of the last mutation; none may be earlier.
        self._clock = -math.inf

    # -- listeners ----------------------------------------------------------

    def add_listener(
        self, listener: Callable[[str, int, int | None, float], None]
    ) -> None:
        self._listeners.append(listener)

    def _emit(self, kind: str, node: int, parent: int | None, time: float) -> None:
        for listener in self._listeners:
            listener(kind, node, parent, time)

    # -- queries -------------------------------------------------------------

    def is_present(self, node: int) -> bool:
        return node in self.parent

    def is_attached(self, node: int) -> bool:
        return node == self.source or self.parent.get(node) is not None

    def is_orphan(self, node: int) -> bool:
        return node != self.source and node in self.parent and self.parent[node] is None

    def members(self) -> list[int]:
        """All present nodes (attached or orphan), source included."""
        return list(self.parent)

    def attached_nodes(self) -> list[int]:
        """Nodes with an unbroken parent chain to the source."""
        reachable = self._reachable
        return [n for n in self.parent if n in reachable]

    def edges(self) -> list[tuple[int, int]]:
        """All (parent, child) edges currently committed."""
        return [
            (p, c) for c, p in self.parent.items() if p is not None
        ]

    def is_reachable(self, node: int) -> bool:
        """Whether ``node`` has an unbroken parent chain to the source."""
        return node in self._reachable

    def path_to_source(self, node: int) -> list[int]:
        """Node ids from ``node`` up to the source, inclusive.

        Raises ``ValueError`` if the chain is broken (orphaned subtree).
        A step counter bounds the walk instead of a per-call visited set —
        committed trees are acyclic, so the set only ever paid for the
        pathological case, which the counter still detects.
        """
        path = [node]
        limit = len(self.parent)
        cur = node
        while cur != self.source:
            up = self.parent.get(cur)
            if up is None:
                raise ValueError(f"node {node} has no path to source")
            path.append(up)
            if len(path) > limit:
                raise ValueError(f"parent cycle detected at {up}")
            cur = up
        return path

    def depth(self, node: int) -> int:
        """Overlay hops from the source (source depth is 0)."""
        d = self._depth.get(node)
        if d is None:
            raise ValueError(f"node {node} has no path to source")
        return d

    def is_descendant(self, node: int, ancestor: int) -> bool:
        """Whether ``node`` lies strictly below ``ancestor``."""
        if node == ancestor:
            return False
        dn = self._depth.get(node)
        da = self._depth.get(ancestor)
        if dn is not None:
            # A reachable node's whole ancestry is reachable: the only
            # candidate is its unique ancestor at ancestor's depth.
            if da is None or dn <= da:
                return False
            cur = node
            for _ in range(dn - da):
                cur = self.parent[cur]
            return cur == ancestor
        if da is not None or ancestor not in self.parent:
            # An unreachable node's ancestry is unreachable, and an absent
            # node is nobody's parent.
            return False
        # An orphaned subtree has no depths to compare: walk the chain.
        cur = self.parent.get(node)
        steps = 0
        limit = len(self.parent)
        while cur is not None and steps <= limit:
            if cur == ancestor:
                return True
            cur = self.parent.get(cur)
            steps += 1
        return False

    def subtree(self, node: int) -> list[int]:
        """``node`` and everything below it (committed edges only).

        Preorder: a node always precedes its descendants, so consumers can
        derive child state from parent state in one forward scan (the
        delivery accountant's path-success products rely on this).
        Siblings appear in ascending id order, making traversal-dependent
        float accumulations reproducible across interpreter builds.
        """
        out = [node]
        stack = [node]
        while stack:
            cur = stack.pop()
            kids = self.children.get(cur)
            if kids:
                ordered = sorted(kids)
                out.extend(ordered)
                stack.extend(reversed(ordered))
        return out

    # -- incremental maintenance ----------------------------------------------

    def _refresh_subtree(self, root: int) -> None:
        """Re-derive reachability and depth for ``root``'s subtree.

        One downward pass, O(subtree size) — the only state a mutation at
        ``root`` can change.  Everything above and beside ``root`` keeps
        its maintained values.  The whole subtree shares its root's
        reachability, so the branch is taken once.
        """
        up = self.parent.get(root)
        children = self.children
        reach_set = self._reachable
        depth_map = self._depth
        if root == self.source or (up is not None and up in reach_set):
            stack = [(root, depth_map[up] + 1 if up is not None else 0)]
            while stack:
                node, d = stack.pop()
                reach_set.add(node)
                depth_map[node] = d
                kids = children.get(node)
                if kids:
                    d += 1
                    for child in kids:
                        stack.append((child, d))
        else:
            stack = [root]
            while stack:
                node = stack.pop()
                reach_set.discard(node)
                depth_map.pop(node, None)
                kids = children.get(node)
                if kids:
                    stack.extend(kids)

    # -- mutations ------------------------------------------------------------

    def _advance_clock(self, time: float) -> None:
        """Refuse a NaN mutation time or one before the last mutation's.

        Every mutation calls this after its other checks and before it
        moves a pointer, so a refused mutation leaves the registry, its
        clock and its listeners untouched.
        """
        if not time >= self._clock:
            raise ValueError(
                f"mutation at time {time} before the last one at {self._clock}"
            )
        self._clock = time

    def attach(self, node: int, parent: int, time: float) -> None:
        """Commit ``node`` under ``parent`` (fresh join or orphan rejoin)."""
        if node == self.source:
            raise ValueError("cannot attach the source")
        if parent not in self.parent:
            raise ValueError(f"parent {parent} is not present")
        if self.parent.get(node) is not None:
            raise ValueError(f"node {node} already attached; use reparent")
        if parent == node:
            raise ValueError(f"cannot attach {node} under itself")
        if self.is_descendant(parent, node):
            raise ValueError(f"attaching {node} under its own descendant {parent}")
        self._advance_clock(time)
        self.parent[node] = parent
        self.children.setdefault(node, set())
        self.children[parent].add(node)
        self._refresh_subtree(node)
        self._emit("attach", node, parent, time)

    def reparent(self, node: int, new_parent: int, time: float) -> None:
        """Atomically move an attached node (and its subtree) to a new parent."""
        if node == self.source:
            raise ValueError("cannot reparent the source")
        old = self.parent.get(node)
        if old is None:
            raise ValueError(f"node {node} is not attached; use attach")
        if new_parent not in self.parent:
            raise ValueError(f"parent {new_parent} is not present")
        if new_parent == node or self.is_descendant(new_parent, node):
            raise ValueError(f"reparenting {node} under its own subtree")
        self._advance_clock(time)
        if new_parent == old:
            return
        self.children[old].discard(node)
        self.parent[node] = new_parent
        self.children[new_parent].add(node)
        self._refresh_subtree(node)
        self._emit("reparent", node, new_parent, time)

    def depart(self, node: int, time: float) -> None:
        """Remove a departing node; its children become orphans.

        All pointer mutations happen before any listener fires, so
        observers (invariant checkers in particular) never see a child
        whose parent pointer references the already-removed node.
        """
        if node == self.source:
            raise ValueError("the source cannot depart")
        if node not in self.parent:
            raise ValueError(f"node {node} is not present")
        self._advance_clock(time)
        up = self.parent.pop(node)
        if up is not None:
            self.children[up].discard(node)
        orphans = sorted(self.children.pop(node, set()))
        for child in orphans:
            self.parent[child] = None
        self._reachable.discard(node)
        self._depth.pop(node, None)
        for child in orphans:
            self._refresh_subtree(child)
        for child in orphans:
            self._emit("orphan", child, None, time)
        self._emit("depart", node, up, time)

    def sever(self, node: int, time: float) -> None:
        """Cut the edge above ``node``, leaving it (and its subtree) orphaned.

        The partition fault uses this: the node is still alive and its
        subtree intact, but its uplink crossed the partition and is dead.
        Pointer mutations complete before the listener fires, exactly like
        :meth:`depart`.
        """
        if node == self.source:
            raise ValueError("cannot sever the source")
        up = self.parent.get(node)
        if up is None:
            raise ValueError(f"node {node} is not attached")
        self._advance_clock(time)
        self.children[up].discard(node)
        self.parent[node] = None
        self._refresh_subtree(node)
        self._emit("orphan", node, None, time)

    def insert(
        self, node: int, parent: int, adopt: tuple[int, ...], time: float
    ) -> None:
        """Atomically place ``node`` under ``parent`` while handing it the
        children in ``adopt`` (VDM's :class:`~repro.core.join.Insert`).

        Equivalent to an attach/reparent of ``node`` followed by
        reparenting each adopted child under it, except that every pointer
        moves before any listener fires — observers never see the parent's
        degree transiently exceed its limit mid-insertion.
        """
        if node == self.source:
            raise ValueError("cannot insert the source")
        if parent not in self.parent:
            raise ValueError(f"parent {parent} is not present")
        if node == parent or self.is_descendant(parent, node):
            raise ValueError(f"inserting {node} under its own subtree")
        for child in adopt:
            if child == node:
                raise ValueError(f"node {node} cannot adopt itself")
            if self.parent.get(child) != parent:
                raise ValueError(f"cannot adopt {child}: not a child of {parent}")
        self._advance_clock(time)
        old = self.parent.get(node)
        if old is not None:
            self.children[old].discard(node)
        self.parent[node] = parent
        self.children.setdefault(node, set())
        self.children[parent].add(node)
        for child in adopt:
            self.children[parent].discard(child)
            self.parent[child] = node
            self.children[node].add(child)
        # One pass from the inserted node covers the adopted subtrees too.
        self._refresh_subtree(node)
        if old != parent:
            self._emit("attach" if old is None else "reparent", node, parent, time)
        for child in adopt:
            self._emit("reparent", child, node, time)
