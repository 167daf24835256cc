"""Always-on protocol invariant checking.

The :class:`TreeRegistry` is the ground truth of every session, and every
protocol action lands there as a mutation.  :class:`InvariantChecker`
subscribes to the registry's listener stream and validates the tree
invariants after **every** mutation.  Per mutation it runs *localized*
checks — only the touched node, its new ancestry, and the degree of the
changed parent (O(depth) instead of O(n·depth)); a configurable periodic
cadence (plus the end-of-run ``verify_all``) re-runs the full structural
sweep as the oracle; ``full_sweep_every=1`` runs it on every mutation,
which is how the equivalence tests compare the two.

The global invariants the full sweep enforces:

* the source is present and is the root (no parent pointer);
* the structure maps agree (``parent`` and ``children`` keys coincide,
  and each edge appears in both directions);
* no parent pointer references an absent (departed) node;
* the tree is acyclic — every attached node's parent chain terminates at
  the source;
* no node holds more registry children than its agent's ``degree_limit``;
* join records are internally consistent (non-negative durations, at
  least one iteration, known kinds).

A failed check raises (or records, in ``record`` mode) a structured
:class:`InvariantViolation` carrying the invariant name, the offending
node, the simulation time, and the tail of the mutation trace that led
there — enough to replay and diagnose the schedule without re-running.

The checker performs no simulator scheduling of its own: checks run
synchronously inside the mutation, so enabling it never perturbs event
ordering or any RNG stream derived from simulator state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.base import ProtocolRuntime

__all__ = [
    "InvariantChecker",
    "InvariantViolation",
    "TreeEvent",
    "tree_is_legal",
]


def tree_is_legal(env: "ProtocolRuntime") -> bool:
    """Whether ``env``'s registry satisfies every structural invariant *now*.

    The stateless legality oracle behind time-to-legal-state recovery
    metrics: it runs the exact full-sweep scan :class:`InvariantChecker`
    uses, without subscribing a listener or recording anything.  Note an
    orphaned subtree is structurally legal (its root simply has no
    parent); callers tracking recovery combine this with orphan-set
    emptiness.
    """
    probe = SimpleNamespace(env=env)
    return next(InvariantChecker._scan_tree(probe), None) is None


@dataclass(frozen=True)
class TreeEvent:
    """One registry mutation, as seen by the checker's listener."""

    time: float
    kind: str  # attach | orphan | depart | reparent
    node: int
    parent: int | None

    def __str__(self) -> str:
        if self.kind in ("attach", "reparent"):
            return f"t={self.time:.3f} {self.kind} {self.node} -> {self.parent}"
        return f"t={self.time:.3f} {self.kind} {self.node}"


class InvariantViolation(AssertionError):
    """A protocol invariant failed.

    Carries structured fields (``invariant``, ``node``, ``time``,
    ``trace``) so tests and reports can dispatch on them; the formatted
    message embeds the recent mutation trace for human diagnosis.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        node: int | None,
        time: float,
        trace: tuple[TreeEvent, ...] = (),
    ) -> None:
        self.invariant = invariant
        self.node = node
        self.time = time
        self.trace = trace
        lines = [f"[{invariant}] {message} (t={time:.3f})"]
        if trace:
            lines.append(f"last {len(trace)} tree events:")
            lines.extend(f"  {event}" for event in trace)
        super().__init__("\n".join(lines))


class InvariantChecker:
    """Validates global tree invariants after every registry mutation.

    Parameters
    ----------
    env:
        The runtime whose tree (and agents) to watch.  Construction
        subscribes to the tree's listener stream.
    mode:
        ``"raise"`` (default) raises :class:`InvariantViolation` at the
        first failed check; ``"record"`` collects violations in
        :attr:`violations` and keeps going.
    trace_len:
        How many recent mutations to keep for violation traces.
    full_sweep_every:
        Run the full structural sweep every this many mutations (the
        localized per-mutation checks run on all the others).  ``1``
        full-sweeps every mutation.  ``None`` uses
        :attr:`DEFAULT_FULL_SWEEP_EVERY`.
    """

    MODES = ("raise", "record")
    #: default full-sweep cadence, in mutations.  Localized checks catch
    #: every single-mutation corruption; the sweep is the safety net for
    #: drift the local view cannot see.
    DEFAULT_FULL_SWEEP_EVERY = 128

    def __init__(
        self,
        env: "ProtocolRuntime",
        *,
        mode: str = "raise",
        trace_len: int = 50,
        full_sweep_every: int | None = None,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        if full_sweep_every is None:
            full_sweep_every = self.DEFAULT_FULL_SWEEP_EVERY
        if full_sweep_every < 1:
            raise ValueError(
                f"full_sweep_every must be >= 1, got {full_sweep_every}"
            )
        self.env = env
        self.mode = mode
        self.full_sweep_every = full_sweep_every
        self._mutations_since_sweep = 0
        self.trace: deque[TreeEvent] = deque(maxlen=trace_len)
        self.violations: list[InvariantViolation] = []
        self.checks_run = 0
        env.tree.add_listener(self._on_event)

    # -- event intake ---------------------------------------------------------

    def _on_event(
        self, kind: str, node: int, parent: int | None, time: float
    ) -> None:
        self.trace.append(TreeEvent(time=time, kind=kind, node=node, parent=parent))
        self._mutations_since_sweep += 1
        if self._mutations_since_sweep >= self.full_sweep_every:
            self._mutations_since_sweep = 0
            self.check_tree(time)
        else:
            self.check_mutation(kind, node, parent, time)

    # -- checks ---------------------------------------------------------------

    def check_tree(self, time: float | None = None) -> None:
        """Run the full structural sweep over the registry."""
        now = self.env.sim.now if time is None else time
        self.checks_run += 1
        for invariant, node, msg in self._scan_tree():
            self._report(invariant, msg, node=node, time=now)

    def check_mutation(
        self, kind: str, node: int, parent: int | None, time: float | None = None
    ) -> None:
        """Validate only the state one mutation could have touched.

        O(depth of the touched node) instead of the full sweep's
        O(n·depth): the mutated node's map entries, edge symmetry at the
        changed parent, the node's *new* ancestry (acyclicity and dangling
        pointers), and the degree bound at the changed parent only.
        Everything the mutation could not reach is covered by the periodic
        full sweep.
        """
        now = self.env.sim.now if time is None else time
        self.checks_run += 1
        for invariant, n, msg in self._scan_mutation(kind, node, parent):
            self._report(invariant, msg, node=n, time=now)

    def _scan_mutation(
        self, kind: str, node: int, parent: int | None
    ) -> Iterator[tuple[str, int | None, str]]:
        tree = self.env.tree
        pmap = tree.parent
        cmap = tree.children
        source = tree.source

        # Source anchoring is O(1); keep it on every mutation.
        if source not in pmap:
            yield "source-present", source, f"source {source} is absent"
            return
        if pmap.get(source) is not None:
            yield (
                "source-root",
                source,
                f"source {source} has parent {pmap[source]}",
            )

        if kind == "depart":
            if node in pmap or node in cmap:
                yield (
                    "structure-maps",
                    node,
                    f"departed node {node} still present in the registry",
                )
            if parent is not None and node in cmap.get(parent, ()):
                yield (
                    "edge-symmetry",
                    node,
                    f"children[{parent}] still lists departed node {node}",
                )
            return

        if kind == "orphan":
            if node not in pmap or node not in cmap:
                yield (
                    "structure-maps",
                    node,
                    f"orphan {node} missing from the structure maps",
                )
            elif pmap[node] is not None:
                yield (
                    "edge-symmetry",
                    node,
                    f"orphan event for {node} but parent[{node}] is "
                    f"{pmap[node]!r}",
                )
            return

        # attach / reparent
        if node not in pmap or node not in cmap:
            yield (
                "structure-maps",
                node,
                f"node {node} missing from the structure maps",
            )
            return
        if parent is None or parent not in pmap:
            yield (
                "dangling-parent",
                node,
                f"node {node} has departed parent {parent}",
            )
            return
        if pmap[node] != parent:
            yield (
                "edge-symmetry",
                node,
                f"{kind} event says {parent} -> {node} but parent[{node}] "
                f"is {pmap[node]!r}",
            )
        if node not in cmap.get(parent, ()):
            yield (
                "edge-symmetry",
                node,
                f"edge {parent} -> {node} missing from children[{parent}]",
            )

        # Acyclicity and dangling pointers along the node's new ancestry.
        cur = node
        steps = 0
        limit = len(pmap)
        while cur != source:
            up = pmap.get(cur)
            if up is None:
                break  # ancestry ends at a (legal) orphan root
            if up not in pmap:
                yield (
                    "dangling-parent",
                    cur,
                    f"node {cur} has departed parent {up}",
                )
                break
            steps += 1
            if steps > limit:
                yield (
                    "acyclicity",
                    node,
                    f"parent chain from {node} does not terminate "
                    f"(cycle through {up})",
                )
                break
            cur = up

        # Degree bound, only at the changed parent.
        agent = self.env.agents.get(parent)
        if agent is not None and len(cmap.get(parent, ())) > agent.degree_limit:
            yield (
                "degree-bound",
                parent,
                f"node {parent} has {len(cmap[parent])} registry children, "
                f"degree limit {agent.degree_limit}",
            )

    def _scan_tree(self) -> Iterator[tuple[str, int | None, str]]:
        tree = self.env.tree
        parent = tree.parent
        children = tree.children
        source = tree.source

        if source not in parent:
            yield "source-present", source, f"source {source} is absent"
            return
        if parent.get(source) is not None:
            yield (
                "source-root",
                source,
                f"source {source} has parent {parent[source]}",
            )

        if set(parent) != set(children):
            only_p = sorted(set(parent) - set(children))
            only_c = sorted(set(children) - set(parent))
            yield (
                "structure-maps",
                None,
                f"parent/children key mismatch: only in parent {only_p}, "
                f"only in children {only_c}",
            )

        for node, p in parent.items():
            if p is None:
                continue
            if p not in parent:
                yield (
                    "dangling-parent",
                    node,
                    f"node {node} has departed parent {p}",
                )
            elif node not in children.get(p, ()):
                yield (
                    "edge-symmetry",
                    node,
                    f"edge {p} -> {node} missing from children[{p}]",
                )
        for p, kids in children.items():
            for kid in kids:
                if parent.get(kid) != p:
                    yield (
                        "edge-symmetry",
                        kid,
                        f"children[{p}] lists {kid} but parent[{kid}] is "
                        f"{parent.get(kid)!r}",
                    )

        # Acyclicity: walk each parent chain once, memoizing resolved nodes.
        resolved: dict[int, bool] = {source: True}
        for node in parent:
            chain = []
            cur = node
            seen: set[int] = set()
            while cur not in resolved:
                if cur in seen:
                    cycle = chain[chain.index(cur):]
                    yield (
                        "acyclicity",
                        cur,
                        f"parent cycle {' -> '.join(map(str, cycle + [cur]))}",
                    )
                    for member in chain:
                        resolved[member] = False
                    break
                seen.add(cur)
                chain.append(cur)
                up = parent.get(cur)
                if up is None or up not in parent:
                    # orphan root or dangling pointer (reported above)
                    for member in chain:
                        resolved[member] = False
                    break
                cur = up
            else:
                ok = resolved[cur]
                for member in chain:
                    resolved[member] = ok

        agents = self.env.agents
        for p, kids in children.items():
            agent = agents.get(p)
            if agent is not None and len(kids) > agent.degree_limit:
                yield (
                    "degree-bound",
                    p,
                    f"node {p} has {len(kids)} registry children, "
                    f"degree limit {agent.degree_limit}",
                )

    def check_join_records(self, time: float | None = None) -> None:
        """Validate the runtime's join/reconnect bookkeeping."""
        now = self.env.sim.now if time is None else time
        self.checks_run += 1
        for record in self.env.join_records:
            if record.completed_at < record.started_at:
                self._report(
                    "join-record",
                    f"negative duration for node {record.node}: "
                    f"{record.started_at} -> {record.completed_at}",
                    node=record.node,
                    time=now,
                )
            if record.iterations < 1:
                self._report(
                    "join-record",
                    f"{record.kind} record for node {record.node} ran "
                    f"{record.iterations} iterations",
                    node=record.node,
                    time=now,
                )
            if record.kind not in (
                "join",
                "reconnect",
                "refine",
                "switch",
                "failover",
            ):
                self._report(
                    "join-record",
                    f"unknown join kind {record.kind!r} for node {record.node}",
                    node=record.node,
                    time=now,
                )

    def verify_all(self, time: float | None = None) -> None:
        """Full end-of-run sweep: tree structure plus join records."""
        self.check_tree(time)
        self.check_join_records(time)

    # -- reporting ------------------------------------------------------------

    def _report(
        self, invariant: str, message: str, *, node: int | None, time: float
    ) -> None:
        violation = InvariantViolation(
            invariant, message, node=node, time=time, trace=tuple(self.trace)
        )
        self.violations.append(violation)
        if self.mode == "raise":
            raise violation
