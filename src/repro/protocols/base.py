"""Agent framework and protocol runtime.

Everything the overlay protocols share lives here:

* :class:`ProtocolRuntime` — binds agents to the simulator and the
  underlay; delivers control messages with real propagation delay, handles
  timeouts to departed peers, counts every control message (the numerator
  of the paper's overhead metric, eq. 3.6), and records join/reconnect
  durations (the startup-time and reconnection-time metrics of Chapter 5).
* :class:`TreeRegistry` — the ground-truth overlay tree, updated at the
  instant a parent commits a connection.  Metrics and the data-plane
  accountant observe the registry; agents keep their own (slightly lagged)
  local views, exactly as real peers would.
* :class:`OverlayAgent` — per-node protocol state and default handlers for
  the shared message vocabulary.
* :class:`JoinProcess` — the iterative query/probe/decide loop that VDM,
  HMTP, and BTP all follow; each protocol plugs in its own decision rule
  (:meth:`OverlayAgent.join_decision`).

Design note: the joining peer's "don't attach inside my own subtree" guard
is implemented as a parent-chain walk on the registry
(:meth:`TreeRegistry.is_descendant`).  In a deployed system each node keeps
its root path for exactly this check (as HMTP and BTP do); consulting the
registry is the simulation-local equivalent and costs no messages, matching
how the paper's implementation treats root-path state.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np

from repro.core.join import (
    Attach,
    Decision,
    Descend,
    Insert,
    closest_free_else_closest,
)
from repro.protocols.messages import (
    ChildInfo,
    ChildRemove,
    ConnRequest,
    ConnResponse,
    FailoverAttach,
    GrandparentChange,
    InfoRequest,
    InfoResponse,
    LeaveNotice,
    Message,
    ParentChange,
)
from repro.sim.engine import Event, Simulator
from repro.sim.network import Underlay
from repro.util.rngtools import RngLike, rng_from_seed
from repro.util.validation import check_finite, check_non_negative, check_positive

__all__ = [
    "ProtocolRuntime",
    "TreeRegistry",
    "OverlayAgent",
    "JoinProcess",
    "JoinRecord",
    "Descend",
    "Attach",
    "Insert",
]


# --------------------------------------------------------------------------
# Tree registry (ground truth)
# --------------------------------------------------------------------------


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


# --------------------------------------------------------------------------
# Join/reconnect bookkeeping
# --------------------------------------------------------------------------


class JoinRecord(NamedTuple):
    """One completed (or failed) join/reconnect/refine attempt.

    NamedTuple rather than a dataclass: one is built per join, reconnect,
    and refinement attempt, which adds up under churn.
    """

    node: int
    kind: str  # "join" | "reconnect" | "refine"
    started_at: float
    completed_at: float
    succeeded: bool
    iterations: int

    @property
    def duration(self) -> float:
        return self.completed_at - self.started_at


# --------------------------------------------------------------------------
# Runtime
# --------------------------------------------------------------------------


class ProtocolRuntime:
    """Shared services for all agents of one multicast session.

    Parameters
    ----------
    sim:
        The discrete-event simulator driving this session.
    underlay:
        Physical substrate: message latency between hosts.
    source:
        Host id of the stream source (root of the tree).
    metric:
        Virtual-distance function ``f(a, b) -> float`` used by the join
        logic.  Defaults to RTT (VDM-D / HMTP behaviour); Chapter 4's
        generalized metrics plug in here.
    timeout_ms:
        How long a requester waits for a reply before treating the target
        as dead.
    measurement_noise_sigma:
        Lognormal sigma applied independently to every distance
        measurement, modelling probe noise (background traffic, scheduler
        jitter) on a real testbed.  0 (the default) gives exact
        measurements — the NS-2 regime; the PlanetLab emulation uses a
        nonzero value.
    noise_rng:
        Generator for measurement noise (required when sigma > 0).
    """

    def __init__(
        self,
        sim: Simulator,
        underlay: Underlay,
        source: int,
        *,
        metric: Callable[[int, int], float] | None = None,
        timeout_ms: float = 3000.0,
        measurement_noise_sigma: float = 0.0,
        noise_rng=None,
    ) -> None:
        check_finite("timeout_ms", check_positive("timeout_ms", timeout_ms))
        check_finite(
            "measurement_noise_sigma",
            check_non_negative("measurement_noise_sigma", measurement_noise_sigma),
        )
        if measurement_noise_sigma > 0 and noise_rng is None:
            raise ValueError("noise_rng is required when measurement noise is on")
        underlay.validate_host(source)
        self.sim = sim
        self.underlay = underlay
        self.source = source
        self.metric = metric or underlay.rtt_ms
        self.timeout_ms = timeout_ms
        self.measurement_noise_sigma = measurement_noise_sigma
        self._noisy = measurement_noise_sigma > 0
        self._noise_rng = noise_rng
        # Measurement-noise draws come out of a block buffer: one
        # ``Generator.lognormal`` call refills 256 draws, probes then
        # consume them in stream order.  numpy Generators are
        # batch-invariant (the draw sequence does not depend on request
        # granularity), so the values are bit-for-bit what per-call draws
        # produce.
        self._noise_buf: list[float] = []
        self._noise_pos = 0
        # Bound-method hoists for the per-message hot path.
        self._sched_fire = sim.schedule_fire_in
        self._reserve_seq = sim.reserve_seq
        self._delay_ms = underlay.delay_ms
        self._timeout_s = timeout_ms / 1000.0
        self.tree = TreeRegistry(source)
        self.agents: dict[int, OverlayAgent] = {}
        self._alive: set[int] = set()
        self._frozen: set[int] = set()
        #: the session's fault injector, if any (see
        #: :mod:`repro.sim.faults`); failover asks it about partitions.
        self.faults = None
        self.message_faults = None
        #: optional precomputed-failover manager (see
        #: :mod:`repro.protocols.failover`); ``None`` means the reactive
        #: reconnection path runs untouched.
        self.failover = None
        #: control messages by concrete type; keying on the class object
        #: skips a ``__name__`` lookup per message on the counting hot
        #: path.  The public name-keyed view is :attr:`message_counts`.
        self._msg_counts: Counter[type] = Counter()
        self.join_records: list[JoinRecord] = []
        self._register_listeners: list[Callable[[int], None]] = []

    # -- agent lifecycle ------------------------------------------------------

    def add_register_listener(self, listener: Callable[[int], None]) -> None:
        """Call ``listener(node)`` after every :meth:`register`.

        A registration can give a node still present in the tree (crashed,
        not yet purged) a new agent with a smaller ``degree_limit``;
        maintained degree-bound answers must hear about it.
        """
        self._register_listeners.append(listener)

    def register(self, agent: "OverlayAgent") -> None:
        if agent.node_id in self.agents and self.is_alive(agent.node_id):
            raise ValueError(f"agent {agent.node_id} already registered and alive")
        self.underlay.validate_host(agent.node_id)
        self.agents[agent.node_id] = agent
        self._alive.add(agent.node_id)
        self._frozen.discard(agent.node_id)
        for listener in self._register_listeners:
            listener(agent.node_id)

    def mark_dead(self, node: int) -> None:
        self._alive.discard(node)
        self._frozen.discard(node)

    def is_alive(self, node: int) -> bool:
        return node in self._alive

    def freeze(self, node: int) -> None:
        """Make ``node`` unresponsive: inbound deliveries are discarded.

        The node keeps its own timers and outbound sends — the model is a
        transient stall or inbound partition, not a crash."""
        if self.is_alive(node):
            self._frozen.add(node)

    def thaw(self, node: int) -> None:
        self._frozen.discard(node)

    def is_responsive(self, node: int) -> bool:
        return node in self._alive and node not in self._frozen

    def alive_nodes(self) -> list[int]:
        return sorted(self._alive)

    # -- distances -------------------------------------------------------------

    def virtual_distance(self, a: int, b: int, *, samples: int = 1) -> float:
        """A *measurement* of the virtual distance between two hosts.

        With measurement noise enabled, repeated calls return different
        samples around the true metric value — exactly what repeated RTT
        probes on a shared testbed do.  ``samples`` > 1 averages several
        probes (refinement passes do this: they are not on the join-time
        critical path, so they can afford a less noisy estimate).
        """
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        base = float(self.metric(a, b))
        if self._noisy and a != b:
            # Inline the single-sample case (the join-time hot path);
            # multi-sample means go through _noise_mean.
            pos = self._noise_pos
            if samples == 1 and pos < len(self._noise_buf):
                self._noise_pos = pos + 1
                base *= self._noise_buf[pos]
            else:
                base *= self._noise_mean(samples)
        return base

    def _noise_mean(self, samples: int) -> float:
        """Mean of the next ``samples`` buffered noise draws.

        Values and RNG stream are bit-identical to drawing a fresh
        ``size=samples`` array per call and taking ``np.mean`` of it:
        the buffer serves draws in stream order, and for the sample
        counts the protocols use (< 8) numpy's pairwise mean reduces to
        the same left-to-right sum this computes directly.
        """
        pos = self._noise_pos
        buf = self._noise_buf
        if pos + samples > len(buf):
            fresh = self._noise_rng.lognormal(
                0.0, self.measurement_noise_sigma, size=max(256, samples)
            ).tolist()
            buf = buf[pos:] + fresh
            self._noise_buf = buf
            self._noise_pos = pos = 0
        self._noise_pos = pos + samples
        if samples == 1:
            return buf[pos]
        if samples < 8:
            total = 0.0
            for i in range(pos, pos + samples):
                total += buf[i]
            return total / samples
        return float(np.mean(np.array(buf[pos : pos + samples])))

    # -- messaging ---------------------------------------------------------------

    @property
    def message_faults(self):
        """Per-message delivery hook: the fault injector again, but only
        when its plan can touch a message leg (``None`` otherwise).

        The hook is asked — ``delivery_delays(src, dst, msg, delay, leg=)``
        returning one delay per copy delivered — only for legs that fall
        inside one of the closed virtual-time windows it publishes as
        ``message_windows``; strictly outside them it would answer
        ``(delay,)`` without drawing, so :meth:`tell` and :meth:`request`
        deliver on the tuple path instead.  A hook that publishes no
        windows is asked about every leg, for ever.
        """
        return self._message_faults

    @message_faults.setter
    def message_faults(self, hook) -> None:
        self._message_faults = hook
        if hook is None:
            windows = ()
        else:
            windows = getattr(hook, "message_windows", ((-math.inf, math.inf),))
        # Simulation time only moves forward, so a cursor over the sorted
        # windows answers "is this instant inside one?" by comparing with
        # the bounds of the first window not yet behind the clock.
        self._windows_ahead = iter(windows)
        self._advance_window(self.sim.now)

    def _advance_window(self, now: float) -> None:
        """Move the cursor to the first window that does not end before ``now``."""
        for lo, hi in self._windows_ahead:
            if hi >= now:
                self._window_lo, self._window_hi = lo, hi
                return
        self._window_lo = self._window_hi = math.inf

    @property
    def total_control_messages(self) -> int:
        return sum(self._msg_counts.values())

    @property
    def message_counts(self) -> Counter[str]:
        """Control-message counts keyed by message type name."""
        return Counter(
            {t.__name__: c for t, c in self._msg_counts.items()}
        )

    def tell(self, src: int, dst: int, msg: Message) -> None:
        """Fire-and-forget control message."""
        self._msg_counts[msg.__class__] += 1
        if dst not in self._alive:
            return
        delay = self._delay_ms(src, dst) / 1000.0

        def deliver() -> None:
            # is_responsive, inlined: this closure runs once per delivery.
            if dst in self._alive and dst not in self._frozen:
                self.agents[dst].handle_tell(src, msg)

        # A delivery is never cancelled, so it needs no Event on either
        # path; schedule_fire_in consumes the sequence number a
        # schedule_in call would, so ordering is the same.
        hook = self._message_faults
        if hook is not None:
            now = self.sim.now
            if now > self._window_hi:
                self._advance_window(now)
            if now >= self._window_lo:
                for d in hook.delivery_delays(src, dst, msg, delay, leg="tell"):
                    self._sched_fire(d, deliver)
                return
        # No hook, or strictly outside every window of it: the hook could
        # only answer ``(delay,)``.
        self._sched_fire(delay, deliver)

    def request(
        self,
        src: int,
        dst: int,
        msg: Message,
        on_reply: Callable[[Message], None],
        on_timeout: Callable[[], None],
    ) -> None:
        """Request/response exchange with a timeout.

        The reply is produced synchronously by the target's
        :meth:`OverlayAgent.handle_request` and travels back with the same
        one-way latency.  If the target is (or dies) unreachable, the
        requester's ``on_timeout`` fires after ``timeout_ms``.

        A leg is *quiet* when its instant lies strictly outside every
        window of the :attr:`message_faults` hook (always, when there is
        none).  The request leg is judged at ``now`` and the reply leg at
        ``now + delay``, where a quiet request leg lands (a request to a
        dead target has no second leg).  When both are quiet each leg
        takes exactly ``delay`` and the timeout is queued only once it is
        certain to fire.  Its sequence number is reserved
        at send time — the place in the ``(time, priority, seq)`` order an
        eagerly queued timeout holds — and the entry goes on the heap at
        the instant no in-flight leg can still beat it: a dead target at
        send, a dead/frozen/silent target at arrival, a dead/frozen
        requester when the reply lands, or at send time when the reply
        cannot land before the deadline anyway (the late reply is still
        delivered).  An exchange that completes queues nothing for it.

        Otherwise — an instant inside a window, on its boundary, or past
        the start of the next one — every leg is handed to the hook, which
        may drop, delay or duplicate it.  That makes the first reply's
        arrival unknowable at send time, so the timeout is queued eagerly
        as a cancellable event.
        """
        self._msg_counts[msg.__class__] += 1
        now = self.sim.now
        # A dead target is never asked for its delay: the request is
        # lost, and ``now`` alone decides which way its timeout is queued.
        target_alive = dst in self._alive
        delay = self._delay_ms(src, dst) / 1000.0 if target_alive else 0.0
        hook = self._message_faults
        if now > self._window_hi:
            self._advance_window(now)
        if hook is None or now + delay < self._window_lo:
            seq = self._reserve_seq()
            deadline = now + self._timeout_s
            if not target_alive:
                self._queue_timeout(deadline, seq, src, on_timeout)
                return
            # Whether a failing leg still owes the heap the timeout.  Same
            # floats the engine will stamp on the two legs, so rounding
            # cannot separate this path from the eager one below.
            owed = now + delay + delay < deadline
            if not owed:
                self._queue_timeout(deadline, seq, src, on_timeout)

            def deliver_request() -> None:
                # is_responsive, inlined: these closures run once per delivery.
                if dst not in self._alive or dst in self._frozen:
                    if owed:
                        self._queue_timeout(deadline, seq, src, on_timeout)
                    return
                reply = self.agents[dst].handle_request(src, msg)
                if reply is None:
                    if owed:
                        self._queue_timeout(deadline, seq, src, on_timeout)
                    return
                self._msg_counts[reply.__class__] += 1

                def deliver_reply() -> None:
                    if src not in self._alive or src in self._frozen:
                        if owed:
                            self._queue_timeout(deadline, seq, src, on_timeout)
                        return
                    on_reply(reply)

                self._sched_fire(delay, deliver_reply)

            self._sched_fire(delay, deliver_request)
            return

        def fire_timeout() -> None:
            if src in self._alive:
                on_timeout()

        timeout_event = self.sim.schedule_in(
            self._timeout_s, fire_timeout, label="timeout"
        )
        if not target_alive:
            return  # request lost; timeout will fire
        delivery_delays = hook.delivery_delays

        def deliver_request() -> None:
            if dst not in self._alive or dst in self._frozen:
                return
            reply = self.agents[dst].handle_request(src, msg)
            if reply is None:
                return
            self._msg_counts[reply.__class__] += 1

            def deliver_reply() -> None:
                if src not in self._alive or src in self._frozen:
                    return
                timeout_event.cancel()
                on_reply(reply)

            # The legs are never cancelled, so they need no Event.
            for d in delivery_delays(dst, src, reply, delay, leg="reply"):
                self._sched_fire(d, deliver_reply)

        for d in delivery_delays(src, dst, msg, delay, leg="request"):
            self._sched_fire(d, deliver_request)

    def _queue_timeout(
        self, deadline: float, seq: int, src: int, on_timeout: Callable[[], None]
    ) -> None:
        """Queue a request's timeout in the place reserved for it at send."""

        def fire_timeout() -> None:
            if src in self._alive:
                on_timeout()

        self.sim.schedule_reserved(deadline, seq, fire_timeout)

    # -- join bookkeeping ----------------------------------------------------------

    def record_join(self, record: JoinRecord) -> None:
        self.join_records.append(record)


# Interned probe payloads: immutable values sent hundreds of thousands of
# times per run — one instance each is enough.
_INFO_WITH_CHILDREN = InfoRequest(want_children=True)
_INFO_PROBE = InfoRequest(want_children=False)


# --------------------------------------------------------------------------
# Agents
# --------------------------------------------------------------------------


class OverlayAgent:
    """Per-node protocol state plus default handlers for shared messages.

    Subclasses implement :meth:`join_decision` (the protocol's brain) and
    may override :meth:`on_parent_lost` (reconnection policy; the default
    is VDM's grandparent restart).

    ``degree_limit`` is the maximum number of children this node will
    accept — the paper's "degree limit", derived from uplink bandwidth.

    ``rng`` is anything :func:`~repro.util.rngtools.rng_from_seed` accepts;
    it becomes a generator only if the protocol draws (see :attr:`rng`).
    """

    #: subclass marker used in reports, e.g. "vdm", "hmtp".
    protocol_name = "base"

    def __init__(
        self,
        node_id: int,
        env: ProtocolRuntime,
        *,
        degree_limit: int = 4,
        rng: RngLike = None,
    ) -> None:
        if degree_limit < 1:
            raise ValueError(f"degree_limit must be >= 1, got {degree_limit}")
        self.node_id = node_id
        self.env = env
        self.degree_limit = int(degree_limit)
        self._rng = rng
        self.parent: int | None = None
        self.grandparent: int | None = None
        #: child id -> virtual distance measured when the child connected.
        self.children: dict[int, float] = {}
        self.active_process: JoinProcess | None = None
        self._refine_event: Event | None = None

    # -- basic state -----------------------------------------------------------

    @property
    def rng(self) -> np.random.Generator:
        """This agent's private random stream, built on first use.

        Sessions create one agent per join and most protocols never draw
        (VDM only under ``case3_selection="random"``), so the join sites
        hand over the stream's key path rather than a constructed
        generator.  Keyed streams are independent of one another, so when
        one is built cannot change a value it yields.
        """
        rng = self._rng
        if not isinstance(rng, np.random.Generator):
            rng = self._rng = rng_from_seed(rng)
        return rng

    @property
    def is_source(self) -> bool:
        return self.node_id == self.env.source

    @property
    def free_degree(self) -> int:
        return self.degree_limit - len(self.children)

    def child_info(self) -> tuple[ChildInfo, ...]:
        env = self.env
        agents = env.agents
        alive = env._alive
        infos = []
        for child, dist in sorted(self.children.items()):
            agent = agents.get(child)
            free = (
                agent.free_degree
                if agent is not None and child in alive
                else 0
            )
            infos.append(ChildInfo(child, dist, free))
        return tuple(infos)

    # -- lifecycle ---------------------------------------------------------------

    def start_join(self, *, kind: str = "join", at: int | None = None) -> None:
        """Begin the iterative join process (from the source by default).

        With foster-child mode enabled (HMTP's quick-start concept,
        Section 2.4.7: "A node connects root at the beginning to start
        stream immediately.  Then, it jumps to ideal parent when it is
        found."), a fresh join first grabs any free slot at the source
        and then optimizes its placement in the background.
        """
        if self.is_source:
            raise ValueError("the source does not join")
        self.cancel_active_process()
        start = at if at is not None else self.env.source
        if kind == "join" and self.parent is None and self.foster_join_enabled():
            self._foster_attach(start)
            return
        self.active_process = JoinProcess(self, start_node=start, kind=kind)
        self.active_process.start()

    def foster_join_enabled(self) -> bool:
        """Whether fresh joins use the foster-child quick start."""
        return False

    def _foster_attach(self, start: int) -> None:
        """Foster-child quick start: attach at the source immediately,
        then run the regular join as a background parent switch."""
        me = self.node_id
        src = self.env.source
        started_at = self.env.sim.now

        def begin_real_join(*, as_switch: bool) -> None:
            # "switch" runs the protocol's *full* join logic but commits
            # as an atomic parent change (the foster node already has a
            # stream); plain "refine" would trigger HMTP's one-level rule.
            kind = "switch" if as_switch else "join"
            process = JoinProcess(self, start_node=start, kind=kind)
            if not as_switch:
                process.started_at = started_at
            self.active_process = process
            process.start()

        def on_reply(reply: Message) -> None:
            if not isinstance(reply, ConnResponse) or not reply.accepted:
                begin_real_join(as_switch=False)
                return
            self.parent = src
            self.grandparent = reply.parent
            self.env.record_join(
                JoinRecord(
                    node=me,
                    kind="join",
                    started_at=started_at,
                    completed_at=self.env.sim.now,
                    succeeded=True,
                    iterations=1,
                )
            )
            self.on_connected()
            begin_real_join(as_switch=True)

        def on_timeout() -> None:
            begin_real_join(as_switch=False)

        self.env.request(me, src, ConnRequest(kind="attach"), on_reply, on_timeout)

    def leave(self) -> None:
        """Gracefully leave: notify children and parent, then go dark."""
        if self.is_source:
            raise ValueError("the source cannot leave")
        self.cancel_active_process()
        self.stop_refinement()
        for child in sorted(self.children):
            self.env.tell(self.node_id, child, LeaveNotice())
        if self.parent is not None:
            self.env.tell(self.node_id, self.parent, ChildRemove())
        if self.env.tree.is_present(self.node_id):
            self.env.tree.depart(self.node_id, self.env.sim.now)
        self.env.mark_dead(self.node_id)
        self.parent = None
        self.grandparent = None
        self.children.clear()

    def cancel_active_process(self) -> None:
        if self.active_process is not None:
            self.active_process.cancel()
            self.active_process = None

    # -- protocol hooks ------------------------------------------------------------

    def join_decision(
        self,
        pivot: int,
        dist_to_pivot: float,
        pivot_info: InfoResponse,
        probes: dict[int, tuple[float, ChildInfo]],
    ) -> Decision:
        """Protocol-specific decision for one join iteration.

        Parameters
        ----------
        pivot:
            The node currently being queried.
        dist_to_pivot:
            Virtual distance from this node to the pivot.
        pivot_info:
            The pivot's information response (children, free degree).
        probes:
            Probed children: child id -> (distance from this node to the
            child, the pivot's :class:`ChildInfo` for the child).  Children
            that timed out or were filtered (self, own descendants) are
            absent.
        """
        raise NotImplementedError

    def on_parent_lost(self) -> None:
        """Parent-death handling: try the precomputed backup first.

        With precomputed failover enabled (``env.failover``), a valid
        backup parent absorbs the orphan locally — no rejoin round-trip.
        Otherwise (or when the backup fails revalidation at switch time)
        the protocol's reactive reconnection policy runs unchanged.
        """
        if self._try_failover():
            return
        self._reconnect()

    def _try_failover(self) -> bool:
        manager = self.env.failover
        return manager is not None and manager.try_switch(self.node_id)

    def _reconnect(self) -> None:
        """Reactive reconnection policy.  Default: restart join at the
        grandparent (Section 3.3), falling back to the source when
        unknown."""
        target = self.grandparent if self.grandparent is not None else self.env.source
        if target == self.node_id:
            target = self.env.source
        self.start_join(kind="reconnect", at=target)

    def backup_parent_ok(self, candidate: int, candidate_children: set[int]) -> bool:
        """Protocol veto for a precomputed backup-parent candidate.

        The failover manager proposes ancestors; a protocol may reject
        candidates that would violate its structural rules.  Default:
        accept (tree protocols without directionality constraints are
        safe under any non-descendant ancestor).  VDM overrides this with
        the direction-consistency filter.
        """
        return True

    def on_connected(self) -> None:
        """Hook called after a (re)connection commits.  Default: no-op."""

    def accept_refine_target(self, target: int) -> bool:
        """Whether a refinement pass should switch to ``target``.

        VDM's rule (the default): switch whenever the rejoin finds any
        parent different from the current one.  HMTP overrides this to
        require the new parent to be strictly closer.
        """
        return True

    def auto_refine_period(self) -> float | None:
        """Default refinement period for this protocol, or ``None``.

        Sessions arm refinement with this period unless overridden.  VDM
        runs without refinement by default (Section 3.4: "In our regular
        experiments, we don't use refinement"); HMTP depends on its
        periodic refinement and always returns one.
        """
        return None

    # -- refinement ------------------------------------------------------------------

    def start_refinement(self, period_s: float, *, jitter_rng=None) -> None:
        """Arm the periodic refinement timer (Section 3.4)."""
        if period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {period_s}")
        self.stop_refinement()
        first = period_s
        if jitter_rng is not None:
            first = float(jitter_rng.uniform(0.5, 1.5)) * period_s
        self._refine_period = period_s
        self._refine_event = self.env.sim.schedule_in(
            first, self._refine_tick, label="refine"
        )

    def stop_refinement(self) -> None:
        if self._refine_event is not None:
            self._refine_event.cancel()
            self._refine_event = None

    def _refine_tick(self) -> None:
        if not self.env.is_alive(self.node_id):
            return
        self._refine_event = self.env.sim.schedule_in(
            self._refine_period, self._refine_tick, label="refine"
        )
        # Only refine while attached and idle; a node mid-reconnect must
        # not preempt its recovery with a refinement probe.
        if self.parent is None or self.active_process is not None:
            return
        self.active_process = JoinProcess(
            self, start_node=self.refinement_start_node(), kind="refine"
        )
        self.active_process.start()

    def refinement_start_node(self) -> int:
        """Where a refinement rejoin starts.  VDM restarts at the source."""
        return self.env.source

    # -- message handlers -----------------------------------------------------------

    def handle_request(self, sender: int, msg: Message) -> Message | None:
        # Exact type checks: the message vocabulary has no subclasses, and
        # this dispatch runs once per request in a session.  free_degree
        # stays a property access — subclasses override it.
        if type(msg) is InfoRequest:
            return InfoResponse(
                self.node_id,
                self.free_degree,
                self.parent,
                self.child_info() if msg.want_children else (),
            )
        if type(msg) is ConnRequest:
            return self._handle_conn_request(sender, msg)
        raise TypeError(f"unexpected request {type(msg).__name__}")

    def _reconcile_children(self) -> None:
        """Re-sync the local child table with the ground-truth registry.

        Under message faults the reply that tells a new parent about its
        adopted children (or a departing child's ``ChildRemove``) can be
        lost after the registry edge was already committed, leaving the
        local table stale.  Real deployments repair such drift with
        periodic soft-state refresh; here we reconcile at acceptance
        points so a parent never grants capacity it does not have.
        """
        env = self.env
        registry = env.tree.children.get(self.node_id, set())
        for child in [c for c in self.children if c not in registry]:
            del self.children[child]
        for child in sorted(registry - self.children.keys()):
            self.children[child] = env.virtual_distance(self.node_id, child)

    def _handle_conn_request(self, sender: int, msg: ConnRequest) -> ConnResponse:
        env = self.env
        tree = env.tree
        self._reconcile_children()
        # A peer that is itself dangling cannot serve as a parent.
        if not self.is_source and not tree.is_reachable(self.node_id):
            return self._reject()
        # Never accept our own ancestor as a child: that would loop.
        if tree.is_descendant(self.node_id, sender):
            return self._reject()

        if msg.kind == "insert":
            transferable = [
                c
                for c in msg.adopt
                if c in self.children
                and env.is_alive(c)
                and c != sender
                # A child mid-switch (registry edge already moved, its
                # ChildRemove still in flight) is no longer ours to give.
                and tree.parent.get(c) == self.node_id
            ]
            # The adopt list was sized from the sender's view of its own
            # capacity, but that view can be stale (a late duplicate
            # ChildRemove under message faults) or raced (an attach the
            # sender accepted while this insert was in flight).  Clamp to
            # the sender's ground-truth remaining capacity at commit time
            # so the insert can never overfill the newcomer.
            sender_agent = env.agents.get(sender)
            if sender_agent is not None:
                room = sender_agent.degree_limit - len(
                    tree.children.get(sender, ())
                )
                if len(transferable) > room:
                    transferable = transferable[: max(room, 0)]
            if not transferable and self.free_degree <= 0:
                # The directional children vanished and no slot is free, so
                # neither the insert nor an attach fallback can proceed.
                return self._reject()
            dist = env.virtual_distance(self.node_id, sender)
            now = env.sim.now
            tree.insert(sender, self.node_id, tuple(transferable), now)
            self.children[sender] = dist
            for child in transferable:
                del self.children[child]
            return ConnResponse(
                accepted=True,
                node_id=self.node_id,
                parent=self.parent,
                transferred=tuple(transferable),
            )

        # attach
        if self.free_degree <= 0:
            return self._reject()
        dist = env.virtual_distance(self.node_id, sender)
        now = env.sim.now
        self.children[sender] = dist
        self._commit_child(sender, now)
        return ConnResponse(
            accepted=True, node_id=self.node_id, parent=self.parent
        )

    def _reject(self) -> ConnResponse:
        """The rejection reply: our children, so the sender can redirect."""
        return ConnResponse(
            accepted=False,
            node_id=self.node_id,
            parent=self.parent,
            children=self.child_info(),
        )

    def _commit_child(self, child: int, now: float) -> None:
        """Record the new edge in the ground-truth tree."""
        tree = self.env.tree
        if tree.is_present(child) and tree.is_attached(child):
            tree.reparent(child, self.node_id, now)
        else:
            tree.attach(child, self.node_id, now)

    def handle_tell(self, sender: int, msg: Message) -> None:
        if isinstance(msg, LeaveNotice):
            if sender == self.parent:
                self.parent = None
                self.on_parent_lost()
            return
        if isinstance(msg, ParentChange):
            self.parent = msg.new_parent
            self.grandparent = msg.new_grandparent
            for child in sorted(self.children):
                self.env.tell(
                    self.node_id, child, GrandparentChange(new_grandparent=msg.new_parent)
                )
            return
        if isinstance(msg, GrandparentChange):
            self.grandparent = msg.new_grandparent
            return
        if isinstance(msg, ChildRemove):
            self.children.pop(sender, None)
            return
        if isinstance(msg, FailoverAttach):
            # A precomputed-failover switch committed the registry edge
            # locally at the orphan; sync our child table to it.
            self._reconcile_children()
            return
        raise TypeError(f"unexpected tell {type(msg).__name__}")


# --------------------------------------------------------------------------
# The shared join loop
# --------------------------------------------------------------------------


class JoinProcess:
    """One iterative join/reconnect/refinement attempt.

    Implements the query-pivot -> probe-children -> decide loop shared by
    all tree-based protocols here.  The protocol's brain is
    :meth:`OverlayAgent.join_decision`; this class supplies the plumbing:
    sequential iterations, parallel child probes, timeout recovery
    (restart at the source), rejection redirects, and commit semantics
    (fresh attach vs atomic parent switch for refinement).

    .. note:: The *decision* is not here: it is the join kernel
       (:mod:`repro.core.join`), which the batched multi-replication
       engine calls too.  The *loop* is still mirrored: ``sim/batched.py``
       re-implements the plumbing as flat heap events, and its
       bit-exactness contract is this file's semantics — every RNG draw,
       message count, and tie-break in the same order.  Touch the join
       loop, :meth:`_probe_children`, :meth:`_redirect_after_reject`, or
       :meth:`OverlayAgent._handle_conn_request` and the mirrored code in
       ``sim/batched.py`` (``_iterate`` / ``_probe_children`` /
       ``_redirect`` / ``_handle_conn``) must change in lock-step;
       ``tests/test_batched_engine.py`` and the benchmark's
       ``sim_digest`` will catch a drift.
    """

    MAX_ITERATIONS = 64
    MAX_RESTARTS = 3
    #: probes averaged per distance estimate during refinement (off the
    #: critical path, so a steadier estimate is affordable and prevents
    #: noise-driven parent thrashing).
    REFINE_PROBE_SAMPLES = 3

    def __init__(self, agent: OverlayAgent, start_node: int, *, kind: str) -> None:
        if kind not in ("join", "reconnect", "refine", "switch"):
            raise ValueError(f"unknown join kind {kind!r}")
        self.agent = agent
        self.env = agent.env
        self.kind = kind
        self.probe_samples = (
            self.REFINE_PROBE_SAMPLES if kind == "refine" else 1
        )
        self.start_node = start_node
        self.started_at = self.env.sim.now
        self.iterations = 0
        self.restarts = 0
        self.cancelled = False
        self.finished = False

    # -- control ---------------------------------------------------------------

    def start(self) -> None:
        self._iterate(self.start_node)

    def cancel(self) -> None:
        self.cancelled = True

    def _done(self, succeeded: bool) -> None:
        if self.finished:
            return
        self.finished = True
        self.env.record_join(
            JoinRecord(
                node=self.agent.node_id,
                kind=self.kind,
                started_at=self.started_at,
                completed_at=self.env.sim.now,
                succeeded=succeeded,
                iterations=self.iterations,
            )
        )
        if self.agent.active_process is self:
            self.agent.active_process = None
        if succeeded:
            self.agent.on_connected()

    def _restart_at_source(self) -> None:
        self.restarts += 1
        if self.restarts > self.MAX_RESTARTS:
            self._done(False)
            return
        self._iterate(self.env.source)

    # -- the loop ------------------------------------------------------------------

    def _iterate(self, pivot: int) -> None:
        if self.cancelled or self.finished:
            return
        self.iterations += 1
        if self.iterations > self.MAX_ITERATIONS:
            self._done(False)
            return
        me = self.agent.node_id
        if pivot == me:
            self._restart_at_source()
            return

        def on_reply(reply: Message) -> None:
            if self.cancelled or self.finished:
                return
            assert isinstance(reply, InfoResponse)
            self._probe_children(pivot, reply)

        def on_timeout() -> None:
            if self.cancelled or self.finished:
                return
            self._restart_at_source()

        self.env.request(
            me, pivot, _INFO_WITH_CHILDREN, on_reply, on_timeout
        )

    def _probe_children(self, pivot: int, info: InfoResponse) -> None:
        # Mirrored (with the request/timeout legs elided where provably
        # equivalent) by repro.sim.batched._Emulator._probe_children.
        me = self.agent.node_id
        tree = self.env.tree
        if tree.children.get(me):
            candidates = [
                ci
                for ci in info.children
                if ci.node_id != me and not tree.is_descendant(ci.node_id, me)
            ]
        else:
            # No committed children: nobody lies below us, skip the walks.
            candidates = [ci for ci in info.children if ci.node_id != me]
        if not candidates:
            self._decide(pivot, info, {})
            return

        results: dict[int, tuple[float, ChildInfo]] = {}
        outstanding = {ci.node_id for ci in candidates}

        def finish_one(child_info: ChildInfo, reply: Message | None) -> None:
            if self.cancelled or self.finished:
                return
            child = child_info.node_id
            if child not in outstanding:
                return
            outstanding.discard(child)
            if reply is not None:
                assert isinstance(reply, InfoResponse)
                dist = self.env.virtual_distance(
                    me, child, samples=self.probe_samples
                )
                # The probe reply carries the child's own free degree,
                # fresher than the parent's cached view.
                if reply.free_degree != child_info.free_degree:
                    child_info = ChildInfo(
                        child, child_info.distance, reply.free_degree
                    )
                results[child] = (dist, child_info)
            if not outstanding:
                self._decide(pivot, info, results)

        for ci in candidates:
            self.env.request(
                me,
                ci.node_id,
                _INFO_PROBE,
                lambda reply, ci=ci: finish_one(ci, reply),
                lambda ci=ci: finish_one(ci, None),
            )

    def _decide(
        self,
        pivot: int,
        info: InfoResponse,
        probes: dict[int, tuple[float, ChildInfo]],
    ) -> None:
        me = self.agent.node_id
        dist_to_pivot = self.env.virtual_distance(
            me, pivot, samples=self.probe_samples
        )
        decision = self.agent.join_decision(pivot, dist_to_pivot, info, probes)
        if isinstance(decision, Descend):
            self._iterate(decision.child)
        elif isinstance(decision, Attach):
            self._request_connection(ConnRequest(kind="attach"), decision.target)
        elif isinstance(decision, Insert):
            self._request_connection(
                ConnRequest(kind="insert", adopt=decision.adopt), decision.target
            )
        else:  # pragma: no cover - defensive
            raise TypeError(f"bad decision {decision!r}")

    # -- commit -------------------------------------------------------------------

    def _request_connection(self, msg: ConnRequest, target: int) -> None:
        me = self.agent.node_id
        if self.kind in ("refine", "switch"):
            if target == self.agent.parent:
                # Refinement found the current parent again: nothing to do.
                self._done(True)
                return
            if not self.agent.accept_refine_target(target):
                self._done(True)
                return
        if target == me or self.env.tree.is_descendant(target, me):
            self._restart_at_source()
            return

        def on_reply(reply: Message) -> None:
            if self.cancelled or self.finished:
                return
            assert isinstance(reply, ConnResponse)
            if reply.accepted:
                self._commit(target, reply)
            else:
                self._redirect_after_reject(target, reply)

        def on_timeout() -> None:
            if self.cancelled or self.finished:
                return
            self._restart_at_source()

        self.env.request(me, target, msg, on_reply, on_timeout)

    def _commit(self, new_parent: int, resp: ConnResponse) -> None:
        agent = self.agent
        old_parent = agent.parent
        if old_parent is not None and old_parent != new_parent:
            # Refinement/adoption switch: make-before-break, so tell the
            # old parent we are gone (the registry edge was already moved
            # by the accepting parent).
            self.env.tell(agent.node_id, old_parent, ChildRemove())
        agent.parent = new_parent
        agent.grandparent = resp.parent
        for child in resp.transferred:
            agent.children[child] = self.env.virtual_distance(agent.node_id, child)
            self.env.tell(
                agent.node_id,
                child,
                ParentChange(new_parent=agent.node_id, new_grandparent=new_parent),
            )
        # Our surviving children now have a new grandparent; keep their
        # reconnection state fresh (Section 3.2: grandparent information
        # "should be updated" on parent changes).
        for child in sorted(agent.children):
            if child not in resp.transferred:
                self.env.tell(
                    agent.node_id,
                    child,
                    GrandparentChange(new_grandparent=new_parent),
                )
        self._done(True)

    def _redirect_after_reject(self, target: int, resp: ConnResponse) -> None:
        """Degree race: pick the closest free child, else descend."""
        me = self.agent.node_id
        tree = self.env.tree
        nxt = closest_free_else_closest(
            [
                (ci.distance, ci.node_id, ci.free_degree)
                for ci in resp.children
                if ci.node_id != me and not tree.is_descendant(ci.node_id, me)
            ]
        )
        if nxt is None:
            self._restart_at_source()
            return
        self._iterate(nxt[1])
