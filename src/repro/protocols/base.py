"""Agent framework and protocol runtime.

Everything the overlay protocols share lives here:

* :class:`ProtocolRuntime` — binds agents to the simulator and the
  underlay; delivers control messages with real propagation delay, handles
  timeouts to departed peers, counts every control message (the numerator
  of the paper's overhead metric, eq. 3.6), and records join/reconnect
  durations (the startup-time and reconnection-time metrics of Chapter 5).
* :class:`OverlayAgent` — per-node protocol state and the handlers for
  the shared message vocabulary.  It has no subclasses: what differs
  between VDM, HMTP, BTP and MST is a row of the protocol table
  (:class:`~repro.protocols.table.ProtocolSpec`), which the agent reads.
* :class:`JoinProcess` — the join loop every protocol follows
  (:class:`~repro.core.joinloop.JoinLoop`) over the runtime's messages;
  the row's ``decide`` is the only protocol-specific step.

The ground-truth tree, :class:`~repro.protocols.tree.TreeRegistry`, lives
in :mod:`repro.protocols.tree` and is re-exported here.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from typing import Callable

import numpy as np

from repro.core.join import Attach, Descend, Insert
from repro.core.joinloop import JoinLoop, JoinRecord, admit, reconcile
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
from repro.protocols.table import ProtocolSpec, protocol_spec
from repro.protocols.tree import TreeRegistry
from repro.sim.engine import Event, Simulator
from repro.sim.network import Underlay
from repro.util.rngtools import RngLike, rng_from_seed
from repro.util.validation import (
    check_count,
    check_finite,
    check_non_negative,
    check_positive,
)

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
        if samples != 1 or samples is True:
            # Refinement's plain int 3 skips the call too.
            if type(samples) is not int or samples < 1:
                check_count("samples", samples)
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


#: the row of an agent built without one
_PLAIN_VDM = protocol_spec("vdm")

# Interned payloads: immutable values sent hundreds of thousands of times
# per run — one instance each is enough.
_INFO_WITH_CHILDREN = InfoRequest(want_children=True)
_INFO_PROBE = InfoRequest(want_children=False)
_ATTACH = ConnRequest(kind="attach")
_CHILD_REMOVE = ChildRemove()
_LEAVE_NOTICE = LeaveNotice()

#: probes averaged per distance estimate during refinement (off the
#: critical path, so a steadier estimate is affordable and prevents
#: noise-driven parent thrashing).
REFINE_PROBE_SAMPLES = 3

# ``tuple.__new__(Cls, values)`` builds a NamedTuple without the frame of
# its generated ``__new__``; the hottest construction sites use it.
_new_tuple = tuple.__new__


# --------------------------------------------------------------------------
# Agents
# --------------------------------------------------------------------------


class OverlayAgent:
    """Per-node protocol state plus the handlers for shared messages.

    ``protocol`` is the agent's row of the protocol table (plain VDM when
    omitted); every protocol-specific step reads it.

    ``degree_limit`` is the maximum number of children this node will
    accept — the paper's "degree limit", derived from uplink bandwidth.

    ``rng`` is anything :func:`~repro.util.rngtools.rng_from_seed` accepts;
    it becomes a generator only if the protocol draws (see :attr:`rng`).
    """

    def __init__(
        self,
        node_id: int,
        env: ProtocolRuntime,
        *,
        degree_limit: int = 4,
        protocol: ProtocolSpec | None = None,
        rng: RngLike = None,
    ) -> None:
        self.node_id = node_id
        self.env = env
        self.degree_limit = check_count("degree_limit", degree_limit)
        self.protocol = protocol if protocol is not None else _PLAIN_VDM
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
        (VDM only under ``case3_selection="random"``, HMTP to pick its
        refinement start), so the join sites
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
        """A rejection's children, sorted by id, with their free degrees."""
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
            infos.append(_new_tuple(ChildInfo, (child, dist, free)))
        return tuple(infos)

    # -- lifecycle ---------------------------------------------------------------

    def start_join(self, *, kind: str = "join", at: int | None = None) -> None:
        """Begin the iterative join process (from the source by default;
        the row's ``join_start`` overrides ``at``).

        With the row's foster-child quick start (HMTP's concept, Section
        2.4.7: "A node connects root at the beginning to start stream
        immediately.  Then, it jumps to ideal parent when it is found."),
        a fresh join first grabs any free slot at the source and then
        optimizes its placement in the background.
        """
        row = self.protocol
        if row.join_start is not None:
            at = row.join_start(self)
        if self.is_source:
            raise ValueError("the source does not join")
        self.cancel_active_process()
        start = at if at is not None else self.env.source
        if kind == "join" and self.parent is None and row.foster_child:
            self._foster_attach(start)
            return
        self._run_join(kind, start, self.env.sim.now)

    def _run_join(self, kind: str, start: int, started_at: float) -> None:
        process = JoinProcess(self.node_id, self, self.env.source, kind, started_at)
        self.active_process = process
        process.query(process.ask(start))

    def _foster_attach(self, start: int) -> None:
        """Foster-child quick start: attach at the source immediately,
        then run the regular join as a background parent switch."""
        me = self.node_id
        src = self.env.source
        started_at = self.env.sim.now

        def on_reply(reply: Message) -> None:
            if not isinstance(reply, ConnResponse) or not reply.accepted:
                on_timeout()
                return
            self.parent = src
            self.grandparent = reply.parent
            now = self.env.sim.now
            self.env.record_join(JoinRecord(me, "join", started_at, now, True, 1))
            # "switch" runs the protocol's *full* join logic but commits
            # as an atomic parent change (the foster node already has a
            # stream); plain "refine" would trigger HMTP's one-level rule.
            self._run_join("switch", start, now)

        def on_timeout() -> None:
            self._run_join("join", start, started_at)

        self.env.request(me, src, _ATTACH, on_reply, on_timeout)

    def leave(self) -> None:
        """Gracefully leave: notify children and parent, then go dark."""
        if self.is_source:
            raise ValueError("the source cannot leave")
        self.cancel_active_process()
        self.stop_refinement()
        for child in sorted(self.children):
            self.env.tell(self.node_id, child, _LEAVE_NOTICE)
        if self.parent is not None:
            self.env.tell(self.node_id, self.parent, _CHILD_REMOVE)
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

    # -- recovery ------------------------------------------------------------------

    def on_parent_lost(self) -> None:
        """Parent-death handling: with precomputed failover enabled
        (``env.failover``), a valid backup parent absorbs the orphan
        locally; otherwise (or when the backup fails revalidation) the
        join restarts where the row's ``reconnect_at`` says — the
        grandparent (Section 3.3; the source when unknown) or the source.
        """
        manager = self.env.failover
        if manager is not None and manager.try_switch(self.node_id):
            return
        source = self.env.source
        target = source
        if self.protocol.reconnect_at == "grandparent":
            target = self.grandparent if self.grandparent is not None else source
            if target == self.node_id:
                target = source
        self.start_join(kind="reconnect", at=target)

    def backup_parent_ok(self, candidate: int, candidate_children: set[int]) -> bool:
        """The row's veto on a precomputed backup parent the failover
        manager proposes (an ancestor, safe for any tree protocol without
        directionality constraints); VDM's is its direction filter."""
        row = self.protocol
        return row.backup_ok is None or row.backup_ok(
            row, self, candidate, candidate_children
        )

    # -- refinement ------------------------------------------------------------------

    def start_refinement(self, period_s: float, *, jitter_rng=None) -> None:
        """Arm the periodic refinement timer (Section 3.4)."""
        check_positive("period_s", check_finite("period_s", period_s))
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
        if self.node_id not in self.env._alive:
            return
        self._refine_event = self.env.sim.schedule_in(
            self._refine_period, self._refine_tick, label="refine"
        )
        # Only refine while attached and idle; a node mid-reconnect must
        # not preempt its recovery with a refinement probe.
        if self.parent is None or self.active_process is not None:
            return
        start = self.protocol.refine_start
        self._run_join(
            "refine", self.env.source if start is None else start(self),
            self.env.sim.now,
        )

    # -- message handlers -----------------------------------------------------------

    def handle_request(self, sender: int, msg: Message) -> Message | None:
        # Exact type checks: the message vocabulary has no subclasses, and
        # this dispatch runs once per request in a session.
        if type(msg) is InfoRequest:
            # A pivot sends its (child, distance) pairs; each child's free
            # degree comes back in that child's own probe reply.
            children = tuple(sorted(self.children.items())) if msg.want_children else ()
            return _new_tuple(
                InfoResponse, (self.node_id, self.free_degree, self.parent, children)
            )
        if type(msg) is ConnRequest:
            return self._handle_conn_request(sender, msg)
        raise TypeError(f"unexpected request {type(msg).__name__}")

    def _reconcile_children(self) -> None:
        """Re-sync the local child table with the ground-truth registry
        (:func:`~repro.core.joinloop.reconcile`)."""
        env = self.env
        me = self.node_id
        reconcile(
            self.children,
            env.tree.children.get(me, set()),
            lambda child: env.virtual_distance(me, child),
        )

    def _handle_conn_request(self, sender: int, msg: ConnRequest) -> ConnResponse:
        """Accept or reject by :func:`~repro.core.joinloop.admit`, and
        commit an accepted edge now, at request delivery."""
        env = self.env
        tree = env.tree
        me = self.node_id
        self._reconcile_children()
        adopt = msg.adopt if msg.kind == "insert" else None
        sender_agent = env.agents.get(sender)
        moved = admit(
            tree, me, self.free_degree, self.children, sender, adopt, env._alive,
            None if sender_agent is None else sender_agent.degree_limit,
        )
        if moved is None:
            # The rejection carries our children, so the sender can redirect.
            return ConnResponse(
                accepted=False, node_id=me, parent=self.parent,
                children=self.child_info(),
            )
        dist = env.virtual_distance(me, sender)
        now = env.sim.now
        if adopt is None:
            self.children[sender] = dist
            self._commit_child(sender, now)
        else:
            tree.insert(sender, me, moved, now)
            self.children[sender] = dist
            for child in moved:
                del self.children[child]
        return ConnResponse(
            accepted=True, node_id=me, parent=self.parent, transferred=moved
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
# The join loop's message driver
# --------------------------------------------------------------------------


class JoinProcess(JoinLoop):
    """One join/reconnect/refine/switch attempt over the runtime's messages.

    The loop's rules are :class:`~repro.core.joinloop.JoinLoop`'s and the
    decision is the row's ``decide``; this class is their transport: the
    pivot query and the parallel child probes as ``env.request``
    exchanges, a timeout as a restart at the source, and the commit's
    tells (make-before-break for a switch).
    """

    __slots__ = ()

    def query(self, pivot: int | None) -> None:
        """Ask ``pivot`` for its children; ``None`` (a spent budget)
        files the attempt as failed."""
        if pivot is None:
            self._done(False)
            return
        self.agent.env.request(
            self.node, pivot, _INFO_WITH_CHILDREN, self._probe_children,
            self._timed_out,
        )

    def _timed_out(self) -> None:
        if not (self.cancelled or self.finished):
            self.query(self.restart())

    def _done(self, succeeded: bool) -> None:
        env = self.agent.env
        env.record_join(self.finish(succeeded, env.sim.now))

    def _probe_children(self, info: InfoResponse) -> None:
        """The pivot's reply: probe every child the joiner may take, one
        :class:`_ProbeRound` for all of them."""
        if self.cancelled or self.finished:
            return
        env = self.agent.env
        candidates = self.candidates(info.children, env.tree)
        if not candidates:
            self._decide(info, {})
            return
        round_ = _ProbeRound(self, info, candidates)
        me = self.node
        reply = round_.reply
        timeout = round_.timeout
        for child, _ in candidates:
            env.request(me, child, _INFO_PROBE, reply, partial(timeout, child))

    def _decide(
        self, info: InfoResponse, probes: dict[int, tuple[float, ChildInfo]]
    ) -> None:
        agent = self.agent
        pivot = info.node_id
        dist_to_pivot = agent.env.virtual_distance(
            self.node, pivot,
            samples=REFINE_PROBE_SAMPLES if self.kind == "refine" else 1,
        )
        row = agent.protocol
        decision = row.decide(row, agent, pivot, dist_to_pivot, info, probes)
        if isinstance(decision, Descend):
            self.query(self.ask(decision.child))
        elif isinstance(decision, Attach):
            self._connect(decision.target, _ATTACH)
        elif isinstance(decision, Insert):
            self._connect(
                decision.target, ConnRequest(kind="insert", adopt=decision.adopt)
            )
        else:  # pragma: no cover - defensive
            raise TypeError(f"bad decision {decision!r}")

    # -- commit -------------------------------------------------------------------

    def _connect(self, target: int, msg: ConnRequest) -> None:
        agent = self.agent
        env = agent.env
        if self.keeps_parent(
            target, agent.parent, agent.protocol.strictly_closer, env.virtual_distance
        ):
            self._done(True)
            return
        if not self.may_connect(target, env.tree):
            self.query(self.restart())
            return

        def on_reply(reply: ConnResponse) -> None:
            if self.cancelled or self.finished:
                return
            if reply.accepted:
                self._commit(target, reply)
            else:
                self.query(self.redirect(reply.children, env.tree))

        env.request(self.node, target, msg, on_reply, self._timed_out)

    def _commit(self, new_parent: int, resp: ConnResponse) -> None:
        agent = self.agent
        env = agent.env
        me = self.node
        old_parent = agent.parent
        if old_parent is not None and old_parent != new_parent:
            # Refinement/adoption switch: make-before-break, so tell the
            # old parent we are gone (the registry edge was already moved
            # by the accepting parent).
            env.tell(me, old_parent, _CHILD_REMOVE)
        agent.parent = new_parent
        agent.grandparent = resp.parent
        for child in resp.transferred:
            agent.children[child] = env.virtual_distance(me, child)
            env.tell(
                me, child, ParentChange(new_parent=me, new_grandparent=new_parent)
            )
        # Our surviving children now have a new grandparent; keep their
        # reconnection state fresh (Section 3.2: grandparent information
        # "should be updated" on parent changes).
        for child in sorted(agent.children):
            if child not in resp.transferred:
                env.tell(me, child, GrandparentChange(new_grandparent=new_parent))
        self._done(True)


class _ProbeRound:
    """One pivot's child probes in flight: ``outstanding`` maps each child
    not yet filed to the pivot's distance to it, ``probes`` each answered
    child to its measured distance and :class:`ChildInfo` (with the free
    degree its reply carried).  :meth:`reply` serves every probe (the
    child is the reply's ``node_id``), :meth:`timeout` is bound per child,
    and the last child filed decides; a duplicated or late reply finds its
    child filed already and does nothing."""

    __slots__ = ("process", "info", "samples", "outstanding", "probes")

    def __init__(self, process: JoinProcess, info: InfoResponse, candidates) -> None:
        self.process = process
        self.info = info
        self.samples = REFINE_PROBE_SAMPLES if process.kind == "refine" else 1
        self.outstanding: dict[int, float] = dict(candidates)
        self.probes: dict[int, tuple[float, ChildInfo]] = {}

    def reply(self, reply: InfoResponse) -> None:
        process = self.process
        if process.cancelled or process.finished:
            return
        child = reply.node_id
        d_pivot = self.outstanding.pop(child, None)
        if d_pivot is None:
            return
        dist = process.agent.env.virtual_distance(
            process.node, child, samples=self.samples
        )
        self.probes[child] = (
            dist, _new_tuple(ChildInfo, (child, d_pivot, reply.free_degree))
        )
        if not self.outstanding:
            process._decide(self.info, self.probes)

    def timeout(self, child: int) -> None:
        process = self.process
        if process.cancelled or process.finished:
            return
        if self.outstanding.pop(child, None) is not None and not self.outstanding:
            process._decide(self.info, self.probes)
