"""Batched multi-replication engine.

The scalar stack (:mod:`repro.sim.engine` + :mod:`repro.protocols.base` +
:mod:`repro.sim.session`) executes one Python callback per event: every
control message allocates a closure, a ``Message`` dataclass, and usually
an :class:`~repro.sim.engine.Event`, and every delivery walks several
layers of runtime dispatch.  A ``paper``-preset sweep pays that
interpreter cost 32 times over for 32 independent replications of the
same recipe.  This module removes the per-event object machinery for the
dominant workload — plain VDM sessions without faults, probe noise, or
refinement — while keeping the scalar engine as the bit-exactness oracle.

How the speedup is obtained
---------------------------
* **Lean op tuples instead of callbacks.**  Each replication runs a
  private event heap of ``(time, priority, seq, op, payload)`` tuples.
  ``seq`` mirrors the scalar simulator's sequence counter one for one
  (every scalar ``schedule*`` call has exactly one counterpart here), so
  tuple comparison — and therefore event order — is identical to the
  scalar engine's ``(time, priority, seq)`` key.  No ``Event``, closure,
  or ``Message`` object is allocated on the hot path; the continuation
  state a scalar closure would capture rides in the payload tuple.
* **Timeout elision.**  The scalar runtime (``ProtocolRuntime.request``)
  reserves a request's timeout seq at send and queues the timeout only
  once it is owed: the target was dead at send or at request delivery,
  or the requester is gone when the reply lands.  Under the envelope
  below (``2 x max one-way delay`` strictly below the timeout) those are
  the only cases, and in the last one ``fire_timeout`` finds the
  requester dead and does nothing.  The batched engine therefore
  consumes the timeout's seq at send, as the scalar engine does, and
  pushes a heap entry only in the two cases that can act.
  ``events_processed`` diverges (the inert timeouts never pop), which is
  output-neutral: its only consumer is the agent-RNG spawn key, and a
  plain VDM agent (``case3_selection="closest"``) never draws that RNG.
* **One ARRIVE per probe request.**  A probe round pushes one entry per
  live child at the scalar request-arrival key; the reply leg's seq is
  taken there, and the last arrival queues the round's DECIDE at the
  scalar key of its last terminal (see :meth:`_Emulator._probe_children`).
* **Cell-level sharing.**  All replications of one sweep cell share the
  underlay (:class:`BatchedCell`), and every agent reads the underlay's
  own host delay row (``Underlay.delay_row``, in ms, read-only) instead
  of a converted copy.  Each read site applies the scalar runtime's
  arithmetic at use — ``row[x] / 1000.0`` for a send, as
  ``ProtocolRuntime.tell`` and ``request`` do, and ``2.0 * row[x]`` for
  a virtual distance, as ``Underlay.rtt_ms`` does — so every float is
  the scalar engine's, and the figure path holds one copy of each row.
* **No invariant checker.**  The checker is a pure observer (it schedules
  nothing and draws no RNG), so dropping it cannot change results on
  violation-free runs — and a violating run is a bug either way.

What stays real
---------------
The tree, the delivery ledger and the metrics are the message engine's
own objects: each replication mutates a
:class:`~repro.protocols.tree.TreeRegistry` through its public API, a
:class:`~repro.sim.delivery.DeliveryAccountant` listens to it, and every
measurement goes through :func:`~repro.sim.session.take_measurement`
(the accountant's window snapshot and link multiset, and
:func:`~repro.metrics.collectors.collect_tree_metrics`).  The result's
``accountant`` is that accountant, answering every query a scalar
result's does.  :func:`~repro.sim.session.session_schedule`,
:class:`~repro.sim.churn.SlottedChurnModel`,
:func:`~repro.sim.session.draw_degree` and the join loop's rules
(:class:`~repro.core.joinloop.JoinLoop`, :func:`~repro.core.joinloop.admit`)
are reused as-is.  All RNG streams
(:func:`~repro.util.rngtools.spawn_rng` keyed exactly as the session
spawns them) are consumed in the same order, so results match the
serial and parallel harness paths bit for bit.  ``REPRO_BATCHED_REPS=0``
(:func:`repro.util.envflags.batched_on`) disables the batched path
entirely and is the ablation oracle the byte-identity CI step runs.

Sessions outside the envelope — see :func:`envelope_decline` for the
protocol row and session config, :class:`BatchedCell` for the underlay —
fall back to the scalar path (:mod:`repro.harness.batchrun`), so
enabling batching is always safe.
"""

from __future__ import annotations

import heapq
import math

from repro.core.join import Descend, Insert, split_cases, vdm_decide
from repro.core.joinloop import JoinLoop, JoinRecord, admit, reconcile
from repro.core.vdm import VDMConfig
from repro.metrics.report import MeasurementRecord
from repro.protocols.table import ProtocolSpec, protocol_spec
from repro.protocols.tree import TreeRegistry
from repro.sim.churn import SlottedChurnModel
from repro.sim.delivery import DeliveryAccountant
from repro.sim.faults import resolve_fault_plan
from repro.sim.session import (
    SessionConfig,
    SessionResult,
    draw_degree,
    paused_gc,
    session_schedule,
    take_measurement,
)
from repro.util.rngtools import spawn_rng

__all__ = ["BatchedUnsupported", "BatchedCell", "envelope_decline"]


class BatchedUnsupported(Exception):
    """The session falls outside the batched engine's exactness envelope.

    Raised before any simulation state is touched; callers fall back to
    the scalar engine, which handles every configuration.
    """


def envelope_decline(
    row: ProtocolSpec, cfg: SessionConfig | None = None
) -> tuple[str, str] | None:
    """Why the emulator cannot run ``row`` — in session ``cfg``, when
    given — exactly: a ``(code, detail)`` pair, or ``None`` if it can.

    Reads only the row and the session config, so a caller can decline
    before it builds an underlay or a :class:`BatchedCell`.
    """
    if row.name != "vdm":
        return "protocol", f"only the 'vdm' row can batch, got {row.name!r}"
    if row.config.case3_selection != "closest":
        return "config", "random Case III selection draws the agent RNG"
    if row.foster_child:
        return "config", "foster-child quick start not emulated"
    if row.refine_period_s is not None:
        return "refinement", "refinement not emulated"
    if cfg is None:
        return None
    if cfg.measurement_noise_sigma != 0.0:
        return "probe-noise", "probe noise draws the shared noise RNG"
    if cfg.refine_period_s is not None:
        return "refinement", "refinement not emulated"
    if cfg.failover != "reactive":
        return "failover", "precomputed failover not emulated"
    plan = resolve_fault_plan(cfg.faults)
    if plan is not None and not plan.is_noop():
        return "faults", "fault plans not emulated"
    return None


# Op codes for the per-replication heap.  ``seq`` is unique per heap, so
# tuple comparison never reaches the op — the codes only drive dispatch.
_OP_JOIN = 0
_OP_LEAVE = 1
_OP_SLOT = 2
_OP_MEASURE = 3
_OP_TELL = 4
_OP_INFO_REQ = 5
_OP_INFO_REPLY = 6
_OP_ARRIVE = 7
_OP_CONN_REQ = 8
_OP_CONN_REPLY = 9
_OP_TIMEOUT_RESTART = 10
_OP_DECIDE = 11

# Tell kinds (mirror the scalar message vocabulary that survives the
# envelope: LeaveNotice / ChildRemove / ParentChange / GrandparentChange).
_TELL_LEAVE = 0
_TELL_CHILD_REMOVE = 1
_TELL_PARENT_CHANGE = 2
_TELL_GP_CHANGE = 3

#: Safety margin (seconds) on the timeout envelope: the reply lands at
#: ``(t0 + d) + d`` and the timeout at ``t0 + timeout_s``, so equality
#: would need ``timeout_s - 2d`` to vanish under the rounding of two
#: additions near ``t0``.  At simulation horizons up to 1e6 s an ulp is
#: ~1e-10 s; a millisecond of slack is astronomically conservative.
_TIMEOUT_MARGIN_S = 1e-3


class _Agent:
    """One node's protocol state in the emulator.

    The fields of :class:`~repro.protocols.base.OverlayAgent` the
    envelope can reach: no refinement timer, no per-agent RNG (never
    drawn by plain VDM), no foster state.  ``row``
    is the underlay's own ``delay_row(node)`` list (ms, never written):
    the hot send/decide paths index it directly, dividing by 1000 for a
    send delay and doubling for a virtual distance.
    """

    __slots__ = (
        "degree_limit",
        "parent",
        "grandparent",
        "children",
        "active_process",
        "row",
        "csort",
    )

    def __init__(self, degree_limit: int, row: list[float]) -> None:
        self.degree_limit = degree_limit
        self.parent: int | None = None
        self.grandparent: int | None = None
        #: child id -> virtual distance measured when the child connected.
        self.children: dict[int, float] = {}
        self.active_process: JoinLoop | None = None
        self.row = row  # the underlay's one-way delay row of this node, in ms
        #: memo of ``sorted(children.items())`` — reset to None at every
        #: children mutation and never written in place, so an INFO_REPLY
        #: carries it as the pivot's snapshot; rebuilt lazily where read.
        self.csort: list[tuple[int, float]] | None = None


class BatchedCell:
    """Shared per-sweep-cell state: one underlay, many replications.

    Validates the underlay/protocol half of the exactness envelope once;
    per-config checks happen in :meth:`check_config`.  The cell keeps no
    row store of its own: every replication's agents hold the underlay's
    ``delay_row`` lists, which the underlay already keeps.
    """

    def __init__(self, underlay, vdm_config: VDMConfig | None = None) -> None:
        self.row = protocol_spec("vdm", vdm_config)
        self.check_config()
        self.underlay = underlay
        self.hosts = list(underlay.hosts)
        if not self.hosts:
            raise BatchedUnsupported("underlay has no hosts")
        if underlay.delay_row(self.hosts[0]) is None:
            raise BatchedUnsupported(
                "underlay serves no host-indexed delay rows (host ids must "
                "be indices and every pair reachable)"
            )
        if not getattr(underlay, "zero_error", False):
            raise BatchedUnsupported(
                "underlay carries link errors; the emulator is held equal "
                "to the scalar engine on loss-free underlays only"
            )
        max_delay = -math.inf
        min_delay = math.inf
        for host in self.hosts:
            row = underlay.delay_row(host)
            if row is None:
                raise BatchedUnsupported("underlay delay rows are partial")
            max_delay = max(max_delay, max(row))
            min_delay = min(min_delay, min(row))
        if not math.isfinite(max_delay) or min_delay < 0:
            raise BatchedUnsupported("underlay delays must be finite and >= 0")
        self._max_delay_ms = max_delay

    # -- envelope ------------------------------------------------------------

    def check_config(self, cfg: SessionConfig | None = None) -> None:
        """Raise :class:`BatchedUnsupported` unless the cell's row — in
        session ``cfg``, when given — is emulated exactly."""
        declined = envelope_decline(self.row, cfg)
        if declined is not None:
            raise BatchedUnsupported(declined[1])
        if cfg is None:
            return
        timeout_s = cfg.timeout_ms / 1000.0
        if not 2.0 * (self._max_delay_ms / 1000.0) < timeout_s - _TIMEOUT_MARGIN_S:
            raise BatchedUnsupported(
                "timeout elision needs 2*max_delay strictly below timeout_ms"
            )

    # -- running ------------------------------------------------------------

    def run_session(self, cfg: SessionConfig) -> SessionResult:
        """Run one replication; result matches ``MulticastSession.run()``.

        ``runtime`` is ``None`` in the returned result: the metric
        extractors consume records/join_records/config/accountant only.
        """
        self.check_config(cfg)
        return _Emulator(self, cfg).run()


class _Emulator:
    """One replication's event loop over the session's own
    :class:`~repro.sim.session.SessionSchedule`; mirrors the protocol
    runtime for the envelope's message flows, seq for seq."""

    def __init__(self, cell: BatchedCell, cfg: SessionConfig) -> None:
        self.cell = cell
        self.cfg = cfg
        self.schedule = session_schedule(cfg, cell.hosts)
        self.source = self.schedule.source
        self._rng_degrees = spawn_rng(cfg.seed, "degrees")
        self.now = 0.0
        self._seq = 0
        self._heap: list[tuple] = []
        self._timeout_s = cfg.timeout_ms / 1000.0
        # The message engine's own tree, with its delivery accountant.
        self.tree = TreeRegistry(self.source)
        self.accountant = DeliveryAccountant(
            self.tree, cell.underlay, chunk_rate=cfg.chunk_rate
        )
        self.agents: dict[int, _Agent] = {}
        self._alive: set[int] = set()
        self._active: set[int] = set()
        #: single control-message total (the scalar runtime counts per
        #: class; measurements consume only the sum).
        self.control = 0
        self.join_records: list[JoinRecord] = []
        self._records: list[MeasurementRecord] = []
        self._churn = SlottedChurnModel.from_config(cfg)
        # The degree draw consumes the degrees stream unless source_degree
        # pins it, as the session's source registration does.
        degree = cfg.source_degree
        if degree is None:
            degree = draw_degree(cfg.degree, self._rng_degrees)
        self.agents[self.source] = _Agent(
            int(degree), cell.underlay.delay_row(self.source)
        )
        self._alive.add(self.source)

    # Every site below reads ``agent.row`` (ms) with the scalar runtime's
    # own arithmetic: ``row[x] / 1000.0`` is the send delay in seconds,
    # and ``2.0 * row[x]`` the virtual distance with sigma=0, which is
    # ``underlay.rtt_ms(a, b)`` bit for bit (doubling only bumps the
    # float64 exponent).

    # -- sends -----------------------------------------------------------------
    #
    # Heap entries are FLAT tuples ``(time, prio, seq, op, *fields)``.
    # ``seq`` is unique per heap, so tuple comparison never reads past
    # index 2 and the trailing fields are free to hold arbitrary payload
    # without a nested tuple allocation per event.

    def _tell(self, row, src: int, dst: int, kind: int, a=None, b=None) -> None:
        """``row`` is the sender's delay row (``agents[src].row``)."""
        self.control += 1
        if dst not in self._alive:
            return
        d = row[dst] / 1000.0
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap, (self.now + d, 0, seq, _OP_TELL, dst, src, kind, a, b)
        )

    def _send_info(self, proc: JoinLoop, pivot: int | None) -> None:
        """Ask ``pivot`` for its children; ``None`` (a spent budget)
        files the attempt as failed."""
        if pivot is None:
            self.join_records.append(proc.finish(False, self.now))
            return
        self.control += 1
        tseq = self._seq
        self._seq = tseq + 1
        ttime = self.now + self._timeout_s
        if pivot not in self._alive:
            heapq.heappush(
                self._heap, (ttime, 0, tseq, _OP_TIMEOUT_RESTART, proc)
            )
            return
        d = proc.agent.row[pivot] / 1000.0
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap,
            (self.now + d, 0, seq, _OP_INFO_REQ, proc, pivot, d, tseq, ttime),
        )

    def _send_conn(self, proc: JoinLoop, target: int, adopt) -> None:
        """``adopt`` is ``None`` for attach, a tuple for insert."""
        self.control += 1
        tseq = self._seq
        self._seq = tseq + 1
        ttime = self.now + self._timeout_s
        if target not in self._alive:
            heapq.heappush(
                self._heap, (ttime, 0, tseq, _OP_TIMEOUT_RESTART, proc)
            )
            return
        d = proc.agent.row[target] / 1000.0
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap,
            (self.now + d, 0, seq, _OP_CONN_REQ, proc, target, adopt, d, tseq, ttime),
        )

    # -- agent state helpers -----------------------------------------------------

    def _child_info(self, agent: _Agent) -> tuple[tuple[int, float, int], ...]:
        """The agent's ``child_info``: (id, dist, free), sorted by id."""
        agents = self.agents
        alive = self._alive
        items = agent.csort
        if items is None:
            items = agent.csort = sorted(agent.children.items())
        infos = []
        for child, dist in items:
            # An alive node always has an agent (registered at join), so
            # the scalar ``agents.get`` + alive check collapses to one
            # membership test.
            if child in alive:
                a = agents[child]
                infos.append((child, dist, a.degree_limit - len(a.children)))
            else:
                infos.append((child, dist, 0))
        return tuple(infos)

    # -- join process -------------------------------------------------------------

    def _start_join(self, node: int, agent: _Agent, kind: str, at: int) -> None:
        if agent.active_process is not None:
            agent.active_process.cancel()
        proc = JoinLoop(node, agent, self.source, kind, self.now)
        agent.active_process = proc
        self._send_info(proc, proc.ask(at))

    def _probe_children(self, proc: JoinLoop, pivot: int, pivot_free: int, kids) -> None:
        """Send one probe per candidate among the pivot's ``kids`` — its
        sorted ``(child, distance)`` list — as one ARRIVE entry each.

        The entry sits at the scalar request-arrival key, so it sees the
        child exactly as the scalar request does, and the reply's free
        degree is read there too.  The round list is the scalar closures'
        state: [proc, pivot, pivot_free, ttime, last timeout seq, last
        reply time, its seq, repliers (child, d_new, d_pivot), probes
        (d_new, child, free), requests still in flight].
        """
        candidates = proc.candidates(kids, self.tree)
        if not candidates:
            self._decide(proc, pivot, pivot_free, [], [], ())
            return
        now = self.now
        ttime = now + self._timeout_s
        alive = self._alive
        row = proc.agent.row
        # Probe sends, in the scalar per-send seq order: the timeout seq
        # first, then the request seq only when the target is alive.  The
        # requests are counted now; each reply at its request's arrival.
        self.control += len(candidates)
        round_ = [proc, pivot, pivot_free, ttime, -1, -1.0, -1, [], [], 0]
        heap = self._heap
        push = heapq.heappush
        seq = self._seq
        in_flight = 0
        for child, d_pivot_child in candidates:
            tseq = seq
            seq += 1
            if child not in alive:
                round_[4] = tseq
                continue
            d = row[child] / 1000.0
            push(
                heap,
                (now + d, 0, seq, _OP_ARRIVE,
                 round_, child, d, tseq, 2.0 * row[child], d_pivot_child),
            )
            seq += 1
            in_flight += 1
        self._seq = seq
        round_[9] = in_flight
        if not in_flight:
            self._close_round(round_)

    def _close_round(self, round_) -> None:
        """Split the round's cases and queue its DECIDE at the last
        terminal: the last timeout when a child did not answer (every
        reply lands before it), else the last reply."""
        proc, pivot, pivot_free, ttime, tseq, time, seq, replying, probes, _ = round_
        case2, case3 = split_cases(
            2.0 * proc.agent.row[pivot], replying, self.cell.row.config.tie_tolerance
        )
        if tseq >= 0:
            time, seq = ttime, tseq
        heapq.heappush(
            self._heap,
            (time, 0, seq, _OP_DECIDE, proc, pivot, pivot_free, case2, case3, probes),
        )

    def _decide(self, proc: JoinLoop, pivot, pivot_free, case2, case3, probes) -> None:
        """Ask the join kernel, and act on its answer.

        The kernel's case lists are pure static-distance arithmetic,
        split when the repliers were known; everything else — the
        joiner's adoption budget, the ``probes`` free degrees sampled at
        the scalar request-arrival instants — is live state read now,
        exactly when the scalar runtime decides.
        """
        agent = proc.agent
        config = self.cell.row.config
        budget = agent.degree_limit - len(agent.children)
        if config.max_adopt is not None:
            budget = min(budget, config.max_adopt)
        decision = vdm_decide(
            pivot, pivot_free, case2, case3, budget, probes,
            config.case_priority == "case2",
        )
        if type(decision) is Descend:
            self._send_info(proc, proc.ask(decision.child))
        elif proc.may_connect(decision.target, self.tree):
            self._send_conn(
                proc, decision.target,
                decision.adopt if type(decision) is Insert else None,
            )
        else:
            self._send_info(proc, proc.restart())

    def _handle_conn(self, node: int, sender: int, adopt):
        """The acceptor's side of a connection request, at delivery:
        :func:`~repro.core.joinloop.admit` decides and an accepted edge
        is committed then, as the scalar handler does.  Returns the reply
        payload: ``(False, children_snapshot)`` or ``(True, parent,
        transferred)``.
        """
        agent = self.agents[node]
        children = agent.children
        tree = self.tree
        row = agent.row
        if reconcile(
            children, tree.children.get(node, set()), lambda c: 2.0 * row[c]
        ):
            agent.csort = None
        # Every requester has an agent here: agents outlive their nodes.
        moved = admit(
            tree, node, agent.degree_limit - len(children), children, sender,
            adopt, self._alive, self.agents[sender].degree_limit,
        )
        if moved is None:
            return (False, self._child_info(agent))
        agent.csort = None
        children[sender] = 2.0 * row[sender]
        if adopt is not None:
            tree.insert(sender, node, moved, self.now)
            for child in moved:
                del children[child]
        # is_present and is_attached (sender is never the source): one
        # non-None parent-pointer check covers both.
        elif tree.parent.get(sender) is not None:
            tree.reparent(sender, node, self.now)
        else:
            tree.attach(sender, node, self.now)
        return (True, agent.parent, moved)

    def _commit(self, proc: JoinLoop, new_parent: int, acc_parent, transferred) -> None:
        """The joiner's side of an accepted request: its new parent, the
        children it adopted, and the tells both send."""
        me = proc.node
        agent = proc.agent
        row = agent.row
        old_parent = agent.parent
        if old_parent is not None and old_parent != new_parent:
            self._tell(row, me, old_parent, _TELL_CHILD_REMOVE)
        agent.parent = new_parent
        agent.grandparent = acc_parent
        children = agent.children
        if transferred:
            agent.csort = None
        for child in transferred:
            children[child] = 2.0 * row[child]
            self._tell(row, me, child, _TELL_PARENT_CHANGE, me, new_parent)
        for child in sorted(children):
            if child not in transferred:
                self._tell(row, me, child, _TELL_GP_CHANGE, new_parent)
        self.join_records.append(proc.finish(True, self.now))

    # -- membership ---------------------------------------------------------------

    def _do_join(self, entry) -> None:
        node = entry[4]
        if node in self._active or node == self.source:
            return
        degree = draw_degree(self.cfg.degree, self._rng_degrees)
        agent = _Agent(degree, self.cell.underlay.delay_row(node))
        self.agents[node] = agent
        self._alive.add(node)
        self._active.add(node)
        self._start_join(node, agent, "join", self.source)
        # Refinement stays unarmed: the envelope requires both the session
        # override and VDM's auto period to be None.

    def _do_leave(self, entry) -> None:
        node = entry[4]
        if node not in self._active:
            return
        agent = self.agents.get(node)
        if agent is None or node not in self._alive:
            self._active.discard(node)
            return
        self._active.discard(node)
        # OverlayAgent.leave()
        if agent.active_process is not None:
            agent.active_process.cancel()
            agent.active_process = None
        row = agent.row
        for child in sorted(agent.children):
            self._tell(row, node, child, _TELL_LEAVE)
        agent.csort = None
        if agent.parent is not None:
            self._tell(row, node, agent.parent, _TELL_CHILD_REMOVE)
        if node in self.tree.parent:
            self.tree.depart(node, self.now)
        self._alive.discard(node)
        agent.parent = None
        agent.grandparent = None
        agent.children.clear()

    def _on_parent_lost(self, node: int, agent: _Agent) -> None:
        """Restart the join where the VDM row's ``reconnect_at`` says."""
        if self.cell.row.reconnect_at == "source":
            self._start_join(node, agent, "reconnect", self.source)
            return
        target = agent.grandparent if agent.grandparent is not None else self.source
        if target == node:
            target = self.source
        self._start_join(node, agent, "reconnect", target)

    # -- slot / measurement ----------------------------------------------------------

    def _run_slot(self, entry) -> None:
        active = self._active & self._alive
        inactive = self.schedule.pool - self._active
        heap = self._heap
        for ev in self._churn.plan_slot(entry[0], active, inactive):
            seq = self._seq
            self._seq = seq + 1
            op = _OP_JOIN if ev.action == "join" else _OP_LEAVE
            heapq.heappush(heap, (ev.time, 0, seq, op, ev.node))

    def _measure(self, _entry=None) -> None:
        take_measurement(self.accountant, self._records, self.now, self.control)

    # -- event handlers --------------------------------------------------------------

    def _h_tell(self, entry) -> None:
        dst = entry[4]
        if dst not in self._alive:
            return
        agent = self.agents[dst]
        kind = entry[6]
        if kind == _TELL_GP_CHANGE:
            agent.grandparent = entry[7]
        elif kind == _TELL_CHILD_REMOVE:
            agent.children.pop(entry[5], None)
            agent.csort = None
        elif kind == _TELL_LEAVE:
            if entry[5] == agent.parent:
                agent.parent = None
                self._on_parent_lost(dst, agent)
        else:  # _TELL_PARENT_CHANGE
            a = entry[7]
            agent.parent = a
            agent.grandparent = entry[8]
            row = agent.row
            for child in sorted(agent.children):
                self._tell(row, dst, child, _TELL_GP_CHANGE, a)

    # The INFO_REQ / INFO_REPLY / DECIDE / ARRIVE handlers are dispatched
    # inline in ``run()`` — they carry most of the event volume, so they
    # skip the dispatch-table indirection.

    def _h_conn_req(self, entry) -> None:
        proc = entry[4]
        target = entry[5]
        if target not in self._alive:
            heapq.heappush(
                self._heap, (entry[9], 0, entry[8], _OP_TIMEOUT_RESTART, proc)
            )
            return
        reply = self._handle_conn(target, proc.node, entry[6])
        self.control += 1  # the ConnResponse
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._heap,
            (self.now + entry[7], 0, seq, _OP_CONN_REPLY, proc, target, reply),
        )

    def _h_conn_reply(self, entry) -> None:
        proc = entry[4]
        if proc.node not in self._alive:
            return
        if proc.cancelled or proc.finished:
            return
        reply = entry[6]
        if reply[0]:
            self._commit(proc, entry[5], reply[1], reply[2])
        else:
            self._send_info(proc, proc.redirect(reply[1], self.tree))

    def _h_timeout_restart(self, entry) -> None:
        """A request's timeout: the runtime's ``fire_timeout`` guard, then
        a restart at the source."""
        proc = entry[4]
        if proc.node not in self._alive:
            return
        if proc.cancelled or proc.finished:
            return
        self._send_info(proc, proc.restart())

    # -- run ----------------------------------------------------------------------

    def run(self) -> SessionResult:
        cfg = self.cfg
        heap = self._heap
        ops = {"join": _OP_JOIN, "slot": _OP_SLOT, "measure": _OP_MEASURE}
        for time, priority, kind, node in self.schedule.entries:
            seq = self._seq
            self._seq = seq + 1
            heapq.heappush(heap, (time, priority, seq, ops[kind], node))

        # Rare-op handlers receive the whole (flat) heap entry.
        handlers = [None] * 12
        handlers[_OP_JOIN] = self._do_join
        handlers[_OP_LEAVE] = self._do_leave
        handlers[_OP_SLOT] = self._run_slot
        handlers[_OP_MEASURE] = self._measure
        handlers[_OP_TELL] = self._h_tell
        handlers[_OP_CONN_REQ] = self._h_conn_req
        handlers[_OP_CONN_REPLY] = self._h_conn_reply
        handlers[_OP_TIMEOUT_RESTART] = self._h_timeout_restart

        with paused_gc():
            total = cfg.total_s
            pop = heapq.heappop
            push = heapq.heappush
            alive = self._alive
            agents = self.agents
            # The four highest-volume ops are dispatched inline; the
            # bodies mirror the scalar handlers exactly like the method
            # forms above do for the rarer ops.
            while heap:
                entry = pop(heap)
                t = entry[0]
                if t > total:
                    push(heap, entry)
                    break
                self.now = t
                op = entry[3]
                if op == _OP_INFO_REQ:
                    # (.., proc, pivot, d, tseq, ttime)
                    proc = entry[4]
                    pivot = entry[5]
                    if pivot not in alive:
                        push(heap, (entry[8], 0, entry[7], _OP_TIMEOUT_RESTART, proc))
                        continue
                    agent = agents[pivot]
                    free = agent.degree_limit - len(agent.children)
                    kids = agent.csort
                    if kids is None:
                        kids = agent.csort = sorted(agent.children.items())
                    self.control += 1  # the InfoResponse
                    seq = self._seq
                    self._seq = seq + 1
                    push(
                        heap,
                        (t + entry[6], 0, seq, _OP_INFO_REPLY, proc, pivot, free, kids),
                    )
                elif op == _OP_INFO_REPLY:
                    # (.., proc, pivot, free, kids) — ``kids`` is the
                    # pivot's sorted (child, distance) list at delivery:
                    # the round reads each child's free degree at its own
                    # request's arrival, never the pivot's snapshot.
                    proc = entry[4]
                    # a dead node's scalar timeout would fire inert
                    if proc.node in alive and not (
                        proc.cancelled or proc.finished
                    ):
                        self._probe_children(proc, entry[5], entry[6], entry[7])
                elif op == _OP_DECIDE:
                    # (.., proc, pivot, pivot_free, case2, case3, probes)
                    # — the same guards the scalar terminals apply per
                    # reply.
                    proc = entry[4]
                    if proc.node in alive and not (
                        proc.cancelled or proc.finished
                    ):
                        self._decide(
                            proc, entry[5], entry[6], entry[7], entry[8], entry[9]
                        )
                elif op == _OP_ARRIVE:
                    # (.., round_, child, d, tseq, d_new, d_pivot) — the
                    # scalar request arrival, whether or not the joiner
                    # is still around: a live child counts its reply,
                    # takes the reply leg's seq and reports the free
                    # degree the reply carries; a dead one leaves the
                    # round its timeout.
                    round_ = entry[4]
                    child = entry[5]
                    if child in alive:
                        agent = agents[child]
                        self.control += 1  # the InfoResponse
                        seq = self._seq
                        self._seq = seq + 1
                        d_new = entry[8]
                        round_[7].append((child, d_new, entry[9]))
                        round_[8].append(
                            (d_new, child, agent.degree_limit - len(agent.children))
                        )
                        reply_t = t + entry[6]
                        if reply_t >= round_[5]:  # ties: the later seq
                            round_[5] = reply_t
                            round_[6] = seq
                    elif entry[7] > round_[4]:
                        round_[4] = entry[7]
                    round_[9] -= 1
                    if not round_[9]:
                        self._close_round(round_)
                else:
                    handlers[op](entry)
        self.now = cfg.total_s
        if not self._records or self._records[-1].time < cfg.total_s:
            self._measure()
        return SessionResult(
            config=cfg,
            records=self._records,
            join_records=self.join_records,
            runtime=None,
            accountant=self.accountant,
        )

