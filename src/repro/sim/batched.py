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
* **Timeout elision.**  The scalar runtime schedules a cancellable
  timeout for *every* request and cancels it when the reply lands.  Under
  the envelope below (``2 x max one-way delay`` strictly below the
  timeout), a timeout can only ever *fire* a state change when its target
  was dead at send or at request-delivery time; all other timeouts are
  either cancelled or guarded into no-ops (``fire_timeout`` checks the
  requester is alive, and every ``on_timeout`` continuation checks its
  join process is neither cancelled nor finished).  The batched engine
  therefore consumes the timeout's sequence number when the scalar engine
  would, but only materializes a heap entry in the two cases that can
  act.  ``events_processed`` diverges (skipped timeouts never pop), which
  is output-neutral: its only consumer is the agent-RNG spawn key, and a
  plain VDM agent (``case3_selection="closest"``) never draws that RNG.
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
:func:`~repro.sim.session.draw_degree` and
:class:`~repro.protocols.base.JoinRecord` are reused as-is.  All RNG
streams (:func:`~repro.util.rngtools.spawn_rng` keyed exactly as the
session spawns them) are consumed in the same order, so results match the
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

from repro.core.join import (
    Descend,
    Insert,
    closest_free_else_closest,
    split_cases,
    vdm_decide,
)
from repro.core.vdm import VDMConfig
from repro.metrics.report import MeasurementRecord
from repro.protocols.base import JoinRecord
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
_OP_PROBE_REQ = 7
_OP_PROBE_REPLY = 8
_OP_CONN_REQ = 9
_OP_CONN_REPLY = 10
_OP_TIMEOUT_RESTART = 11
_OP_TIMEOUT_PROBE = 12
_OP_DECIDE = 13
_OP_FREE_READ = 14

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
    """Mirror of :class:`~repro.protocols.base.OverlayAgent` state.

    Only the fields the envelope can reach: no refinement timer, no
    per-agent RNG (never drawn by plain VDM), no foster state.  ``row``
    is the underlay's own ``delay_row(node)`` list (ms, never written):
    the hot send/decide paths index it directly, dividing by 1000 for a
    send delay and doubling for a virtual distance.
    """

    __slots__ = (
        "degree_limit",
        "parent",
        "grandparent",
        "children",
        "proc",
        "row",
        "csort",
    )

    def __init__(self, degree_limit: int, row: list[float]) -> None:
        self.degree_limit = degree_limit
        self.parent: int | None = None
        self.grandparent: int | None = None
        #: child id -> virtual distance measured when the child connected.
        self.children: dict[int, float] = {}
        self.proc: _Join | None = None
        self.row = row  # the underlay's one-way delay row of this node, in ms
        #: memo of ``sorted(children.items())`` — reset to None at every
        #: children mutation, rebuilt lazily by ``_child_info``.
        self.csort: list[tuple[int, float]] | None = None


class _Join:
    """Mirror of :class:`~repro.protocols.base.JoinProcess` bookkeeping.

    The probe-round state a scalar closure would capture
    (results/outstanding) travels in the op payloads instead, exactly
    like the closures carry it per round.
    """

    __slots__ = (
        "node",
        "agent",
        "kind",
        "started_at",
        "iterations",
        "restarts",
        "cancelled",
        "finished",
    )

    def __init__(self, node: int, agent: _Agent, kind: str, started_at: float) -> None:
        self.node = node
        self.agent = agent
        self.kind = kind
        self.started_at = started_at
        self.iterations = 0
        self.restarts = 0
        self.cancelled = False
        self.finished = False


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
        # Scheduling knowledge for the probe-round fast path: churn is
        # slotted, so every leave inside the current slot is already in
        # the heap — ``_death_at`` maps node -> its pending leave time,
        # ``_horizon`` is the next slot start (beyond it, aliveness is
        # not yet drawn), and ``_next_measure`` is the next measurement
        # instant (the only reader of the control counter; ``_mtimes``
        # adds the closing one at total_s, as a probe round's control
        # messages must not straddle any reader).  All three are kept by
        # ``_run_slot`` / ``_do_leave`` / ``_measure``.
        entries = self.schedule.entries
        self._death_at: dict[int, float] = {}
        # Before the first slot no churn is drawn at all, and a request
        # arriving exactly at the boundary (prio 0) still beats the slot
        # event (prio 5), so the boundary itself is inside the horizon.
        slots = iter([t for t, _, kind, _ in entries if kind == "slot"])
        self._horizon = next(slots, math.inf)
        self._later_slots = slots
        self._mtimes = [t for t, _, kind, _ in entries if kind == "measure"]
        self._mtimes.append(cfg.total_s)
        self._mt_i = 0
        self._next_measure = self._mtimes[0]

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

    def _send_info(self, proc: _Join, pivot: int) -> None:
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

    def _send_conn(self, proc: _Join, target: int, adopt) -> None:
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
        """Mirror of ``OverlayAgent.child_info``: (id, dist, free) sorted."""
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
        if agent.proc is not None:
            agent.proc.cancelled = True
            agent.proc = None
        proc = _Join(node, agent, kind, self.now)
        agent.proc = proc
        self._iterate(proc, at)

    def _iterate(self, proc: _Join, pivot: int) -> None:
        if proc.cancelled or proc.finished:
            return
        proc.iterations += 1
        if proc.iterations > 64:  # JoinProcess.MAX_ITERATIONS
            self._done(proc, False)
            return
        if pivot == proc.node:
            self._restart(proc)
            return
        self._send_info(proc, pivot)

    def _restart(self, proc: _Join) -> None:
        proc.restarts += 1
        if proc.restarts > 3:  # JoinProcess.MAX_RESTARTS
            self._done(proc, False)
            return
        self._iterate(proc, self.source)

    def _done(self, proc: _Join, succeeded: bool) -> None:
        if proc.finished:
            return
        proc.finished = True
        self.join_records.append(
            JoinRecord(
                node=proc.node,
                kind=proc.kind,
                started_at=proc.started_at,
                completed_at=self.now,
                succeeded=succeeded,
                iterations=proc.iterations,
            )
        )
        if proc.agent.proc is proc:
            proc.agent.proc = None

    def _probe_children(self, proc: _Join, pivot: int, pivot_free: int, kids) -> None:
        me = proc.node
        if self.tree.children.get(me):
            # Only a joiner that kept a subtree through a parent loss can
            # have descendants among the pivot's children.
            is_descendant = self.tree.is_descendant
            candidates = [
                ci for ci in kids if ci[0] != me and not is_descendant(ci[0], me)
            ]
        else:
            candidates = [ci for ci in kids if ci[0] != me]
        if not candidates:
            self._decide(proc, pivot, pivot_free, [], [], ())
            return
        now = self.now
        ttime = now + self._timeout_s
        # ---- precomputed round (the fast path) -------------------------------
        # A probe round's decision inputs are static except for two things:
        # which children answer (aliveness at each request's arrival) and
        # their fresh free degrees.  Aliveness is predictable — churn is
        # slotted, so inside the horizon a child dies exactly at its
        # already-scheduled leave time.  Everything else — the join
        # kernel's case split over static distance rows, the
        # reply/timeout terminal times — is computed here at send time,
        # so the whole round collapses to ONE heap entry at the instant
        # the last terminal would have fired, where ``_decide`` runs the
        # kernel against live agent state.  Control totals stay
        # window-exact: replies are counted at send, except those
        # arriving after the next measurement, whose count rides inside
        # the DECIDE entry (the decide instant lies in the same window as
        # every such arrival whenever the timeout fits between
        # consecutive measurements — checked below).
        #
        # Rounds whose decision *would* read the probed free degrees
        # (pivot full, no directional child to descend through, at least
        # one reply — the kernel's last-resort branches) take the middle
        # path instead: aliveness is still predicted, so the
        # request/timeout legs are elided, and one FREE_READ event per
        # replying child samples its free degree at exactly the scalar
        # request-arrival instant (which is also when the scalar runtime
        # counts the reply and reads the free it carries) into the
        # ``probes`` list the terminal DECIDE hands to the kernel.
        death_at = self._death_at
        dag = death_at.get
        horizon = self._horizon
        alive = self._alive
        row = proc.agent.row
        next_measure = self._next_measure
        # Every reply lands strictly before ``ttime`` (timeout-margin
        # envelope), so with the whole round in front of the next
        # measurement every reply counts at send; the per-arrival window
        # split below only runs for the rare straddling round.
        straddle = ttime > next_measure
        replying: list[tuple[int, float, float]] = []
        n_reply = 0
        n_pre = 0  # replies arriving at or before the next measurement
        seq = self._seq
        last_tseq = -1  # tseq of the last elided timeout, if any
        best_d = -1.0
        best_seq = -1  # request seq of the chronologically last reply
        ok = True
        for child, d_pivot_child, _cfree in candidates:
            tseq = seq
            seq += 1
            if child not in alive:
                last_tseq = tseq
                continue
            d = row[child] / 1000.0
            seq += 1
            check = now + d
            if check > horizon:
                ok = False
                break
            dt = dag(child)
            if dt is not None and dt <= check:
                # The leave beats the request: its event was pushed at
                # slot start (lower seq), so at ``check`` the child is
                # already gone and the scalar path re-arms the timeout.
                last_tseq = tseq
                continue
            n_reply += 1
            if straddle and check <= next_measure:
                n_pre += 1
            if d >= best_d:  # ties: the later candidate replies last
                best_d = d
                best_seq = tseq + 1
            replying.append((child, 2.0 * row[child], d_pivot_child))
        if not straddle:
            n_pre = n_reply
        elif ok and n_pre < n_reply:
            # Post-measure replies ride in the terminal entry; that is
            # window-exact only if no second measurement can fall inside
            # the round.
            i = self._mt_i + 1
            mt = self._mtimes
            if i < len(mt) and ttime > mt[i]:
                ok = False
        if ok:
            heap = self._heap
            case2, case3 = split_cases(
                2.0 * row[pivot], replying, self.cell.row.config.tie_tolerance
            )
            if pivot_free <= 0 and not case3 and n_reply:
                # ---- middle path: free degrees sampled by FREE_READ ----
                # Re-walk the candidates (pure reads; nothing changed
                # since the classification pass, so every aliveness
                # determination repeats) to emit one FREE_READ per
                # predicted reply at the scalar request-arrival instant.
                self.control += len(candidates)
                probes: list[tuple[float, int, int]] = []
                push = heapq.heappush
                s = self._seq
                for child, _cd, _cf in candidates:
                    tseq = s
                    s += 1
                    if child not in alive:
                        continue
                    d = row[child] / 1000.0
                    s += 1
                    check = now + d
                    dt = dag(child)
                    if dt is not None and dt <= check:
                        continue
                    push(
                        heap,
                        (check, 0, tseq + 1, _OP_FREE_READ,
                         probes, child, 2.0 * row[child]),
                    )
                self._seq = seq
                xctl = 0  # every reply is counted by its FREE_READ
            else:
                probes = ()
                self._seq = seq
                self.control += len(candidates) + n_pre
                xctl = n_reply - n_pre
            if last_tseq >= 0:
                # Replies all land before ``ttime`` (timeout-margin
                # envelope), so the last terminal is the last timeout.
                entry = (
                    ttime, 0, last_tseq, _OP_DECIDE,
                    proc, pivot, pivot_free, case2, case3, probes, xctl,
                )
            else:
                # The scalar reply time is (t0 + d) + d, summed in
                # exactly this order at the request's arrival.
                entry = (
                    (now + best_d) + best_d, 0, best_seq, _OP_DECIDE,
                    proc, pivot, pivot_free, case2, case3, probes, xctl,
                )
            heapq.heappush(heap, entry)
            return
        # ---- event-per-probe slow path ---------------------------------------
        # Each probed child is finished exactly once — the send/request
        # chain creates one terminal entry (reply or elided-timeout) per
        # child — so the scalar round's outstanding *set* reduces to a
        # countdown.  The two lists collect the repliers in the kernel's
        # shapes: (child, d_new, d_pivot) and (d_new, child, free).
        round_ = (proc, pivot, pivot_free, [], [], [len(candidates)])
        # Probe sends inlined (the hottest send site); seq consumption
        # matches the per-send order: timeout seq first, then the request
        # seq only when the target is alive.  The control counter is
        # flushed once — no event can observe it between same-time sends.
        heap = self._heap
        push = heapq.heappush
        alive = self._alive
        now = self.now
        ttime = now + self._timeout_s
        row = proc.agent.row
        seq = self._seq
        for ci in candidates:
            child = ci[0]
            tseq = seq
            seq += 1
            if child not in alive:
                push(heap, (ttime, 0, tseq, _OP_TIMEOUT_PROBE, round_, child, ci[1]))
                continue
            d = row[child] / 1000.0
            push(
                heap,
                (now + d, 0, seq, _OP_PROBE_REQ, round_, child, ci[1], d, tseq, ttime),
            )
            seq += 1
        self._seq = seq
        self.control += len(candidates)

    def _finish_probe(self, round_, child: int, ci_dist: float, free) -> None:
        """Mirror of the probe round's ``finish_one`` (``free`` None = timeout)."""
        proc, pivot, pivot_free, replying, probes, remaining = round_
        if proc.cancelled or proc.finished:
            return
        row = proc.agent.row
        if free is not None:
            d_new = 2.0 * row[child]
            replying.append((child, d_new, ci_dist))
            probes.append((d_new, child, free))
        n = remaining[0] - 1
        remaining[0] = n
        if not n:
            case2, case3 = split_cases(
                2.0 * row[pivot], replying, self.cell.row.config.tie_tolerance
            )
            self._decide(proc, pivot, pivot_free, case2, case3, probes)

    def _decide(self, proc: _Join, pivot, pivot_free, case2, case3, probes) -> None:
        """``JoinProcess._decide``: ask the join kernel, act on its answer.

        The kernel's case lists may have been split at send time
        (pure static-distance arithmetic); everything else — the
        joiner's adoption budget, the ``probes`` free degrees sampled at
        the scalar request-arrival instants — is live state read now,
        exactly when the scalar runtime decides.  A precomputed round
        that can never reach the free-degree branches of the Case-I tail
        passes no probes.
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
            self._iterate(proc, decision.child)
        else:
            self._send_conn_checked(
                proc, decision.target,
                decision.adopt if type(decision) is Insert else None,
            )

    def _send_conn_checked(self, proc: _Join, target: int, adopt) -> None:
        """Mirror of ``JoinProcess._request_connection`` (join/reconnect)."""
        me = proc.node
        if target == me or self.tree.is_descendant(target, me):
            self._restart(proc)
            return
        self._send_conn(proc, target, adopt)

    def _handle_conn(self, node: int, sender: int, adopt):
        """Mirror of ``OverlayAgent._handle_conn_request`` at the acceptor.

        Runs at request-delivery time and commits tree mutations then,
        exactly as the scalar handler does.  Returns the reply payload:
        ``(False, children_snapshot)`` or ``(True, parent, transferred)``.
        """
        agent = self.agents[node]
        children = agent.children
        tree = self.tree
        # _reconcile_children
        registry = tree.children.get(node, set())
        stale = [c for c in children if c not in registry]
        if stale:
            agent.csort = None
            for child in stale:
                del children[child]
        row = agent.row
        missing = registry - children.keys()
        if missing:
            agent.csort = None
            for child in sorted(missing):
                children[child] = 2.0 * row[child]
        reject_kids = self._child_info(agent)
        if node != self.source and not tree.is_reachable(node):
            return (False, reject_kids)
        if tree.is_descendant(node, sender):
            return (False, reject_kids)

        if adopt is not None:  # insert
            alive = self._alive
            tree_parent = tree.parent
            transferable = [
                c
                for c in adopt
                if c in children
                and c in alive
                and c != sender
                and tree_parent.get(c) == node
            ]
            sender_agent = self.agents.get(sender)
            if sender_agent is not None:
                room = sender_agent.degree_limit - len(
                    tree.children.get(sender, ())
                )
                if len(transferable) > room:
                    transferable = transferable[: max(room, 0)]
            if not transferable and agent.degree_limit - len(children) <= 0:
                return (False, reject_kids)
            dist = 2.0 * row[sender]
            tree.insert(sender, node, tuple(transferable), self.now)
            children[sender] = dist
            for child in transferable:
                del children[child]
            agent.csort = None
            return (True, agent.parent, tuple(transferable))

        # attach
        if agent.degree_limit - len(children) <= 0:
            return (False, reject_kids)
        dist = 2.0 * row[sender]
        children[sender] = dist
        agent.csort = None
        # is_present and is_attached (sender is never the source): one
        # non-None parent-pointer check covers both.
        if tree.parent.get(sender) is not None:
            tree.reparent(sender, node, self.now)
        else:
            tree.attach(sender, node, self.now)
        return (True, agent.parent, ())

    def _commit(self, proc: _Join, new_parent: int, acc_parent, transferred) -> None:
        """Mirror of ``JoinProcess._commit``."""
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
        self._done(proc, True)

    def _redirect(self, proc: _Join, kids) -> None:
        """Mirror of ``JoinProcess._redirect_after_reject``."""
        me = proc.node
        is_descendant = self.tree.is_descendant
        nxt = closest_free_else_closest(
            [
                (dist, child, free)
                for child, dist, free in kids
                if child != me and not is_descendant(child, me)
            ]
        )
        if nxt is None:
            self._restart(proc)
            return
        self._iterate(proc, nxt[1])

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
        self._death_at.pop(node, None)
        if node not in self._active:
            return
        agent = self.agents.get(node)
        if agent is None or node not in self._alive:
            self._active.discard(node)
            return
        self._active.discard(node)
        # OverlayAgent.leave()
        if agent.proc is not None:
            agent.proc.cancelled = True
            agent.proc = None
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
        """Mirror of ``OverlayAgent.on_parent_lost`` for the VDM row."""
        if self.cell.row.reconnect_at == "source":
            self._start_join(node, agent, "reconnect", self.source)
            return
        target = agent.grandparent if agent.grandparent is not None else self.source
        if target == node:
            target = self.source
        self._start_join(node, agent, "reconnect", target)

    # -- slot / measurement ----------------------------------------------------------

    def _run_slot(self, entry) -> None:
        slot_start = entry[0]
        active = self._active & self._alive
        inactive = self.schedule.pool - self._active
        events = self._churn.plan_slot(slot_start, active, inactive)
        heap = self._heap
        death_at = self._death_at
        for ev in events:
            seq = self._seq
            self._seq = seq + 1
            if ev.action == "join":
                op = _OP_JOIN
            else:
                op = _OP_LEAVE
                # Leavers are drawn from the alive-at-slot-start set and
                # joiners from its complement, so this is the node's only
                # possible aliveness flip before the next slot boundary.
                death_at[ev.node] = ev.time
            heapq.heappush(heap, (ev.time, 0, seq, op, ev.node))
        self._horizon = next(self._later_slots, math.inf)

    def _measure(self, _entry=None) -> None:
        """Record a measurement, and advance the guard list's cursor."""
        now = self.now
        mt = self._mtimes
        i = self._mt_i
        n_mt = len(mt)
        while i < n_mt and mt[i] <= now:
            i += 1
        self._mt_i = i
        self._next_measure = mt[i] if i < n_mt else math.inf
        take_measurement(self.accountant, self._records, now, self.control)

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

    # The INFO_REQ / INFO_REPLY / PROBE_REQ / PROBE_REPLY handlers are
    # dispatched inline in ``run()`` — they carry ~80% of the event
    # volume, so they skip the dispatch-table indirection.

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
            self._redirect(proc, reply[1])

    def _h_timeout_restart(self, entry) -> None:
        """Mirror of ``fire_timeout`` + the info/conn ``on_timeout``s."""
        proc = entry[4]
        if proc.node not in self._alive:
            return
        if proc.cancelled or proc.finished:
            return
        self._restart(proc)

    def _h_timeout_probe(self, entry) -> None:
        round_ = entry[4]
        if round_[0].node not in self._alive:
            return
        self._finish_probe(round_, entry[5], entry[6], None)

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
        handlers = [None] * 16
        handlers[_OP_JOIN] = self._do_join
        handlers[_OP_LEAVE] = self._do_leave
        handlers[_OP_SLOT] = self._run_slot
        handlers[_OP_MEASURE] = self._measure
        handlers[_OP_TELL] = self._h_tell
        handlers[_OP_CONN_REQ] = self._h_conn_req
        handlers[_OP_CONN_REPLY] = self._h_conn_reply
        handlers[_OP_TIMEOUT_RESTART] = self._h_timeout_restart
        handlers[_OP_TIMEOUT_PROBE] = self._h_timeout_probe

        with paused_gc():
            total = cfg.total_s
            pop = heapq.heappop
            push = heapq.heappush
            alive = self._alive
            agents = self.agents
            # The four highest-volume ops (probe and info round trips are
            # roughly 80% of all heap entries) are dispatched inline; the
            # bodies mirror the scalar handlers exactly like the method
            # forms below do for the rarer ops.
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
                    kids = self._child_info(agent)
                    self.control += 1  # the InfoResponse
                    seq = self._seq
                    self._seq = seq + 1
                    push(
                        heap,
                        (t + entry[6], 0, seq, _OP_INFO_REPLY, proc, pivot, free, kids),
                    )
                elif op == _OP_INFO_REPLY:
                    # (.., proc, pivot, free, kids)
                    proc = entry[4]
                    # a dead node's scalar timeout would fire inert
                    if proc.node in alive and not (
                        proc.cancelled or proc.finished
                    ):
                        self._probe_children(proc, entry[5], entry[6], entry[7])
                elif op == _OP_DECIDE:
                    # (.., proc, pivot, pivot_free, case2, case3, probes,
                    # xctl) — the same guards the scalar terminals apply
                    # per reply.  ``xctl`` counts the replies that arrived
                    # after the most recent measurement: children answer
                    # whether the joiner is still around or not, so the
                    # count lands before any proc-state guard.
                    self.control += entry[10]
                    proc = entry[4]
                    if proc.node in alive and not (
                        proc.cancelled or proc.finished
                    ):
                        self._decide(
                            proc, entry[5], entry[6], entry[7], entry[8], entry[9]
                        )
                elif op == _OP_FREE_READ:
                    # (.., probes, child, d_new) — the scalar request
                    # arrival: count the reply it triggers and sample the
                    # free degree it carries.
                    agent = agents[entry[5]]
                    self.control += 1
                    entry[4].append(
                        (entry[6], entry[5], agent.degree_limit - len(agent.children))
                    )
                elif op == _OP_PROBE_REQ:
                    # (.., round_, child, ci_dist, d, tseq, ttime)
                    child = entry[5]
                    if child not in alive:
                        push(
                            heap,
                            (
                                entry[9],
                                0,
                                entry[8],
                                _OP_TIMEOUT_PROBE,
                                entry[4],
                                child,
                                entry[6],
                            ),
                        )
                        continue
                    agent = agents[child]
                    self.control += 1  # the InfoResponse
                    seq = self._seq
                    self._seq = seq + 1
                    push(
                        heap,
                        (
                            t + entry[7],
                            0,
                            seq,
                            _OP_PROBE_REPLY,
                            entry[4],
                            child,
                            entry[6],
                            agent.degree_limit - len(agent.children),
                        ),
                    )
                elif op == _OP_PROBE_REPLY:
                    # (.., round_, child, ci_dist, free)
                    round_ = entry[4]
                    if round_[0].node in alive:
                        self._finish_probe(round_, entry[5], entry[6], entry[7])
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

