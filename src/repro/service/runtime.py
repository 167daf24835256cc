"""The live service runtime: open-loop join/leave traffic on a VDM tree.

One :class:`ServiceRuntime` is one live run, and a plain client of the
discrete-event :class:`~repro.sim.engine.Simulator`:

* the **producer** admits pre-materialized session arrivals
  (:mod:`repro.service.workload`) into the bounded **join queue**; at the
  queue's high-water mark an arrival is rejected and counted — the queue
  *is* the admission controller;
* ``join_workers`` **serving slots** take queued joins in order and serve
  each under the robustness envelope: a per-attempt virtual-time timeout,
  bounded retries with decorrelated jitter
  (:class:`repro.util.retry.RetryPolicy`), and a deterministic abandon
  path when attempts run out;
* **health probes** (the queue's consumer gate, tree legality + orphan
  set, admission depth) run on a virtual-time cadence and integrate
  time-in-degraded; the tree probe reads the :class:`RecoveryTracker`'s
  maintained legality answer, not a full registry scan;
* **chaos** (:class:`repro.harness.chaos.ServiceChaosRule`) strikes at
  fixed virtual times: agent crashes go through the session fault arm
  (:class:`repro.sim.faults.FaultInjector`), a ``bus-stall`` closes the
  queue's consumer gate, a ``clock-jump`` fires every pending timer;
* **graceful drain** (:meth:`ServiceRuntime.request_drain`, wired to
  SIGTERM by the CLI): admissions stop, queued and in-flight joins
  finish, and every completed outcome is already durable in the run
  journal.

Every wait — the next arrival or the horizon, a join attempt, a retry
backoff, a health tick, the next chaos rule — is a *service timer*: a
cancellable simulator event, kept in registration order in one table.  A
timer fires when its event does, or early: a join completion ends its
attempt's wait, a drain ends the producer's, and a clock jump fires them
all in registration order.

A fired timer does not run its reaction inside the event (a completion is
recorded from the middle of a protocol handler).  The reaction joins a
FIFO ready queue and sets :attr:`ServiceRuntime.halt`, which ends the
engine's burst (:meth:`~repro.sim.engine.Simulator.run_burst`) after that
event; the run loop then runs the ready queue dry before the next burst.
A reaction that hands work on — a queued join to a parked slot, a freed
queue place to the waiting shutdown sentinels — appends to the same
queue.  The order of reactions is therefore fixed, and a seeded run is a
pure function of its config.

Determinism and resume: a run *journals each arrival's outcome* under
``(("ch8_service_run", scenario), arrival_index, seed, recipe)`` via the
active :mod:`repro.harness.journal` context.  Because the live tree is
history-dependent, a resumed run **re-executes from virtual time zero**
rather than skipping journaled work — the journal is the determinism
witness: every recomputed outcome is compared against its journaled
entry and a mismatch raises :class:`ServiceDeterminismError`.  The
corollary the drain tests pin: SIGTERM anywhere mid-run followed by
``--resume`` yields final metrics byte-identical to an uninterrupted
run.

The invariant checker stays armed (``mode="raise"``) on the live tree
for the entire run, chaos included.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from bisect import insort
from collections import Counter, deque
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.factories import vdm
from repro.harness.chaos import ServiceChaosRule, load_service_plan
from repro.harness.journal import active as journal_active
from repro.metrics.collectors import (
    RecoveryTracker, latency_percentile, overlay_delay_ms,
)
from repro.protocols.base import ProtocolRuntime
from repro.service.health import HealthMonitor
from repro.service.workload import SCENARIOS, SessionArrival, build_workload
from repro.sim.engine import Event, Simulator
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.invariants import InvariantChecker
from repro.sim.session import draw_degree, register_agent
from repro.util.artifacts import artifact_key
from repro.util.retry import RetryPolicy
from repro.util.rngtools import spawn_rng
from repro.util.validation import (
    check_fields, check_finite, check_non_negative, checked, count, non_negative,
    one_of, pair, positive, rng_seed,
)

__all__ = [
    "ServiceConfig",
    "ServiceDeterminismError",
    "ServiceRuntime",
    "run_service",
]

class ServiceDeterminismError(RuntimeError):
    """A recomputed outcome disagreed with its journaled witness entry."""


def _depth(name: str, value) -> float:
    """A diurnal modulation depth in [0, 1): at 1 the trough rate is zero."""
    if non_negative(name, value) >= 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {value!r}")
    return value


@dataclass(frozen=True)
class ServiceConfig:
    """Parameters of one live service run (all JSON-natural).

    Every real is finite: an infinite horizon or rate never ends the
    workload loops, a NaN burst start drops the burst.
    """

    scenario: str = checked(one_of(*SCENARIOS), "poisson")
    duration_s: float = checked(positive, 600.0)
    seed: int = checked(rng_seed, 0)
    #: hosts in the default substrate (ignored when an underlay is passed)
    n_hosts: int = checked(count(2), 64)
    #: baseline session-arrival rate
    arrival_rate_hz: float = checked(positive, 0.2)
    #: mean session lifetime (exponential)
    hold_s: float = checked(positive, 120.0)
    #: member degree limits, drawn uniformly from [lo, hi] (paper setup)
    degree: tuple[int, int] = checked(pair(count()), (2, 5))
    #: protocol-level per-request timeout (ms), as in batch sessions
    timeout_ms: float = checked(positive, 3000.0)
    #: control-plane deadline on one join wait (virtual seconds)
    join_timeout_s: float = checked(positive, 8.0)
    #: join-queue high-water mark: arrivals beyond this depth are rejected
    join_queue_hwm: int = checked(count(), 8)
    #: join-serving slots (joins served concurrently)
    join_workers: int = checked(count(), 2)
    #: health-probe cadence (virtual seconds)
    probe_period_s: float = checked(positive, 5.0)
    #: stream chunk rate (chunks/s) for join-to-first-chunk latency
    chunk_rate: float = checked(positive, 10.0)
    # flash-crowd shape (used by scenario == "flash")
    burst_at_s: float = checked(non_negative, 0.0)
    burst_rate_hz: float = checked(non_negative, 0.0)
    burst_duration_s: float = checked(non_negative, 0.0)
    # diurnal shape (used by scenario == "diurnal")
    diurnal_period_s: float = checked(non_negative, 0.0)
    diurnal_depth: float = checked(_depth, 0.8)
    #: control-plane retry policy for join attempts
    retry: RetryPolicy = RetryPolicy(max_attempts=3, backoff_base_s=0.5,
                                     backoff_cap_s=10.0)

    __post_init__ = check_fields


@dataclass
class _Join:
    """One admitted arrival, from the slot that took it to its outcome."""

    arrival: SessionArrival
    node: int
    agent: object = None
    attempts: int = 0
    timeouts: int = 0
    prev_sleep: float = 0.0
    #: the current attempt's completion record, once the protocol sent it
    rec: object = None
    #: the timer of the latest attempt's wait
    timer: Event | None = None


class ServiceRuntime:
    """One live service run over a simulated underlay."""

    def __init__(
        self,
        config: ServiceConfig,
        underlay=None,
        *,
        chaos_plan: tuple[ServiceChaosRule, ...] | None = None,
        journal_outcomes: bool = True,
        pace_s: float = 0.0,
    ) -> None:
        self.config = config
        if underlay is None:
            from repro.harness.substrates import build_transit_stub_underlay

            underlay = build_transit_stub_underlay(
                n_hosts=config.n_hosts, seed=config.seed
            )
        self.underlay = underlay
        self.chaos_plan = (
            load_service_plan() if chaos_plan is None else tuple(chaos_plan)
        )
        self._journal_outcomes = journal_outcomes
        self._pace_s = check_finite("pace_s", check_non_negative("pace_s", pace_s))

        hosts = sorted(int(h) for h in underlay.hosts)
        if len(hosts) < 2:
            raise ValueError("underlay must have at least 2 hosts")
        src_rng = spawn_rng(config.seed, "service", "source")
        self.source = int(hosts[int(src_rng.integers(len(hosts)))])

        self.sim = Simulator()
        self.env = ProtocolRuntime(
            self.sim, underlay, self.source, timeout_ms=config.timeout_ms
        )
        self._factory = vdm()
        self.checker = InvariantChecker(self.env, mode="raise")
        # The fault arm is always installed: manual chaos crashes go
        # through the same crash/detect path as batch fault plans, and a
        # noop plan injects nothing on its own — being message-inert, it
        # also leaves tell/request on the tuple fast path.
        self.injector = FaultInjector(
            FaultPlan(name="service-chaos", seed=config.seed), self.env
        )
        self.recovery = RecoveryTracker(self.env)
        self.env.tree.add_listener(self._on_tree_event)

        self._degree_rng = spawn_rng(config.seed, "service", "degrees")
        self._admit_rng = spawn_rng(config.seed, "service", "admit")
        self._schedule = build_workload(
            config.scenario,
            seed=config.seed,
            duration_s=config.duration_s,
            rate_hz=config.arrival_rate_hz,
            hold_s=config.hold_s,
            burst_at_s=config.burst_at_s,
            burst_rate_hz=config.burst_rate_hz,
            burst_duration_s=config.burst_duration_s,
            diurnal_period_s=config.diurnal_period_s,
            diurnal_depth=config.diurnal_depth,
        )
        self._journal_key = ("ch8_service_run", config.scenario)
        self._recipe = artifact_key(
            {
                "kind": "service-run/1",
                "config": config,
                "chaos": [dataclasses.asdict(r) for r in self.chaos_plan],
            }
        )

        # live state
        #: hosts no arrival holds, sorted (admission draws an index into it)
        self._free: list[int] = [h for h in hosts if h != self.source]
        #: host -> index of the arrival holding it, from admission until
        #: that arrival's member has left the tree
        self._holder: dict[int, int] = {}
        #: held hosts whose holder is still in the join queue (no agent yet)
        self._queued: set[int] = set()
        #: node -> the join whose current attempt its completion ends
        self._waiters: dict[int, _Join] = {}
        self._abandoned: set[int] = set()
        self._outcomes: dict[int, dict] = {}
        self.counters: Counter[str] = Counter()
        #: the join queue: admitted ``(arrival, node, degree)`` items, then
        #: one shutdown sentinel (``None``) per slot; at most the HWM long
        self._queue: deque = deque()
        #: published, delivered (sentinels included), rejected, max_depth
        self._queue_stats: Counter[str] = Counter()
        #: the queue's consumer gate is closed (a ``bus-stall``)
        self._stalled = False
        #: free slots parked on the empty queue, and waiting at the gate
        self._idle = 0
        self._gated = 0
        #: slots that have not taken their shutdown sentinel: the run is
        #: over when none is left
        self._slots_open = config.join_workers
        #: sentinels not yet queued, and whether they wait for a free place
        self._sentinels_due = 0
        self._sentinels_blocked = False
        #: pending service timers in registration order: event -> reaction
        self._timers: dict[Event, Callable[[], None]] = {}
        #: reactions to run before the next event, in order
        self._ready: deque[Callable[[], None]] = deque()
        self._next_arrival = 0
        self._producer_timer: Event | None = None
        self.health = HealthMonitor(
            self.sim,
            {
                "bus": lambda: not self._stalled,
                "tree": lambda: not self.recovery.orphans
                and self.recovery.tree_is_legal(),
                "admission": lambda: len(self._queue) < config.join_queue_hwm,
            },
            period_s=config.probe_period_s,
        )

        # run-state flags
        self._ran = False
        #: read by ``Simulator.run_burst`` after every event: a reaction
        #: is ready, or a drain was requested
        self.halt = False
        self._drain_requested = False
        self.drained = False
        self.drain_time_s: float | None = None

        self._install_join_watch()
        degree = draw_degree(config.degree, self._degree_rng)
        register_agent(self.env, self._factory, self.source, degree, config.seed)

    # -- setup ----------------------------------------------------------------

    def _install_join_watch(self) -> None:
        """Wrap the runtime's join-record sink to end join attempts."""
        env = self.env
        orig = env.record_join

        def record_join(rec):
            orig(rec)
            if rec.kind != "join":
                return
            join = self._waiters.pop(rec.node, None)
            if join is not None:
                join.rec = rec
                self._fire_early(join.timer)
            elif rec.succeeded and rec.node in self._abandoned:
                # A join the control plane gave up on completed late:
                # honour the abandonment by leaving immediately.
                self._abandoned.discard(rec.node)
                self.counters["late_attach_leaves"] += 1
                self.sim.schedule_in(
                    0.0,
                    lambda n=rec.node, a=self._holder.get(rec.node): (
                        self._do_leave(n, a)
                    ),
                    label="svc-abandon-leave",
                )

        env.record_join = record_join

    def _release(self, node: int) -> None:
        """Return ``node`` to the free pool (idempotent)."""
        if self._holder.pop(node, None) is not None:
            insort(self._free, node)

    def _on_tree_event(
        self, kind: str, node: int, parent: int | None, t: float
    ) -> None:
        # A depart while the host's holder is still in the join queue is a
        # previous tenant's — crash detection can purge a member seconds
        # after it left — and must not free the new holder's reservation.
        if kind == "depart" and node not in self._queued:
            self._release(node)

    # -- service timers and the ready queue -----------------------------------

    def _wake(self, reaction: Callable[[], None]) -> None:
        """Run ``reaction`` before the next event, after those already ready."""
        self._ready.append(reaction)
        self.halt = True

    def _arm(self, delay_s: float, reaction: Callable[[], None]) -> Event:
        """Arm a service timer that wakes ``reaction`` in ``delay_s`` virtual
        seconds: >= 0 and not NaN, refused rather than clamped (``+inf``
        never fires)."""
        delay_s = check_non_negative("delay_s", delay_s)
        event = self.sim.schedule_in(delay_s, lambda: self._fire(event))
        self._timers[event] = reaction
        return event

    def _fire(self, event: Event) -> None:
        self._wake(self._timers.pop(event))

    def _fire_early(self, event: Event | None) -> None:
        """Fire a pending timer now: its event is tombstoned and its reaction
        woken.  No-op for a timer that has fired already."""
        reaction = self._timers.pop(event, None)
        if reaction is not None:
            event.cancel()
            self._wake(reaction)

    def _run_ready(self) -> None:
        """Run the ready reactions, and those they wake, in order."""
        ready = self._ready
        while ready:
            ready.popleft()()

    def _jump(self) -> int:
        """Chaos: fire every pending timer now, in registration order."""
        timers, self._timers = self._timers, {}
        for event, reaction in timers.items():
            event.cancel()
            self._wake(reaction)
        return len(timers)

    # -- drain ----------------------------------------------------------------

    def request_drain(self) -> None:
        """Ask the run to drain: stop admissions, finish queued and
        in-flight joins.

        Signal-handler-safe (sets flags the run loop reads after every
        event); idempotent.
        """
        self._drain_requested = True
        if not self.drained:
            self.halt = True

    def _begin_drain(self) -> None:
        self.drained = True
        self.drain_time_s = self.sim.now
        self._fire_early(self._producer_timer)

    # -- membership actions ----------------------------------------------------

    def _do_leave(self, node: int, arrival_index: int) -> None:
        """End the membership arrival ``arrival_index`` holds on ``node``."""
        if self._holder.get(node) != arrival_index:
            return  # that tenant is gone already (crashed and detected)
        if self.env.is_alive(node):
            self.env.agents[node].leave()
        self._release(node)

    # -- the producer and the join queue ---------------------------------------

    def _produce(self) -> None:
        """Admit every due arrival, then wait for the next one (or for the
        horizon).  At the horizon, or on a drain, queue the sentinels."""
        schedule, now = self._schedule, self.sim.now
        while not self.drained:
            if self._next_arrival < len(schedule):
                due = schedule[self._next_arrival].time
            else:
                due = self.config.duration_s
            if now < due:
                self._producer_timer = self._arm(due - now, self._produce)
                return
            if self._next_arrival == len(schedule):
                break
            self._next_arrival += 1
            self._admit(schedule[self._next_arrival - 1])
        self._sentinels_due = self.config.join_workers
        self._queue_sentinels()

    def _rejected_outcome(self, arrival: SessionArrival, reason: str) -> dict:
        return {
            "admitted": False,
            "arrival_s": arrival.time,
            "attached_s": None,
            "attempts": 0,
            "first_chunk_latency_s": None,
            "node": None,
            "reject_reason": reason,
            "succeeded": False,
            "timeouts": 0,
        }

    def _admit(self, arrival: SessionArrival) -> None:
        free = self._free
        if not free:
            self.counters["rejected_capacity"] += 1
            self._record_outcome(
                arrival.index, self._rejected_outcome(arrival, "no-free-host")
            )
            return
        # The reservation is the arrival's from before a slot can see it.
        node = free.pop(int(self._admit_rng.integers(len(free))))
        self._holder[node] = arrival.index
        self._queued.add(node)
        degree = draw_degree(self.config.degree, self._degree_rng)
        stats = self._queue_stats
        if len(self._queue) >= self.config.join_queue_hwm:
            stats["rejected"] += 1
            self._queued.discard(node)
            self._release(node)
            self.counters["rejected_backpressure"] += 1
            self._record_outcome(
                arrival.index, self._rejected_outcome(arrival, "high-water-mark")
            )
            return
        self._enqueue((arrival, node, degree))
        stats["max_depth"] = max(stats["max_depth"], len(self._queue))

    def _enqueue(self, item) -> None:
        """Queue ``item`` and wake the longest-parked idle slot, if any."""
        self._queue.append(item)
        self._queue_stats["published"] += 1
        if self._idle:
            self._idle -= 1
            self._wake(self._take)

    def _queue_sentinels(self) -> None:
        """Queue one shutdown sentinel per slot, behind every admitted join.
        At the high-water mark the rest wait until a slot takes an item."""
        while self._sentinels_due:
            if len(self._queue) >= self.config.join_queue_hwm:
                self._sentinels_blocked = True
                return
            self._sentinels_due -= 1
            self._enqueue(None)

    def _resume_queue(self) -> None:
        """End a stall: the slots waiting at the gate look for work, in order."""
        if self._stalled:
            self._stalled = False
            for _ in range(self._gated):
                self._wake(self._take)
            self._gated = 0

    # -- serving slots ---------------------------------------------------------

    def _look_for_work(self) -> None:
        """A free slot waits at a closed gate, or takes the next item."""
        if self._stalled:
            self._gated += 1
        else:
            self._take()

    def _take(self) -> None:
        """Take the next queued item, or park until one is queued.

        A slot woken from the parked set takes its item even if the gate
        closed meanwhile: it was already waiting on the queue when the
        stall began, and an in-flight delivery is not recalled.
        """
        if not self._queue:
            self._idle += 1
            return
        item = self._queue.popleft()
        self._queue_stats["delivered"] += 1
        if self._sentinels_blocked:
            self._sentinels_blocked = False
            self._wake(self._queue_sentinels)
        if item is None:
            self._slots_open -= 1
        else:
            self._serve(*item)

    def _serve(self, arrival: SessionArrival, node: int, degree: int) -> None:
        join = _Join(arrival, node)
        self._waiters[node] = join
        join.agent = register_agent(
            self.env, self._factory, node, degree, self.config.seed,
            arrival.index,
        )
        self._queued.discard(node)
        join.agent.start_join()
        self._attempt(join)

    def _attempt(self, join: _Join) -> None:
        """Wait up to the join timeout for the current attempt to complete.

        A completion that landed before the wait (during a backoff) ends
        it at once, arming nothing.
        """
        join.attempts += 1
        if join.rec is not None:
            self._attempt_ended(join)
        else:
            join.timer = self._arm(
                self.config.join_timeout_s, partial(self._attempt_ended, join)
            )

    def _attempt_ended(self, join: _Join) -> None:
        """The wait ended: the attempt completed (a success, or the protocol
        gave up) or timed out.  A completion that landed after the timeout
        fired but before this reaction ran counts as a completion."""
        cfg = self.config
        policy = cfg.retry
        rec = join.rec
        if rec is not None and rec.succeeded:
            self._join_done(join, rec)
            return
        if rec is None:
            join.timeouts += 1
            self.counters["join_timeouts"] += 1
        if not policy.should_retry(join.attempts):
            self._join_done(join, None)
            return
        self.counters["retries"] += 1
        sleep = policy.backoff_s(
            self._journal_key,
            join.arrival.index,
            cfg.seed,
            join.attempts,
            prev_sleep=join.prev_sleep,
        )
        join.prev_sleep = sleep or join.prev_sleep
        # After a timeout the protocol operation is still in flight: the
        # next wait re-arms against the same completion.  After a give-up
        # the join is re-issued.
        then = partial(self._attempt if rec is None else self._rejoin, join)
        if sleep > 0:
            self._arm(sleep, then)
        else:
            then()

    def _rejoin(self, join: _Join) -> None:
        join.rec = None
        self._waiters[join.node] = join
        join.agent.start_join()
        self._attempt(join)

    def _join_done(self, join: _Join, outcome_rec) -> None:
        arrival, node = join.arrival, join.node
        succeeded = outcome_rec is not None
        attached_s = None
        latency = None
        if succeeded:
            attached_s = outcome_rec.completed_at
            latency = self._first_chunk_latency(node, arrival, attached_s)
            self.sim.schedule_in(
                arrival.hold_s,
                lambda n=node, a=arrival.index: self._do_leave(n, a),
                label="svc-leave",
            )
        else:
            self._waiters.pop(node, None)
            self._abandoned.add(node)
            self.counters["failed_joins"] += 1
        self._record_outcome(
            arrival.index,
            {
                "admitted": True,
                "arrival_s": arrival.time,
                "attached_s": attached_s,
                "attempts": join.attempts,
                "first_chunk_latency_s": latency,
                "node": node,
                "reject_reason": None,
                "succeeded": succeeded,
                "timeouts": join.timeouts,
            },
        )
        self._look_for_work()

    def _first_chunk_latency(
        self, node: int, arrival: SessionArrival, attached_s: float
    ) -> float | None:
        """Arrival-to-first-chunk: queue wait + join + chunk epoch + path delay.

        The source emits chunk ``k`` at ``k / chunk_rate``; the first
        chunk a member can receive is the first epoch at or after its
        attach instant, delivered after the summed underlay delay of its
        overlay path.  ``None`` when the node is not reachable at attach
        time (it attached under a crashed ancestor) — excluded from the
        latency SLO rather than faked.
        """
        rate = self.config.chunk_rate
        epoch = math.ceil(attached_s * rate - 1e-9) / rate
        try:
            delay_ms = overlay_delay_ms(self.env.tree, self.underlay, node)
        except ValueError:
            return None
        return (epoch + delay_ms / 1000.0) - arrival.time

    # -- health and chaos ------------------------------------------------------

    def _probe(self) -> None:
        self.health.probe_once()
        self._arm(self.health.period_s, self._probe)

    def _chaos(self, index: int = 0, woken: bool = False) -> None:
        """Strike the chaos rules from ``index`` on, each at its time.  A
        woken rule strikes at once, early if a clock jump woke it."""
        plan, now = self.chaos_plan, self.sim.now
        for i in range(index, len(plan)):
            rule = plan[i]
            if not woken and rule.at_s > now:
                self._arm(rule.at_s - now, partial(self._chaos, i, True))
                return
            woken = False
            self._strike(rule)

    def _strike(self, rule: ServiceChaosRule) -> None:
        if rule.action == "agent-crash":
            candidates = sorted(
                n
                for n in self.env.tree.attached_nodes()
                if n != self.source and self.env.is_alive(n)
            )
            if not candidates:
                self.counters["chaos_crash_skipped"] += 1
                return
            node = candidates[rule.node_index % len(candidates)]
            self.counters["chaos_agent_crashes"] += 1
            self.injector.crash(node)
        elif rule.action == "bus-stall":
            self.counters["chaos_bus_stalls"] += 1
            self._stalled = True
            self.sim.schedule_in(
                rule.duration_s, self._resume_queue, label="svc-bus-resume"
            )
        else:  # clock-jump
            self.counters["chaos_clock_jumps"] += 1
            self.counters["chaos_jumped_timers"] += self._jump()

    # -- journaling ------------------------------------------------------------

    def _record_outcome(self, index: int, outcome: dict) -> None:
        self._outcomes[index] = outcome
        if not self._journal_outcomes:
            return
        ctx = journal_active()
        if ctx is None:
            return
        ctx.note_recipe(self._journal_key, self._recipe)
        hit = ctx.journal.lookup(
            self._journal_key, index, self.config.seed, self._recipe
        )
        if ctx.journal.is_miss(hit):
            ctx.journal.record(
                self._journal_key, index, self.config.seed, self._recipe, outcome
            )
        elif hit != outcome:
            raise ServiceDeterminismError(
                f"arrival {index} of scenario {self.config.scenario!r} "
                f"recomputed to {outcome!r} but the journal witnessed "
                f"{hit!r}; the run is not deterministic (or the journal "
                "belongs to a different config)"
            )

    # -- the run loop ------------------------------------------------------------

    def run(self) -> dict:
        """Execute the run to completion (or drain) and return its metrics."""
        if self._ran:
            raise RuntimeError("a ServiceRuntime can only run once")
        self._ran = True
        cfg, sim, pace = self.config, self.sim, self._pace_s
        self._wake(self._produce)
        for _ in range(cfg.join_workers):
            self._wake(self._look_for_work)
        self._wake(partial(self._arm, self.health.period_s, self._probe))
        self._wake(self._chaos)
        while True:
            self._run_ready()
            if not self._slots_open:
                break
            self.halt = False
            if self._drain_requested and not self.drained:
                self._begin_drain()
                continue
            before = sim.now
            if not sim.run_burst(self):
                raise RuntimeError(
                    "service runtime stalled: no reaction is ready, the "
                    "event queue is empty, and a serving slot is still open"
                )
            if pace > 0:
                wall = (sim.now - before) * pace
                if wall > 0:
                    time.sleep(min(wall, 0.25))
        # The health tick and the next chaos rule are still armed: a run
        # leaves no timer behind.  (Departures of members still holding
        # their hosts stay queued: they are the tree's, not the service's.)
        for event in self._timers:
            event.cancel()
        self._timers.clear()
        # An undrained run ends at or past the horizon: the producer's last
        # wait is the horizon itself.
        self.health.probe_once()
        self.health.finish()
        self.checker.verify_all()
        return self.report()

    # -- reporting -------------------------------------------------------------

    def report(self) -> dict:
        """SLO metrics of the (finished) run, JSON-natural and sortable."""
        outcomes = [self._outcomes[i] for i in sorted(self._outcomes)]
        admitted = [o for o in outcomes if o["admitted"]]
        succeeded = [o for o in admitted if o["succeeded"]]
        latencies = [
            o["first_chunk_latency_s"]
            for o in succeeded
            if o["first_chunk_latency_s"] is not None
        ]
        stats = self._queue_stats
        return {
            "schema": "repro-service-metrics/1",
            "scenario": self.config.scenario,
            "seed": self.config.seed,
            "duration_s": self.config.duration_s,
            "drained": self.drained,
            "drain_time_s": self.drain_time_s,
            "arrivals": len(outcomes),
            "admitted": len(admitted),
            "rejected": len(outcomes) - len(admitted),
            "succeeded": len(succeeded),
            "failed": len(admitted) - len(succeeded),
            "retries": self.counters["retries"],
            "join_timeouts": self.counters["join_timeouts"],
            "late_attach_leaves": self.counters["late_attach_leaves"],
            "p50_first_chunk_s": latency_percentile(latencies, 50.0),
            "p99_first_chunk_s": latency_percentile(latencies, 99.0),
            "time_in_degraded_s": self.health.time_in_degraded_s,
            "probe_ticks": self.health.probe_ticks,
            "health_transitions": [
                t.as_dict() for t in self.health.transitions
            ],
            "invariant_violations": len(self.checker.violations),
            "recovery_episodes": len(self.recovery.recovery_times),
            "chaos": {
                "agent_crashes": self.counters["chaos_agent_crashes"],
                "bus_stalls": self.counters["chaos_bus_stalls"],
                "clock_jumps": self.counters["chaos_clock_jumps"],
                "crash_skipped": self.counters["chaos_crash_skipped"],
            },
            "bus": {
                "delivered": stats["delivered"],
                "max_depth": stats["max_depth"],
                "published": stats["published"],
                "rejected": stats["rejected"],
            },
            "final_members": len(self.env.tree.members()),
            "final_attached": len(self.env.tree.attached_nodes()),
        }

    def metrics_json(self) -> str:
        """Canonical rendering of :meth:`report` (byte-comparable)."""
        return json.dumps(self.report(), sort_keys=True, indent=1) + "\n"


def run_service(
    config: ServiceConfig,
    underlay=None,
    *,
    chaos_plan: tuple[ServiceChaosRule, ...] | None = None,
    journal_outcomes: bool = False,
) -> dict:
    """Run one service session synchronously and return its metrics dict.

    The library/sweep entry point: outcome journaling is off by default so
    a ch8 sweep replication journals one metrics dict per rep (via
    ``run_replications``) rather than hundreds of per-arrival entries;
    the CLI turns it on for drain/resume.
    """
    return ServiceRuntime(
        config,
        underlay,
        chaos_plan=chaos_plan,
        journal_outcomes=journal_outcomes,
    ).run()
